// Collision audit: an executable check of the Collision Avoidance
// Mechanism's invariants (DESIGN.md CA-1, MAGA-1..3).
//
// Walks every switch's flow table and verifies that
//  1. no two rules share (priority, match) -- the data-plane precondition
//     for deterministic forwarding,
//  2. every m-flow rule's matched three-tuple hashes to an *active* flow ID
//     under the owning switch's MAGA function,
//  3. every MF label's class equals the switch's S_ID, every CF label's
//     class equals C_ID, and the two never mix.
//
// Both audits count the rules they walk in items_checked and the m-flow
// rules among them in metric("mflow_rules").
#pragma once

#include "core/audit_registry.hpp"
#include "core/mimic_controller.hpp"

namespace mic::core {

audit::CheckResult audit_collisions(MimicController& mc);

/// Orphan-rule audit (DESIGN.md FD-1): after quiescence, the installed
/// rule set and the live channel set must coincide --
///  1. every rule and group on every switch is either common-flow state
///     (cookie == ctrl::kL3Cookie) or tagged with a *live* channel ID, and
///  2. every live channel has at least one rule on each switch its plan
///     says it touches.
/// Violations mean a teardown/repair/rollback leaked state (1) or a commit
/// claimed success it never delivered (2).
audit::CheckResult audit_orphan_rules(MimicController& mc);

}  // namespace mic::core
