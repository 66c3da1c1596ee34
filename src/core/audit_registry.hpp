// The invariant-audit checkpoint (DESIGN.md "Invariant catalog").
//
// The seven executable runtime invariants -- FT-1 (flow-table lookup
// equivalence), CA-1 (collision audit), PE-1 (path-row determinism), FD-1
// (orphan-rule audit), RC-1 (journal / switch-resync consistency), RC-2
// (failover consistency) and AC-1 (admission conservation) -- run from one
// fixed table behind run_all().  Every checkpoint -- a test's quiescence
// assertion, the chaos soak, an example's exit status -- invokes one
// run_all(fabric) and gets all seven; a new invariant is one more row in
// that table.
//
// Checks run on the single-threaded event loop between simulator runs
// (they walk flow tables and the path-row cache).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mic::core {
class MimicController;
}  // namespace mic::core

namespace mic::audit {

/// Outcome of one invariant's audit pass.
struct CheckResult {
  std::string id;    // stable identifier, e.g. "FT-1"
  std::string name;  // human label, e.g. "flow-table lookup equivalence"
  bool ok = true;
  std::size_t items_checked = 0;  // rules / rows / probes the check walked
  std::vector<std::string> violations;
  /// Check-specific counters (e.g. FD-1 exposes "mflow_rules" so tests can
  /// assert a fabric holds literally zero channel rules).
  std::vector<std::pair<std::string, std::uint64_t>> metrics;

  std::uint64_t metric(std::string_view key) const noexcept {
    for (const auto& [k, v] : metrics) {
      if (k == key) return v;
    }
    return 0;
  }
};

/// One run_all() checkpoint: every invariant, in table order.
struct RunReport {
  bool ok = true;
  std::vector<CheckResult> checks;

  /// The named check; aborts on an unknown id (a typo in a test should
  /// fail loudly, not vacuously pass).
  const CheckResult& check(std::string_view id) const;

  /// First violation across all checks, prefixed with its invariant id --
  /// the one-line diagnosis for EXPECT_TRUE(report.ok) << ... messages.
  std::string first_violation() const;

  /// "FT-1 ok (123 checked), CA-1 ok (...), ..." -- for example binaries.
  std::string summary() const;
};

/// The one-call checkpoint: run every invariant, in the order listed above,
/// each result stamped with its id and name.
RunReport run_all(core::MimicController& mc);

/// Convenience overload for anything fabric-shaped (core::Fabric,
/// core::GenericFabric, test beds): run against its Mimic Controller.
template <typename FabricT>
  requires requires(FabricT& f) {
    { f.mc() } -> std::convertible_to<core::MimicController&>;
  }
RunReport run_all(FabricT& fabric) {
  return run_all(fabric.mc());
}

}  // namespace mic::audit
