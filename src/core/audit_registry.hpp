// Unified invariant-audit registry (DESIGN.md "Invariant catalog").
//
// The repo accumulated four executable runtime invariants in four places:
// FT-1 (two-tier flow-table lookup equivalence), CA-1 (collision audit),
// PE-1 (path-row determinism) and FD-1 (orphan-rule audit).  Tests, the
// chaos soak and the examples each grew their own ad-hoc call sites, which
// meant a new subsystem's invariant had to be wired into every checkpoint
// by hand -- and usually wasn't.
//
// audit::Registry is the single choke point: the built-in invariants
// register themselves once (in audit_registry.cpp), future subsystems call
// Registry::instance().add(...) from their own translation unit, and every
// checkpoint -- a test's quiescence assertion, the chaos soak, an
// example's exit status -- invokes one run_all(fabric) and gets every
// registered invariant, including ones that did not exist when the
// checkpoint was written.
//
// Checks run on the single-threaded event loop between simulator runs
// (they walk flow tables and the path-row cache); the registry itself is
// immutable after static registration.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
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

/// One run_all() checkpoint: every registered invariant, in registration
/// order.
struct RunReport {
  bool ok = true;
  std::vector<CheckResult> checks;

  /// The named check; aborts if the id was never registered (a typo in a
  /// test should fail loudly, not vacuously pass).
  const CheckResult& check(std::string_view id) const;

  /// First violation across all checks, prefixed with its invariant id --
  /// the one-line diagnosis for EXPECT_TRUE(report.ok) << ... messages.
  std::string first_violation() const;

  /// "FT-1 ok (123 checked), CA-1 ok (...), ..." -- for example binaries.
  std::string summary() const;
};

class Registry {
 public:
  using CheckFn = std::function<CheckResult(core::MimicController&)>;

  /// The process-wide registry, with the seven built-in invariants (FT-1,
  /// CA-1, PE-1, FD-1, RC-1, RC-2, AC-1) already registered.
  static Registry& instance();

  /// Register an invariant.  `fn` fills ok/items_checked/violations; id
  /// and name are stamped by the registry.  Duplicate ids abort: two
  /// subsystems claiming one identifier is a wiring bug.
  void add(std::string id, std::string name, CheckFn fn);

  /// Run every registered invariant against the controller's fabric view.
  RunReport run_all(core::MimicController& mc) const;

  /// Run one invariant by id; aborts on unknown ids.
  CheckResult run(std::string_view id, core::MimicController& mc) const;

  std::vector<std::string> ids() const;

 private:
  Registry();

  struct Entry {
    std::string id;
    std::string name;
    CheckFn fn;
  };
  std::vector<Entry> checks_;  // registration order == report order
};

/// The one-call checkpoint: run every registered invariant.
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
