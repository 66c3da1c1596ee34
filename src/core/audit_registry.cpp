#include "core/audit_registry.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/channel_journal.hpp"
#include "core/collision_audit.hpp"
#include "core/mimic_controller.hpp"

namespace mic::audit {

namespace {

CheckResult from_audit_report(const core::AuditReport& report) {
  CheckResult result;
  result.ok = report.ok;
  result.items_checked = report.rules_checked;
  result.violations = report.violations;
  result.metrics.emplace_back("mflow_rules",
                              static_cast<std::uint64_t>(report.mflow_rules));
  return result;
}

CheckResult check_flow_tables(core::MimicController& mc) {
  // FT-1: on every switch, the two-tier lookup agrees with the reference
  // linear scan (structurally and for a probe per rule).
  CheckResult result;
  for (const topo::NodeId sw : mc.graph().switches()) {
    std::vector<std::string> violations;
    result.items_checked +=
        mc.switch_at(sw)->table().self_check(violations);
    for (auto& v : violations) {
      result.violations.push_back("switch " + std::to_string(sw) + ": " +
                                  std::move(v));
    }
  }
  result.ok = result.violations.empty();
  return result;
}

CheckResult check_recovery_consistency(core::MimicController& mc) {
  // RC-1: the durable journal and the fabric agree.  Replaying the journal
  // must yield exactly the live channel set (structurally equal state),
  // and every switch must hold exactly the rules those channels derive
  // (content-compared; group references through their buckets).  This is
  // what makes crash()+recover() safe at any instant: whatever the journal
  // claims is what the data plane serves.
  CheckResult result;
  const core::JournalImage image = mc.journal().replay();
  result.metrics.emplace_back(
      "journaled_channels",
      static_cast<std::uint64_t>(image.channels.size()));

  for (const core::ChannelId id : mc.channel_ids()) {
    const auto it = image.channels.find(id);
    if (it == image.channels.end()) {
      result.violations.push_back("channel " + std::to_string(id) +
                                  " is live but absent from the journal");
    } else if (!core::structurally_equal(it->second, *mc.channel(id))) {
      result.violations.push_back("channel " + std::to_string(id) +
                                  " diverges from its journaled state");
    }
  }
  for (const auto& [id, state] : image.channels) {
    if (mc.channel(id) == nullptr) {
      result.violations.push_back("channel " + std::to_string(id) +
                                  " is journaled but not live");
      continue;
    }
    result.items_checked += mc.verify_channel_rules(state, &result.violations);
  }
  result.ok = result.violations.empty();
  return result;
}

CheckResult check_failover_consistency(core::MimicController& mc) {
  // RC-2: controller-generation (failover) consistency.  The audited MC
  // must be the fabric's one true primary: its journal epoch and fence
  // epoch agree, every journal record was stamped at or below that epoch,
  // and no switch has admitted an op from a *newer* generation (a switch
  // fenced above the auditee means a second primary installed something --
  // the dual-primary scenario fencing exists to prevent).  Together with
  // RC-1 (journal replay == live channels == installed rules, which after
  // a takeover is exactly "live == standby replay minus swept"), this is
  // what makes a failover safe to audit at any quiescent instant.
  CheckResult result;
  if (mc.crashed()) {
    result.violations.push_back("audited controller is crashed");
  }
  if (mc.deposed()) {
    result.violations.push_back(
        "audited controller was deposed by a newer-epoch primary");
  }
  ++result.items_checked;

  const std::uint64_t epoch = mc.journal().epoch();
  if (epoch == 0) {
    result.violations.push_back("journal epoch was never initialised");
  }
  if (mc.fence_epoch() != epoch) {
    result.violations.push_back(
        "fence epoch " + std::to_string(mc.fence_epoch()) +
        " != journal epoch " + std::to_string(epoch));
  }
  ++result.items_checked;

  for (const core::JournalRecord& record : mc.journal().records()) {
    if (record.epoch > epoch) {
      result.violations.push_back(
          "journal record seq " + std::to_string(record.seq) +
          " stamped with future epoch " + std::to_string(record.epoch));
    }
    ++result.items_checked;
  }

  std::uint64_t stale_ops = 0;
  for (const topo::NodeId sw : mc.graph().switches()) {
    const std::uint64_t sw_epoch = mc.switch_at(sw)->fence_epoch();
    if (sw_epoch > epoch) {
      result.violations.push_back(
          "switch " + std::to_string(sw) + " is fenced at epoch " +
          std::to_string(sw_epoch) + " > ours " + std::to_string(epoch) +
          " (a newer primary owns the fabric)");
    }
    stale_ops += mc.switch_at(sw)->stale_ops_rejected();
    ++result.items_checked;
  }

  result.metrics.emplace_back("journal_epoch", epoch);
  result.metrics.emplace_back("stale_ops_rejected", stale_ops);
  result.metrics.emplace_back("fenced_ops", mc.fenced_ops());
  result.ok = result.violations.empty();
  return result;
}

CheckResult check_path_rows(core::MimicController& mc) {
  // PE-1: every cached path row equals a fresh recomputation against the
  // current failure set.
  CheckResult result;
  std::vector<std::string> violations;
  result.items_checked = mc.path_engine().self_check(violations);
  result.violations = std::move(violations);
  result.ok = result.violations.empty();
  return result;
}

CheckResult check_admission_conservation(core::MimicController& mc) {
  // AC-1: queued + admitted + shed == offered, and no tenant exceeds its
  // quota.  Concretely: (a) every offered establish is accounted exactly
  // once -- admitted (past or in flight), shed with a Busy reply, or still
  // queued; (b) the same conservation holds for half-open control sessions
  // (opened == completed + reaped + live); (c) with limits enabled, no
  // tenant holds more pending work or half-open sessions than its quota
  // and no bucket holds more than burst tokens; (d) every half-open
  // session past its idle deadline has a live reaper timer (no zombies).
  CheckResult result;
  const ctrl::AdmissionController& ac = mc.admission();
  const ctrl::AdmissionController::Stats& stats = ac.stats();
  const ctrl::AdmissionConfig& config = ac.config();

  const std::uint64_t accounted =
      stats.admitted + stats.shed + static_cast<std::uint64_t>(ac.queued_count());
  if (stats.offered != accounted) {
    result.violations.push_back(
        "request conservation broken: offered=" + std::to_string(stats.offered) +
        " != admitted+shed+queued=" + std::to_string(accounted));
  }
  ++result.items_checked;

  const std::uint64_t sessions_accounted =
      stats.sessions_completed + stats.sessions_reaped +
      static_cast<std::uint64_t>(ac.half_open_count());
  if (stats.sessions_opened != sessions_accounted) {
    result.violations.push_back(
        "session conservation broken: opened=" +
        std::to_string(stats.sessions_opened) +
        " != completed+reaped+live=" + std::to_string(sessions_accounted));
  }
  ++result.items_checked;

  for (const auto& tenant : ac.tenant_snapshot()) {
    const std::string who = "tenant " + std::to_string(tenant.tenant);
    if (config.enabled && tenant.pending > config.tenant_pending_quota) {
      result.violations.push_back(
          who + " exceeds pending quota: " + std::to_string(tenant.pending) +
          " > " + std::to_string(config.tenant_pending_quota));
    }
    if (config.enabled && tenant.half_open > config.tenant_half_open_quota) {
      result.violations.push_back(
          who + " exceeds half-open quota: " +
          std::to_string(tenant.half_open) + " > " +
          std::to_string(config.tenant_half_open_quota));
    }
    if (tenant.tokens < -1e-6 || tenant.tokens > config.tenant_burst + 1e-6) {
      result.violations.push_back(who + " bucket out of range [0, burst]");
    }
    ++result.items_checked;
  }

  for (const std::uint64_t id : ac.zombie_sessions()) {
    result.violations.push_back("half-open session " + std::to_string(id) +
                                " is past its deadline with no reaper armed");
  }
  ++result.items_checked;

  result.metrics.emplace_back("offered", stats.offered);
  result.metrics.emplace_back("admitted", stats.admitted);
  result.metrics.emplace_back("shed", stats.shed);
  result.metrics.emplace_back("exempt", stats.exempt);
  result.metrics.emplace_back(
      "queued", static_cast<std::uint64_t>(ac.queued_count()));
  result.metrics.emplace_back(
      "half_open", static_cast<std::uint64_t>(ac.half_open_count()));
  result.metrics.emplace_back("sessions_reaped", stats.sessions_reaped);
  result.ok = result.violations.empty();
  return result;
}

}  // namespace

const CheckResult& RunReport::check(std::string_view id) const {
  for (const auto& c : checks) {
    if (c.id == id) return c;
  }
  MIC_ASSERT_MSG(false, "audit check id not registered");
  __builtin_unreachable();
}

std::string RunReport::first_violation() const {
  for (const auto& c : checks) {
    if (!c.violations.empty()) return c.id + ": " + c.violations.front();
  }
  return {};
}

std::string RunReport::summary() const {
  std::string out;
  for (const auto& c : checks) {
    if (!out.empty()) out += ", ";
    out += c.id;
    out += c.ok ? " ok (" : " FAILED (";
    out += std::to_string(c.ok ? c.items_checked : c.violations.size());
    out += c.ok ? " checked)" : " violations)";
  }
  return out;
}

Registry::Registry() {
  add("FT-1", "flow-table lookup equivalence", check_flow_tables);
  add("CA-1", "collision / MAGA label audit",
      [](core::MimicController& mc) {
        return from_audit_report(core::audit_collisions(mc));
      });
  add("PE-1", "path-row determinism", check_path_rows);
  add("FD-1", "orphan-rule / live-channel audit",
      [](core::MimicController& mc) {
        return from_audit_report(core::audit_orphan_rules(mc));
      });
  add("RC-1", "journal / switch-resync consistency",
      check_recovery_consistency);
  add("RC-2", "controller-generation (failover) consistency",
      check_failover_consistency);
  add("AC-1", "control-plane admission conservation",
      check_admission_conservation);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(std::string id, std::string name, CheckFn fn) {
  for (const auto& e : checks_) {
    MIC_ASSERT_MSG(e.id != id, "duplicate audit check id");
  }
  checks_.push_back(Entry{std::move(id), std::move(name), std::move(fn)});
}

RunReport Registry::run_all(core::MimicController& mc) const {
  RunReport report;
  report.checks.reserve(checks_.size());
  for (const auto& e : checks_) {
    CheckResult result = e.fn(mc);
    result.id = e.id;
    result.name = e.name;
    report.ok = report.ok && result.ok;
    report.checks.push_back(std::move(result));
  }
  return report;
}

CheckResult Registry::run(std::string_view id,
                          core::MimicController& mc) const {
  for (const auto& e : checks_) {
    if (e.id == id) {
      CheckResult result = e.fn(mc);
      result.id = e.id;
      result.name = e.name;
      return result;
    }
  }
  MIC_ASSERT_MSG(false, "audit check id not registered");
  __builtin_unreachable();
}

std::vector<std::string> Registry::ids() const {
  std::vector<std::string> out;
  out.reserve(checks_.size());
  for (const auto& e : checks_) out.push_back(e.id);
  return out;
}

RunReport run_all(core::MimicController& mc) {
  return Registry::instance().run_all(mc);
}

}  // namespace mic::audit
