#include "core/collision_audit.hpp"

#include <algorithm>
#include <sstream>

namespace mic::core {

namespace {

std::string describe(topo::NodeId sw, const switchd::FlowRule& rule,
                     const char* what) {
  std::ostringstream out;
  out << "switch " << sw << " prio " << rule.priority << " cookie "
      << rule.cookie << ": " << what;
  return out.str();
}

}  // namespace

audit::CheckResult audit_collisions(MimicController& mc) {
  audit::CheckResult report;
  std::uint64_t mflow_rules = 0;
  auto& registry = mc.registry();

  for (const topo::NodeId sw : mc.graph().switches()) {
    const auto& rules = mc.switch_at(sw)->table().rules();

    // 1. No duplicate (priority, match).
    for (std::size_t i = 0; i < rules.size(); ++i) {
      ++report.items_checked;
      for (std::size_t j = i + 1; j < rules.size(); ++j) {
        if (rules[i].priority == rules[j].priority &&
            rules[i].match == rules[j].match) {
          report.violations.push_back(
              describe(sw, rules[i], "duplicate (priority, match) pair"));
        }
      }
    }

    for (const auto& rule : rules) {
      // 2. Matched MF tuples must belong to an active flow of the MN that
      //    generated them (identified through the label class).
      if (rule.priority >= ctrl::kPriorityMFlow && rule.match.mpls) {
        ++mflow_rules;
        const net::MplsLabel label = *rule.match.mpls;
        const std::uint8_t cls = registry.class_of_label(label);
        if (cls == registry.c_id()) {
          report.violations.push_back(
              describe(sw, rule, "m-flow rule matches a CF-class label"));
          continue;
        }
        const topo::NodeId generator = registry.switch_of_class(cls);
        if (generator == topo::kInvalidNode) {
          report.violations.push_back(
              describe(sw, rule, "MF label class maps to no registered MN"));
          continue;
        }
        MTuple tuple{*rule.match.src, *rule.match.dst, *rule.match.sport,
                     *rule.match.dport, label};
        const FlowId flow = registry.flow_id_of(generator, tuple);
        if (!registry.flow_id_active(flow)) {
          report.violations.push_back(describe(
              sw, rule, "matched m-tuple does not hash to an active flow ID"));
        }
      }

      // 3. Rewrite targets produced *by this switch* must hash to an active
      //    flow under this switch's own function and carry its own label
      //    class (MAGA-1); CF tags written by ingress rules must classify
      //    as C_ID.
      auto check_actions = [&](const std::vector<switchd::Action>& actions) {
        net::Ipv4 new_src{}, new_dst{};
        net::L4Port new_sport = 0, new_dport = 0;
        net::MplsLabel new_label = net::kNoMpls;
        bool has_set_mpls = false, has_set_ips = false;
        for (const auto& action : actions) {
          if (const auto* set_src = std::get_if<switchd::SetSrc>(&action)) {
            new_src = set_src->ip;
            has_set_ips = true;
          } else if (const auto* set_dst =
                         std::get_if<switchd::SetDst>(&action)) {
            new_dst = set_dst->ip;
          } else if (const auto* set_sport =
                         std::get_if<switchd::SetSport>(&action)) {
            new_sport = set_sport->port;
          } else if (const auto* set_dport =
                         std::get_if<switchd::SetDport>(&action)) {
            new_dport = set_dport->port;
          } else if (const auto* set_mpls =
                         std::get_if<switchd::SetMpls>(&action)) {
            new_label = set_mpls->label;
            has_set_mpls = true;
          }
        }
        if (!has_set_mpls) return;
        const std::uint8_t cls = registry.class_of_label(new_label);
        if (!has_set_ips) {
          // Ingress CF tagging: the label must be in the common class.
          if (cls != registry.c_id()) {
            report.violations.push_back(describe(
                sw, rule, "CF ingress tag label not in the common class"));
          }
          return;
        }
        // A full MN rewrite: label class must be this switch's S_ID and the
        // produced tuple must hash to an active flow under this switch.
        if (cls != registry.s_id(sw)) {
          report.violations.push_back(describe(
              sw, rule, "MN rewrite label not in this switch's class"));
          return;
        }
        const MTuple tuple{new_src, new_dst, new_sport, new_dport, new_label};
        if (!registry.flow_id_active(registry.flow_id_of(sw, tuple))) {
          report.violations.push_back(describe(
              sw, rule, "MN rewrite tuple does not hash to an active flow"));
        }
      };
      check_actions(rule.actions);
      for (const auto& action : rule.actions) {
        if (const auto* grp = std::get_if<switchd::GroupAction>(&action)) {
          const auto* group = mc.switch_at(sw)->table().group(grp->group_id);
          if (group == nullptr) {
            report.violations.push_back(
                describe(sw, rule, "dangling group reference"));
            continue;
          }
          for (const auto& bucket : group->buckets) check_actions(bucket);
        }
      }
    }
  }
  report.ok = report.violations.empty();
  report.metrics.emplace_back("mflow_rules", mflow_rules);
  return report;
}

audit::CheckResult audit_orphan_rules(MimicController& mc) {
  audit::CheckResult report;
  std::uint64_t mflow_rules = 0;
  const std::vector<ChannelId> live = mc.channel_ids();
  const auto is_live = [&live](std::uint64_t cookie) {
    return std::binary_search(live.begin(), live.end(), cookie);
  };

  // 1. Every installed cookie belongs to a live channel (or is CF state).
  for (const topo::NodeId sw : mc.graph().switches()) {
    const auto& table = mc.switch_at(sw)->table();
    for (const auto& rule : table.rules()) {
      ++report.items_checked;
      if (rule.cookie == ctrl::kL3Cookie) continue;
      ++mflow_rules;
      if (!is_live(rule.cookie)) {
        report.violations.push_back(
            describe(sw, rule, "orphan rule: cookie has no live channel"));
      }
    }
    for (const auto& group : table.groups()) {
      ++report.items_checked;
      if (group.cookie == ctrl::kL3Cookie || is_live(group.cookie)) continue;
      report.violations.push_back(
          "switch " + std::to_string(sw) + " group " +
          std::to_string(group.group_id) +
          ": orphan group: cookie has no live channel");
    }
  }

  // 2. Every live channel's rules actually exist where its plan says.
  for (const ChannelId id : live) {
    const ChannelState* state = mc.channel(id);
    for (const topo::NodeId sw : state->touched_switches) {
      if (!mc.switch_at(sw)->table().has_cookie(id)) {
        report.violations.push_back(
            "channel " + std::to_string(id) + ": no rules on switch " +
            std::to_string(sw) + " despite touching it");
      }
    }
  }
  report.ok = report.violations.empty();
  report.metrics.emplace_back("mflow_rules", mflow_rules);
  return report;
}

}  // namespace mic::core
