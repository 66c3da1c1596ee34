// Snapshots of every switch's default routing -- the rules and groups
// stamped kL3Cookie -- for tests that compare L3 tables across reroutes,
// full reinstalls and controller takeovers.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/l3_routing.hpp"

namespace mic::ctrl {

/// One switch's L3 entries in dump order, without the hit counters:
/// traffic between two snapshots must not make equal tables differ.
struct L3Table {
  struct Rule {
    std::uint16_t priority = 0;
    switchd::Match match;
    std::vector<switchd::Action> actions;
    bool operator==(const Rule&) const = default;
  };
  struct Group {
    std::uint32_t group_id = 0;
    switchd::GroupType type = switchd::GroupType::kAll;
    std::vector<std::vector<switchd::Action>> buckets;
    bool operator==(const Group&) const = default;
  };
  std::vector<Rule> rules;
  std::vector<Group> groups;
  bool operator==(const L3Table&) const = default;
};

using L3Snapshot = std::map<topo::NodeId, L3Table>;

inline L3Snapshot l3_tables(Controller& controller) {
  switchd::DumpFilter filter;
  filter.cookie = kL3Cookie;
  L3Snapshot snapshot;
  for (const topo::NodeId sw : controller.graph().switches()) {
    const switchd::FlowDump dump = controller.switch_at(sw)->dump(filter);
    L3Table& table = snapshot[sw];
    for (const switchd::FlowRule& rule : dump.rules) {
      table.rules.push_back({rule.priority, rule.match, rule.actions});
    }
    for (const switchd::GroupEntry& group : dump.groups) {
      table.groups.push_back({group.group_id, group.type, group.buckets});
    }
  }
  return snapshot;
}

/// The switches whose L3 table differs between two snapshots of the same
/// fabric, ascending.
inline std::vector<topo::NodeId> differing_switches(const L3Snapshot& a,
                                                    const L3Snapshot& b) {
  std::vector<topo::NodeId> differ;
  for (const auto& [sw, table] : a) {
    const auto it = b.find(sw);
    if (it == b.end() || !(it->second == table)) differ.push_back(sw);
  }
  return differ;
}

}  // namespace mic::ctrl
