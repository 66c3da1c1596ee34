#include "core/maga_registry.hpp"

#include "common/assert.hpp"

namespace mic::core {

MagaRegistry::MagaRegistry(Rng rng, FlowIdRange flow_ids)
    : rng_(rng),
      classifier_(MplsClassifier::sample(rng_)),
      c_id_(static_cast<std::uint8_t>(rng_.next())),
      flow_ids_(flow_ids),
      next_flow_id_(flow_ids.base) {
  MIC_ASSERT_MSG(flow_ids.base != kInvalidFlowId && flow_ids.size > 0,
                 "flow ID range must exclude the invalid ID 0");
  used_s_ids_.insert(c_id_);
}

void MagaRegistry::register_switch(topo::NodeId sw) {
  if (switches_.contains(sw)) return;
  MIC_ASSERT_MSG(used_s_ids_.size() < 256,
                 "S_ID space exhausted (max 255 MNs); use label stacking");
  SwitchState state;
  do {
    state.s_id = static_cast<std::uint8_t>(rng_.next());
  } while (used_s_ids_.contains(state.s_id));
  used_s_ids_.insert(state.s_id);
  class_to_switch_.emplace(state.s_id, sw);
  state.hash = MagaF::sample(rng_);
  switches_.emplace(sw, std::move(state));
}

std::uint8_t MagaRegistry::s_id(topo::NodeId sw) const {
  const auto it = switches_.find(sw);
  MIC_ASSERT_MSG(it != switches_.end(), "switch not registered with MAGA");
  return it->second.s_id;
}

net::MplsLabel MagaRegistry::sample_cf_label() {
  const std::uint16_t mpls1 = classifier_.sample_label_half(c_id_, rng_);
  net::MplsLabel label;
  do {
    const auto mpls2 = static_cast<std::uint16_t>(rng_.next());
    label = (static_cast<net::MplsLabel>(mpls1) << 16) | mpls2;
  } while (label == net::kNoMpls);
  return label;
}

FlowId MagaRegistry::allocate_flow_id() {
  FlowId id;
  if (!free_flow_ids_.empty()) {
    id = free_flow_ids_.back();
    free_flow_ids_.pop_back();
  } else {
    if (next_flow_id_ >= flow_ids_.base + flow_ids_.size ||
        next_flow_id_ < flow_ids_.base) {
      return kInvalidFlowId;  // this controller's range is used up
    }
    id = next_flow_id_++;
  }
  active_ids_.insert(id);
  return id;
}

void MagaRegistry::release_flow_id(FlowId id) {
  const auto erased = active_ids_.erase(id);
  MIC_ASSERT_MSG(erased == 1, "releasing a flow ID that is not active");
  free_flow_ids_.push_back(id);
}

MTuple MagaRegistry::generate(topo::NodeId mn, FlowId flow,
                              const std::vector<net::Ipv4>& src_candidates,
                              const std::vector<net::Ipv4>& dst_candidates) {
  auto it = switches_.find(mn);
  MIC_ASSERT_MSG(it != switches_.end(), "MN not registered with MAGA");
  MIC_ASSERT(!src_candidates.empty() && !dst_candidates.empty());
  SwitchState& state = it->second;

  for (;;) {
    MTuple t;
    t.src = src_candidates[rng_.below(src_candidates.size())];
    t.dst = dst_candidates[rng_.below(dst_candidates.size())];
    t.sport = static_cast<net::L4Port>(rng_.range(1024, 65535));
    t.dport = static_cast<net::L4Port>(rng_.range(1024, 65535));
    const std::uint16_t mpls1 =
        classifier_.sample_label_half(state.s_id, rng_);
    const std::uint16_t mpls2 =
        state.hash.invert_delta(flow, t.src.value, t.dst.value, mpls1);
    t.mpls = (static_cast<net::MplsLabel>(mpls1) << 16) | mpls2;
    if (t.mpls == net::kNoMpls) {
      ++retries_;
      continue;  // the "untagged" sentinel must stay unused
    }
    if (!state.allocated.insert(fingerprint(t)).second) {
      ++retries_;
      continue;  // extremely unlikely duplicate; resample
    }
    return t;
  }
}

void MagaRegistry::release_tuples(topo::NodeId mn,
                                  const std::vector<MTuple>& tuples) {
  auto it = switches_.find(mn);
  if (it == switches_.end()) return;
  for (const auto& t : tuples) it->second.allocated.erase(fingerprint(t));
}

void MagaRegistry::reset_allocations() {
  next_flow_id_ = flow_ids_.base;
  free_flow_ids_.clear();
  active_ids_.clear();
  for (auto& [sw, state] : switches_) state.allocated.clear();
}

void MagaRegistry::adopt_flow_id(FlowId id) {
  MIC_ASSERT_MSG(id >= flow_ids_.base && id < flow_ids_.base + flow_ids_.size,
                 "adopted flow ID outside this controller's range");
  MIC_ASSERT_MSG(active_ids_.insert(id).second,
                 "adopting a flow ID that is already active");
  if (id >= next_flow_id_) next_flow_id_ = static_cast<FlowId>(id + 1);
}

void MagaRegistry::adopt_tuples(topo::NodeId mn,
                                const std::vector<MTuple>& tuples) {
  auto it = switches_.find(mn);
  MIC_ASSERT_MSG(it != switches_.end(), "MN not registered with MAGA");
  for (const auto& t : tuples) it->second.allocated.insert(fingerprint(t));
}

void MagaRegistry::rebuild_free_list() {
  free_flow_ids_.clear();
  for (FlowId id = flow_ids_.base; id < next_flow_id_; ++id) {
    if (!active_ids_.contains(id)) free_flow_ids_.push_back(id);
  }
}

FlowId MagaRegistry::flow_id_of(topo::NodeId mn, const MTuple& tuple) const {
  const auto it = switches_.find(mn);
  MIC_ASSERT_MSG(it != switches_.end(), "MN not registered with MAGA");
  return it->second.hash.value(tuple.src.value, tuple.dst.value,
                               static_cast<std::uint16_t>(tuple.mpls >> 16),
                               static_cast<std::uint16_t>(tuple.mpls));
}

}  // namespace mic::core
