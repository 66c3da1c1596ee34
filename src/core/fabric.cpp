#include "core/fabric.hpp"

#include "switchd/sdn_switch.hpp"

namespace mic::core {

GenericFabric::GenericFabric(
    const topo::Graph& graph,
    std::vector<std::pair<topo::NodeId, net::Ipv4>> host_addrs,
    FabricOptions options)
    : host_addrs_(std::move(host_addrs)),
      network_(sim_, graph, options.link),
      rng_(options.seed) {
  ctrl::HostAddressing addressing;
  for (const topo::NodeId sw : graph.switches()) {
    network_.set_device(sw, std::make_unique<switchd::SdnSwitch>());
  }
  for (const auto& [node, ip] : host_addrs_) {
    MIC_ASSERT_MSG(graph.is_host(node), "host address on a switch node");
    auto host = std::make_unique<transport::Host>(ip);
    hosts_.push_back(host.get());
    addressing.add(node, ip);
    network_.set_device(node, std::move(host));
  }
  mc_ = std::make_unique<MimicController>(network_, std::move(addressing),
                                          rng_.next(), options.mic,
                                          options.controller);
  if (options.install_default_routing) {
    mc_->install_default_routing();
  }
  // Loss of signal anywhere in the fabric reaches the MC by itself; the
  // harness only has to flip links, never to report them.
  mc_->enable_failure_detection();
}

namespace {

std::vector<std::pair<topo::NodeId, net::Ipv4>> fattree_hosts(
    const topo::FatTree& fattree) {
  std::vector<std::pair<topo::NodeId, net::Ipv4>> hosts;
  hosts.reserve(fattree.hosts().size());
  for (const topo::NodeId h : fattree.hosts()) {
    hosts.emplace_back(h, net::Ipv4{fattree.host_ip(h)});
  }
  return hosts;
}

}  // namespace

Fabric::Fabric(FabricOptions options)
    : detail::FatTreeHolder(options.k),
      GenericFabric(fattree_.graph(), fattree_hosts(fattree_), options) {}

}  // namespace mic::core
