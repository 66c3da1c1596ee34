// Turn-key simulated data center: a k-ary fat-tree with SDN switches on
// every switch node, a TCP/SSL-capable host on every host node, and a Mimic
// Controller with default routing installed.  This is the paper's testbed
// (Mininet, Fig. 5) in one object; examples, tests and every benchmark
// build on it.
#pragma once

#include <memory>

#include "core/mimic_controller.hpp"
#include "sim/simulator.hpp"
#include "topology/fattree.hpp"
#include "transport/tcp.hpp"

namespace mic::core {

struct FabricOptions {
  int k = 4;  // fat-tree arity (k=4 gives the paper's 16-host, 20-switch pod)
  std::uint64_t seed = 42;
  net::LinkConfig link;  // 1 Gb/s, 5 us, 150 KB queues by default
  MicConfig mic;
  ctrl::ControllerConfig controller;
  bool install_default_routing = true;
};

class Fabric {
 public:
  explicit Fabric(FabricOptions options = {});

  sim::Simulator& simulator() noexcept { return sim_; }
  const topo::FatTree& fattree() const noexcept { return fattree_; }
  net::Network& network() noexcept { return network_; }
  MimicController& mc() noexcept { return *mc_; }
  Rng& rng() noexcept { return rng_; }

  std::size_t host_count() const noexcept { return hosts_.size(); }
  /// The i-th host (in fat-tree order: pod by pod, edge by edge).
  transport::Host& host(std::size_t i) noexcept { return *hosts_[i]; }
  net::Ipv4 ip(std::size_t i) const {
    return net::Ipv4{fattree_.host_ip(fattree_.hosts()[i])};
  }
  topo::NodeId host_node(std::size_t i) const { return fattree_.hosts()[i]; }

 private:
  FabricOptions options_;
  sim::Simulator sim_;
  topo::FatTree fattree_;
  net::Network network_;
  Rng rng_;
  std::vector<transport::Host*> hosts_;  // owned by network_
  std::unique_ptr<MimicController> mc_;
};

/// MIC on an arbitrary SDN topology.  The caller supplies any graph (which
/// must outlive the fabric) plus (host node, IP) assignments; everything
/// else -- SDN switches, hosts, the Mimic Controller, default routing --
/// is wired identically to the fat-tree Fabric.  Demonstrates that nothing
/// in MIC is fat-tree specific.
class GenericFabric {
 public:
  GenericFabric(const topo::Graph& graph,
                std::vector<std::pair<topo::NodeId, net::Ipv4>> host_addrs,
                FabricOptions options = {});

  sim::Simulator& simulator() noexcept { return sim_; }
  net::Network& network() noexcept { return network_; }
  MimicController& mc() noexcept { return *mc_; }
  Rng& rng() noexcept { return rng_; }

  std::size_t host_count() const noexcept { return hosts_.size(); }
  transport::Host& host(std::size_t i) noexcept { return *hosts_[i]; }
  net::Ipv4 ip(std::size_t i) const { return host_addrs_[i].second; }
  topo::NodeId host_node(std::size_t i) const { return host_addrs_[i].first; }

 private:
  sim::Simulator sim_;
  std::vector<std::pair<topo::NodeId, net::Ipv4>> host_addrs_;
  net::Network network_;
  Rng rng_;
  std::vector<transport::Host*> hosts_;  // owned by network_
  std::unique_ptr<MimicController> mc_;
};

}  // namespace mic::core
