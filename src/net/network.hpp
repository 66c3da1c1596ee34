// The simulated fabric: devices (hosts, switches) attached to the links of
// a topology graph, with per-link bandwidth, propagation delay and drop-tail
// queues.
//
// Devices implement `Device::receive(packet, in_port)` and send with
// `Network::transmit(node, out_port, packet)`.  Observation taps can be
// attached to any link; they see every packet *as it appears on the wire*,
// which is exactly the adversary's vantage in the paper's threat model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/packet.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "topology/graph.hpp"

namespace mic::net {

class Network;

/// Base class for anything attached to the fabric.
class Device {
 public:
  virtual ~Device() = default;

  /// A packet has fully arrived on `in_port`.
  virtual void receive(const Packet& packet, topo::PortId in_port) = 0;

  /// The link attached to `port` changed state (loss of signal / signal
  /// restored; Network::link_up tells which).  The default ignores it; SDN
  /// switches forward it to the controller as an async port-status
  /// notification.
  virtual void on_port_status(topo::PortId /*port*/) {}

  void attach(Network* network, topo::NodeId node);

  /// The fabric's event loop: every device timer and CPU charge runs on it.
  sim::Simulator& simulator() noexcept { return *sim_; }

  sim::CpuMeter& cpu() noexcept { return cpu_; }
  const sim::CpuMeter& cpu() const noexcept { return cpu_; }

 protected:
  Network* network_ = nullptr;
  topo::NodeId node_ = topo::kInvalidNode;
  sim::Simulator* sim_ = nullptr;
  sim::CpuMeter cpu_;
};

struct LinkConfig {
  std::uint64_t bandwidth_bps = 1'000'000'000;  // 1 Gb/s, Mininet default
  sim::SimTime propagation_delay = sim::microseconds(5);
  std::uint32_t queue_capacity_bytes = 150'000;  // ~100 MTU-sized packets
  /// Random early corruption/loss injection for robustness tests.
  double random_drop_probability = 0.0;
};

/// Counters for one link direction.
struct LinkStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
};

class Network {
 public:
  /// Tap callback: (link, from_node, to_node, packet, time).
  using Tap = std::function<void(topo::LinkId, topo::NodeId, topo::NodeId,
                                 const Packet&, sim::SimTime)>;

  Network(sim::Simulator& simulator, const topo::Graph& graph,
          LinkConfig default_link = {}, std::uint64_t loss_seed = 0x10552EED);

  sim::Simulator& simulator() noexcept { return sim_; }

  const topo::Graph& graph() const noexcept { return graph_; }

  /// Install the device serving `node`.  Must be called for every node that
  /// will receive traffic.
  void set_device(topo::NodeId node, std::unique_ptr<Device> device);

  Device* device(topo::NodeId node) noexcept {
    return devices_[node].get();
  }

  /// Queue a packet for transmission out of `node`'s port `out_port`.
  /// Returns false if the egress queue is full (packet dropped).
  bool transmit(topo::NodeId node, topo::PortId out_port, Packet packet);

  /// Fail or restore a link (both directions).  Packets sent into a failed
  /// link are silently lost, exactly like a yanked cable.  Both endpoint
  /// devices are told via `Device::on_port_status` (loss of signal is
  /// observable at the PHY), which is what failure detection builds on.
  void set_link_up(topo::LinkId link, bool up);
  bool link_up(topo::LinkId link) const {
    return directions_[2 * link].up;
  }

  /// Attach an observation tap to one link (both directions), or to all
  /// links with `add_global_tap`.
  void add_link_tap(topo::LinkId link, Tap tap);
  void add_global_tap(Tap tap);

  const LinkStats& stats(topo::LinkId link, int direction) const {
    return directions_[2 * link + static_cast<std::size_t>(direction)].stats;
  }

  std::uint64_t total_drops() const noexcept;

  /// Fresh packet id for tracing.
  std::uint64_t next_packet_id() noexcept { return ++packet_id_; }

 private:
  // One serialized-and-propagating packet on a direction.  Queue occupancy
  // ends at tx_done (the last bit left the egress buffer); the receiving
  // device sees the packet at arrival = tx_done + propagation.
  struct InFlight {
    Packet packet;
    sim::SimTime tx_done = 0;
    sim::SimTime arrival = 0;
    std::uint32_t wire = 0;
  };

  struct Direction {
    topo::NodeId from = topo::kInvalidNode;
    topo::NodeId to = topo::kInvalidNode;
    topo::PortId to_port = topo::kInvalidPort;
    LinkConfig config;
    bool up = true;
    sim::SimTime busy_until = 0;
    std::uint32_t queued_bytes = 0;
    LinkStats stats;
    std::vector<Tap> taps;
    // Burst FIFO: every transmitted-but-undelivered packet, in wire order
    // (arrival times are strictly increasing per direction).  Packets ride
    // here instead of inside per-event closures, and queued_bytes is
    // retired lazily from the front (see transmit()), so a packet costs
    // ONE capture-free scheduler event -- the pre-wheel engine paid two,
    // one of them carrying the packet by value.
    std::deque<InFlight> in_flight;
    std::size_t released = 0;  // prefix of in_flight already debited
  };

  /// Delivers every in_flight packet whose arrival time has been reached
  /// on directions_[index].
  void deliver(std::size_t index);

  // directions_[2*link + 0] is endpoint-a -> endpoint-b.
  std::vector<Direction> directions_;

  sim::Simulator& sim_;
  const topo::Graph& graph_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Tap> global_taps_;
  std::uint64_t packet_id_ = 0;
  Rng loss_rng_;
};

}  // namespace mic::net
