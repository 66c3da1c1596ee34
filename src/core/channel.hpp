// Mimic-channel data model shared by the Mimic Controller and the client
// library: per-hop address plans, establishment requests/results, and the
// (real, AES-encrypted) control-message serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/maga_registry.hpp"
#include "crypto/aes128.hpp"
#include "net/addr.hpp"
#include "sim/time.hpp"
#include "topology/graph.hpp"

namespace mic::core {

using ChannelId = std::uint64_t;

/// One decoy replica emitted by the partially-multicast mechanism.
struct DecoyPlan {
  MTuple tuple;
  topo::PortId out_port = topo::kInvalidPort;
  topo::NodeId next_switch = topo::kInvalidNode;
  topo::PortId next_in_port = topo::kInvalidPort;
  FlowId flow_id = kInvalidFlowId;
  bool operator==(const DecoyPlan&) const noexcept = default;
};

/// Complete routing plan of one m-flow (paper Sec IV-B2): a path, the MN
/// positions on it, and the address sequence in both directions: the
/// m-address a packet carries on each path segment, with mpls == kNoMpls
/// on the first segment (the host cannot tag) and the last (the last MN
/// pops).
struct MFlowPlan {
  FlowId flow_id = kInvalidFlowId;
  topo::Path path;                        // forward, hosts at both ends
  std::vector<std::size_t> mn_positions;  // ascending indices into `path`
  std::vector<MTuple> forward;            // size N+1; [0]=initial, [N]=final
  std::vector<MTuple> reverse;            // same, along the reversed path
  std::vector<DecoyPlan> decoys;          // at the first forward MN
  bool operator==(const MFlowPlan&) const noexcept = default;
};

struct ChannelState {
  ChannelId id = 0;
  topo::NodeId initiator = topo::kInvalidNode;
  topo::NodeId responder = topo::kInvalidNode;
  std::vector<MFlowPlan> flows;
  std::vector<topo::NodeId> touched_switches;
  /// Install-transaction generation.  Bumped whenever the channel's rules
  /// are (re-)issued; in-flight commits from an older generation must not
  /// retry, roll back, or otherwise touch the cookie they no longer own.
  std::uint64_t install_txn = 0;
  bool operator==(const ChannelState&) const noexcept = default;
};

struct EstablishRequest {
  net::Ipv4 initiator_ip;
  /// Either a hidden-service nickname or an explicit responder address.
  std::string service_name;
  net::Ipv4 responder_ip{0};
  net::L4Port responder_port = 0;

  int flow_count = 1;  // F: m-flows per channel
  int mn_count = 3;    // N: MNs per m-flow (the paper's default route length)
  /// The initiator pre-binds one source port per m-flow so the MC can
  /// install exact reverse-path rewrites.
  std::vector<net::L4Port> initiator_sports;
  /// Partial multicast: number of decoy replicas at the first MN (0 = off).
  int multicast_decoys = 0;
};

struct EntryAddress {
  net::Ipv4 ip;
  net::L4Port port = 0;
};

struct EstablishResult {
  bool ok = false;
  /// Load-shed by admission control: the MC is alive but refused the work.
  /// Distinct from ok == false errors (which are final) and from silence
  /// (which means the MC is down) -- the client should back off for
  /// `retry_after` and try again.
  bool busy = false;
  sim::SimTime retry_after = 0;
  std::string error;
  ChannelId channel = 0;
  std::vector<EntryAddress> entries;  // one per m-flow
};

/// The Busy{retry_after} control reply admission control sheds with.
inline EstablishResult busy_result(sim::SimTime retry_after) {
  EstablishResult result;
  result.busy = true;
  result.retry_after = retry_after;
  result.error = "controller busy; retry after backoff";
  return result;
}

// --- control-channel wire format -------------------------------------------
//
// The client<->MC request really is serialized and AES-128-CTR encrypted
// with the pre-shared key (paper Sec VI: "The communication between the
// client and the MC is encrypted using private key", with AES for the
// request packet).

std::vector<std::uint8_t> serialize_request(const EstablishRequest& req);
/// Parse a decrypted request; nullopt when the bytes are short, or longer
/// than the fields they declare.
std::optional<EstablishRequest> deserialize_request(
    const std::vector<std::uint8_t>& bytes);

/// In-place CTR encryption/decryption with a per-message IV derived from a
/// message counter.
void crypt_control_message(const crypto::Aes128::Key& key,
                           std::uint64_t message_counter,
                           std::vector<std::uint8_t>& bytes);

}  // namespace mic::core
