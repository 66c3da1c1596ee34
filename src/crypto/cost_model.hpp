// Cycle-cost model for cryptographic and forwarding operations.
//
// The paper evaluates on a Xeon E5-2620 @ 2.00 GHz.  Our simulator charges
// each host/switch CPU a number of cycles per operation so that systems with
// more crypto or more per-packet work (Tor, SSL) burn more simulated CPU and
// add more latency, reproducing the *shape* of Figures 7-9.  The constants
// below are software-implementation ballparks for that CPU generation
// (no AES-NI assumed, matching the 2016 OpenSSL-on-Mininet setup); the
// micro_crypto bench measures our own primitives for comparison.
#pragma once

#include <cstdint>

namespace mic::crypto {

struct CostModel {
  // Symmetric primitives, cycles per byte.
  double aes128_cpb = 12.0;      // software AES (table implementation)
  double chacha20_cpb = 4.0;     // portable ChaCha20
  double sha256_cpb = 12.0;      // portable SHA-256
  double hmac_fixed_cycles = 3000.0;  // per-message HMAC overhead (2 blocks)

  // Asymmetric operations, cycles per operation.
  double dh_modexp_cycles = 4.0e6;   // 2048-bit modexp, 256-bit exponent

  // Protocol-stack costs, cycles.
  double tcp_segment_cycles = 2200.0;   // per segment through a host stack
  double tcp_connect_cycles = 12000.0;  // socket + handshake bookkeeping
  double ssl_record_fixed_cycles = 1800.0;  // framing + MAC bookkeeping

  // Switch data-plane costs, cycles (software switch, matching the paper's
  // Open vSwitch setup).
  double switch_lookup_cycles = 1500.0;     // flow-table match
  double switch_rewrite_cycles = 250.0;     // per set-field action
  double switch_group_copy_cycles = 900.0;  // per replicated packet

  // Tor relay application-layer costs.
  double tor_cell_fixed_cycles = 4000.0;  // cell parse + queue + dispatch
  /// Scheduling/queueing latency a cell spends inside a relay before being
  /// forwarded (event loop, circuit queues, token buckets).  This is where
  /// the real Tor daemon's latency overhead lives -- the paper measured Tor
  /// at ~62x TCP latency on a loopback testbed, far beyond raw crypto cost.
  /// Pipelined: it delays cells without occupying the CPU.
  double tor_cell_sched_delay_us = 800.0;

  // Mimic Controller costs, cycles.
  double mic_request_fixed_cycles = 8000.0;      // parse + channel bookkeeping
  double mic_route_calc_cycles_per_flow = 25000.0;  // path + MAGA generation

  /// Cost of encrypting/decrypting `bytes` with ChaCha20 plus the HMAC.
  double stream_crypt_cycles(std::uint64_t bytes) const {
    return chacha20_cpb * static_cast<double>(bytes) + hmac_fixed_cycles;
  }

  double aes_crypt_cycles(std::uint64_t bytes) const {
    return aes128_cpb * static_cast<double>(bytes);
  }
};

/// The default model used by all benchmarks; a single knob set keeps every
/// figure consistent.
inline const CostModel& default_cost_model() {
  static const CostModel model;
  return model;
}

}  // namespace mic::crypto
