// Small-scope explorer for the MC's failure view.  Every sequence of up to
// three letters (four in the DISABLED_ run scripts/check.sh adds) over a
// fixed alphabet runs on a fresh k=4 fabric: crash and reboot of a core, an
// aggregation and an edge switch, a cut and heal of one link, an MC crash,
// its recovery and a standby takeover.  Whatever the order, the fabric
// must end with every runtime audit clean (FV-1 among them), the failure
// view holding exactly the links the sequence left down, no switch that is
// running held failed, and a fresh channel delivering its bytes.
// The fault injector draws crash and flap victims disjoint; this covers
// the overlaps it avoids.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "ctrl/standby.hpp"

namespace mic::core {
namespace {

constexpr std::array<const char*, 11> kLetters = {
    "crash C",  "reboot C", "crash A",    "reboot A",   "crash E",
    "reboot E", "cut L",    "heal L",     "MC crash",   "MC recover",
    "take over",
};
constexpr std::uint64_t kFreshBytes = 16 * 1024;

ctrl::StandbyOptions follow_only() {
  ctrl::StandbyOptions so;
  so.heartbeat_interval = 0;  // takes over only when a letter says so
  return so;
}

/// The bed every sequence starts from.  The actors: A is the first
/// aggregation switch, C a core adjacent to A, E the edge switch under A
/// that does not serve host 0, and L the A-C link.  Letters act on the
/// current MC (the primary's, or its successor's once the standby took
/// over), and switch crashes and reboots act the way the fault injector's
/// do.
class ExplorerBed {
 public:
  ExplorerBed()
      : standby_(fabric_.mc(), follow_only()) {
    standby_.start();
    server_ = std::make_unique<MicServer>(fabric_.host(12), 7000,
                                          fabric_.rng());
    server_->set_on_channel([this](MicServerChannel& channel) {
      channel.set_on_data([this](const transport::ChunkView& view) {
        received_ += view.length;
      });
    });

    const topo::FatTree& fattree = fabric_.fattree();
    const topo::NodeId host0_edge = graph().neighbors(fabric_.host_node(0))
                                        .front()
                                        .peer;
    a_ = fattree.agg_switches().front();
    for (const auto& adj : graph().neighbors(a_)) {
      if (fattree.pod_of(adj.peer) < 0) {
        if (c_ == topo::kInvalidNode) c_ = adj.peer;
      } else if (adj.peer != host0_edge) {
        e_ = adj.peer;
      }
    }
    l_ = graph().link_between(a_, c_);

    channels_.push_back(client(0));
    channels_.push_back(client(2));
    run();
  }

  void apply(std::size_t letter) {
    const std::array<topo::NodeId, 3> switches = {c_, a_, e_};
    MimicController& mc = fabric_.mc().current();
    if (letter < 6) {
      if (letter % 2 == 0) {
        crash(switches[letter / 2]);
      } else {
        reboot(switches[letter / 2]);
      }
    } else if (letter == 6 && !cut_) {
      cut_ = true;
      fabric_.network().set_link_up(l_, false);
    } else if (letter == 7 && cut_) {
      cut_ = false;
      if (!crashed_.contains(a_) && !crashed_.contains(c_)) {
        fabric_.network().set_link_up(l_, true);
      }
    } else if (letter == 8 && !mc.crashed()) {
      mc.crash();
    } else if (letter == 9 && mc.crashed()) {
      mc.recover(mc.journal());
    } else if (letter == 10) {
      standby_.take_over("failure explorer");  // false once taken over
    }
    run();
  }

  /// The first end-state check that fails, or "" when all hold.
  std::string verdict() {
    MimicController& mc = fabric_.mc().current();
    if (mc.crashed()) {
      mc.recover(mc.journal());
      run();
    }
    const audit::RunReport report = audit::run_all(mc);
    if (!report.ok) return report.first_violation();
    // The explorer's own model of the PHY: every link of a crashed switch
    // and L while cut are down, and nothing else.
    std::unordered_set<topo::LinkId> down;
    if (cut_) down.insert(l_);
    for (const topo::NodeId sw : crashed_) {
      for (const auto& adj : graph().neighbors(sw)) down.insert(adj.link);
    }
    if (mc.failed_links() != down) {
      return "the failure view holds " +
             std::to_string(mc.failed_links().size()) +
             " links failed; the sequence left " + std::to_string(down.size()) +
             " down";
    }
    for (const topo::NodeId sw : graph().switches()) {
      if (!crashed_.contains(sw) && mc.failed_switches().contains(sw)) {
        return "running switch " + std::to_string(sw) + " is held failed";
      }
    }
    const std::unique_ptr<MicChannel> fresh = client(0);
    run();
    if (!fresh->ready()) return "fresh channel not ready: " + fresh->error();
    fresh->send(transport::Chunk::virtual_bytes(kFreshBytes));
    run();
    if (received_ != kFreshBytes) {
      return "fresh channel delivered " + std::to_string(received_) + " of " +
             std::to_string(kFreshBytes) + " bytes";
    }
    return {};
  }

 private:
  const topo::Graph& graph() { return fabric_.network().graph(); }
  void run() { fabric_.simulator().run_until(); }

  std::unique_ptr<MicChannel> client(std::size_t host) {
    MicChannelOptions o;
    o.responder_ip = fabric_.ip(12);
    o.responder_port = 7000;
    return std::make_unique<MicChannel>(fabric_.host(host), fabric_.mc(), o,
                                        fabric_.rng());
  }

  void crash(topo::NodeId sw) {
    if (!crashed_.insert(sw).second) return;
    for (const auto& adj : graph().neighbors(sw)) {
      fabric_.network().set_link_up(adj.link, false);
    }
    fabric_.mc().current().fail_switch(sw);
  }

  void reboot(topo::NodeId sw) {
    if (crashed_.erase(sw) == 0) return;
    for (const auto& adj : graph().neighbors(sw)) {
      if (!crashed_.contains(adj.peer) && !(cut_ && adj.link == l_)) {
        fabric_.network().set_link_up(adj.link, true);
      }
    }
    fabric_.mc().current().restore_switch(sw);
  }

  Fabric fabric_;
  ctrl::StandbyController standby_;
  std::unique_ptr<MicServer> server_;
  std::vector<std::unique_ptr<MicChannel>> channels_;
  std::uint64_t received_ = 0;
  topo::NodeId a_ = topo::kInvalidNode;
  topo::NodeId c_ = topo::kInvalidNode;
  topo::NodeId e_ = topo::kInvalidNode;
  topo::LinkId l_ = topo::kInvalidLink;
  std::unordered_set<topo::NodeId> crashed_;
  bool cut_ = false;
};

/// Run every sequence of 1..`depth` letters; fail with the count and the
/// first few offenders.
void explore(std::size_t depth) {
  // Thousands of takeovers and lost channels would each log a warning.
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  std::size_t sequences = 0;
  std::vector<std::string> failures;
  for (std::size_t length = 1; length <= depth; ++length) {
    std::size_t count = 1;
    for (std::size_t i = 0; i < length; ++i) count *= kLetters.size();
    for (std::size_t index = 0; index < count; ++index) {
      ExplorerBed bed;
      std::string sequence;
      for (std::size_t i = 0, rest = index; i < length;
           ++i, rest /= kLetters.size()) {
        const std::size_t letter = rest % kLetters.size();
        sequence += (i == 0 ? "" : ", ") + std::string(kLetters[letter]);
        bed.apply(letter);
      }
      ++sequences;
      const std::string verdict = bed.verdict();
      if (!verdict.empty()) failures.push_back(sequence + ": " + verdict);
    }
  }
  set_log_level(saved);
  std::string shown;
  for (std::size_t i = 0; i < failures.size() && i < 8; ++i) {
    shown += "\n  " + failures[i];
  }
  EXPECT_TRUE(failures.empty())
      << failures.size() << " of " << sequences << " sequences failed:"
      << shown;
}

TEST(FailureExplorer, EverySequenceOfUpToThreeLettersEndsOnThePhy) {
  explore(3);
}

// 16,104 sequences, ~20 s: scripts/check.sh runs it after the trace-hash
// replay.
TEST(FailureExplorer, DISABLED_EverySequenceOfUpToFourLettersEndsOnThePhy) {
  explore(4);
}

}  // namespace
}  // namespace mic::core
