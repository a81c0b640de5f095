// Fault-injection layer tests: the schedule parser/formatter, transport
// drop attribution (crash / partition / overlay loss), transient link
// overlays, and the end-to-end guarantee the layer exists for — a scripted
// crash of a partition leader mid-run completes without hanging for every
// engine in the failover lineup: a new leader is elected, the engine
// re-attaches, clients time out and back off, and goodput recovers after
// the heal.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "net/delay_model.h"
#include "net/latency_matrix.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "workload/ycsbt.h"

namespace natto {
namespace {

// ---------------------------------------------------------------------------
// Schedule parser / formatter
// ---------------------------------------------------------------------------

TEST(FaultScheduleTest, ParsesFullGrammar) {
  const std::string text =
      "# comment line\n"
      "5s    crash p0 r2\n"
      "8.5s  recover p0 r2\n"
      "450ms partition s1 s3\n"
      "12s   heal s1 s3\n"
      "13s   isolate s4\n"
      "14s   heal-site s4\n"
      "15s   degrade s0 s1 loss=0.05 delay=30ms for=5s\n";
  fault::FaultSchedule s;
  std::string error;
  ASSERT_TRUE(fault::ParseSchedule(text, &s, &error)) << error;
  ASSERT_EQ(s.events.size(), 7u);

  EXPECT_EQ(s.events[0].op, fault::FaultOp::kCrashReplica);
  EXPECT_EQ(s.events[0].at, Seconds(5));
  EXPECT_EQ(s.events[0].a, 0);
  EXPECT_EQ(s.events[0].b, 2);

  EXPECT_EQ(s.events[1].op, fault::FaultOp::kRecoverReplica);
  EXPECT_EQ(s.events[1].at, Millis(8500));

  EXPECT_EQ(s.events[2].op, fault::FaultOp::kPartitionSites);
  EXPECT_EQ(s.events[2].at, Millis(450));
  EXPECT_EQ(s.events[2].a, 1);
  EXPECT_EQ(s.events[2].b, 3);

  EXPECT_EQ(s.events[4].op, fault::FaultOp::kIsolateSite);
  EXPECT_EQ(s.events[4].a, 4);
  EXPECT_EQ(s.events[5].op, fault::FaultOp::kHealSite);

  EXPECT_EQ(s.events[6].op, fault::FaultOp::kDegradeLink);
  EXPECT_DOUBLE_EQ(s.events[6].loss, 0.05);
  EXPECT_EQ(s.events[6].extra_delay, Millis(30));
  EXPECT_EQ(s.events[6].duration, Seconds(5));

  // Sorted() orders by time, stable on ties.
  std::vector<fault::FaultEvent> sorted = s.Sorted();
  EXPECT_EQ(sorted.front().op, fault::FaultOp::kPartitionSites);
  EXPECT_EQ(sorted.back().op, fault::FaultOp::kDegradeLink);
}

TEST(FaultScheduleTest, FormatRoundTrips) {
  fault::FaultSchedule s;
  s.CrashReplica(Seconds(5), 0, 1)
      .RecoverReplica(Seconds(9), 0, 1)
      .PartitionSites(Seconds(10), 2, 3)
      .HealSites(Seconds(12), 2, 3)
      .DegradeLink(Seconds(13), 0, 4, 0.25, Millis(10), Seconds(2));
  std::string text = fault::FormatSchedule(s);

  fault::FaultSchedule reparsed;
  std::string error;
  ASSERT_TRUE(fault::ParseSchedule(text, &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.events.size(), s.events.size());
  for (size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].op, s.events[i].op) << "event " << i;
    EXPECT_EQ(reparsed.events[i].at, s.events[i].at) << "event " << i;
    EXPECT_EQ(reparsed.events[i].a, s.events[i].a) << "event " << i;
    EXPECT_EQ(reparsed.events[i].b, s.events[i].b) << "event " << i;
    EXPECT_DOUBLE_EQ(reparsed.events[i].loss, s.events[i].loss);
    EXPECT_EQ(reparsed.events[i].extra_delay, s.events[i].extra_delay);
    EXPECT_EQ(reparsed.events[i].duration, s.events[i].duration);
  }
}

TEST(FaultScheduleTest, ParsesGrayFaultVerbs) {
  const std::string text =
      "2s   slow p0 r1 factor=30 for=5s\n"
      "3.5s stall p1 r2 for=1500ms\n"
      "4s   partition-oneway s0 s2\n";
  fault::FaultSchedule s;
  std::string error;
  ASSERT_TRUE(fault::ParseSchedule(text, &s, &error)) << error;
  ASSERT_EQ(s.events.size(), 3u);

  EXPECT_EQ(s.events[0].op, fault::FaultOp::kSlowReplica);
  EXPECT_EQ(s.events[0].at, Seconds(2));
  EXPECT_EQ(s.events[0].a, 0);
  EXPECT_EQ(s.events[0].b, 1);
  EXPECT_DOUBLE_EQ(s.events[0].factor, 30.0);
  EXPECT_EQ(s.events[0].duration, Seconds(5));

  EXPECT_EQ(s.events[1].op, fault::FaultOp::kStallReplica);
  EXPECT_EQ(s.events[1].at, Millis(3500));
  EXPECT_EQ(s.events[1].a, 1);
  EXPECT_EQ(s.events[1].b, 2);
  EXPECT_EQ(s.events[1].duration, Millis(1500));

  EXPECT_EQ(s.events[2].op, fault::FaultOp::kPartitionOneWay);
  EXPECT_EQ(s.events[2].a, 0);
  EXPECT_EQ(s.events[2].b, 2);
}

TEST(FaultScheduleTest, GrayVerbsFormatRoundTrip) {
  fault::FaultSchedule s;
  s.SlowReplica(Seconds(2), 0, 1, 30.0, Seconds(5))
      .StallReplica(Millis(3500), 1, 2, Millis(1500))
      .PartitionOneWay(Seconds(4), 0, 2)
      .HealSites(Seconds(6), 0, 2);
  std::string text = fault::FormatSchedule(s);
  EXPECT_EQ(text,
            "2s slow p0 r1 factor=30 for=5s\n"
            "3.5s stall p1 r2 for=1.5s\n"
            "4s partition-oneway s0 s2\n"
            "6s heal s0 s2\n");

  fault::FaultSchedule reparsed;
  std::string error;
  ASSERT_TRUE(fault::ParseSchedule(text, &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.events.size(), s.events.size());
  for (size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].op, s.events[i].op) << "event " << i;
    EXPECT_EQ(reparsed.events[i].at, s.events[i].at) << "event " << i;
    EXPECT_EQ(reparsed.events[i].a, s.events[i].a) << "event " << i;
    EXPECT_EQ(reparsed.events[i].b, s.events[i].b) << "event " << i;
    EXPECT_DOUBLE_EQ(reparsed.events[i].factor, s.events[i].factor);
    EXPECT_EQ(reparsed.events[i].duration, s.events[i].duration);
  }
}

TEST(FaultScheduleTest, RejectsMalformedGrayVerbsWithLineDiagnostics) {
  fault::FaultSchedule s;
  std::string error;

  // Non-numeric factor, with the error naming the offending line.
  EXPECT_FALSE(fault::ParseSchedule(
      "# header\n1s slow p0 r0 factor=fast for=2s\n", &s, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("bad factor"), std::string::npos) << error;

  // A sub-unity factor would *speed up* the node; rejected outright.
  EXPECT_FALSE(
      fault::ParseSchedule("1s slow p0 r0 factor=0.5 for=2s\n", &s, &error));
  EXPECT_NE(error.find("bad factor"), std::string::npos) << error;

  // Unit-less durations are never guessed at.
  EXPECT_FALSE(
      fault::ParseSchedule("1s slow p0 r0 factor=2 for=5\n", &s, &error));
  EXPECT_NE(error.find("bad duration"), std::string::npos) << error;

  EXPECT_FALSE(
      fault::ParseSchedule("1s slow p0 r0 factor=2 speed=3s\n", &s, &error));
  EXPECT_NE(error.find("unknown key 'speed=3s'"), std::string::npos) << error;

  // Right arity but a key is repeated instead of supplied.
  EXPECT_FALSE(
      fault::ParseSchedule("1s slow p0 r0 factor=2 factor=3\n", &s, &error));
  EXPECT_NE(error.find("slow wants both factor= and for="), std::string::npos)
      << error;

  EXPECT_FALSE(fault::ParseSchedule("2s stall p0 r0 for=0s\n", &s, &error));
  EXPECT_NE(error.find("stall wants a positive for="), std::string::npos)
      << error;
  EXPECT_FALSE(fault::ParseSchedule("2s stall p0 r0 for=abc\n", &s, &error));
  EXPECT_NE(error.find("bad duration"), std::string::npos) << error;
  EXPECT_FALSE(fault::ParseSchedule("2s stall p0 r0 until=3s\n", &s, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;

  // Wrong operand prefixes and missing operands.
  EXPECT_FALSE(fault::ParseSchedule("2s partition-oneway s0\n", &s, &error));
  EXPECT_NE(error.find("partition-oneway wants"), std::string::npos) << error;
  EXPECT_FALSE(
      fault::ParseSchedule("2s partition-oneway s0 p1\n", &s, &error));
  EXPECT_FALSE(fault::ParseSchedule("1s slow s0 r0 factor=2 for=2s\n", &s,
                                    &error));
}

TEST(FaultScheduleTest, RejectsMalformedInputWithLineDiagnostics) {
  fault::FaultSchedule s;
  std::string error;

  EXPECT_FALSE(fault::ParseSchedule("5s explode p0 r0\n", &s, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  EXPECT_FALSE(fault::ParseSchedule("# fine\n5 crash p0 r0\n", &s, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Wrong index prefix (site where a replica is expected).
  EXPECT_FALSE(fault::ParseSchedule("5s crash p0 s0\n", &s, &error));
  // Missing operand.
  EXPECT_FALSE(fault::ParseSchedule("5s partition s1\n", &s, &error));
}

// ---------------------------------------------------------------------------
// Transport: drop attribution and overlays
// ---------------------------------------------------------------------------

struct TransportFaultTest : public ::testing::Test {
  sim::Simulator simulator;
  net::LatencyMatrix matrix = net::LatencyMatrix::LocalTriangle();
  net::Transport transport{&simulator, &matrix, net::MakeConstantDelay(),
                           net::TransportOptions{}, /*seed=*/7};
  int delivered = 0;
  std::function<void()> deliver = [this]() { ++delivered; };
};

TEST_F(TransportFaultTest, PartitionDropsAtSendAndInFlight) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);
  EXPECT_FALSE(transport.IsSitePartitioned(0, 1));

  // Dropped at send time while the sites are partitioned.
  transport.SetSitePartitioned(0, 1, true);
  EXPECT_TRUE(transport.IsSitePartitioned(0, 1));
  EXPECT_TRUE(transport.IsSitePartitioned(1, 0));  // symmetric
  transport.Send(a, b, 64, deliver);
  EXPECT_EQ(transport.dropped_partition(), 1u);
  EXPECT_EQ(transport.messages_sent(), 0u);

  // In-flight at partition-install time: sent, then dropped at delivery.
  transport.SetSitePartitioned(0, 1, false);
  transport.Send(a, b, 64, deliver);
  EXPECT_EQ(transport.messages_sent(), 1u);
  transport.SetSitePartitioned(0, 1, true);
  simulator.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport.dropped_partition(), 2u);

  // Healed: traffic flows again; same-site pairs are never partitioned.
  transport.SetSitePartitioned(0, 1, false);
  transport.Send(a, b, 64, deliver);
  simulator.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(transport.IsSitePartitioned(0, 0));
}

TEST_F(TransportFaultTest, InFlightToCrashedNodeCountsAsCrashDrop) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);
  transport.Send(a, b, 64, deliver);
  EXPECT_EQ(transport.messages_sent(), 1u);
  transport.SetNodeCrashed(b, true);
  simulator.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport.dropped_crash(), 1u);
  EXPECT_EQ(transport.dropped_partition(), 0u);
  // The aggregate equals the per-reason sum.
  EXPECT_EQ(transport.messages_dropped(),
            transport.dropped_crash() + transport.dropped_partition() +
                transport.dropped_loss());
}

TEST_F(TransportFaultTest, OverlayAddsDelayThenExpires) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);
  SimDuration base = matrix.OneWay(0, 1);

  transport.SetLinkOverlay(0, 1, /*extra_loss=*/0.0, /*extra_delay=*/Millis(40),
                           /*until=*/Seconds(1));
  SimTime arrived = -1;
  transport.Send(a, b, 64, [&]() { arrived = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(arrived, base + Millis(40));

  // Past `until` the overlay is pruned and delay reverts to baseline.
  simulator.ScheduleAt(Seconds(2), [&]() {
    transport.Send(a, b, 64, [&]() { arrived = simulator.Now(); });
  });
  simulator.Run();
  EXPECT_EQ(arrived, Seconds(2) + base);
}

TEST_F(TransportFaultTest, OverlayHardLossCountsUnderLoss) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);
  // Certain loss: every send in the window is a loss-attributed drop.
  transport.SetLinkOverlay(0, 1, /*extra_loss=*/1.0, /*extra_delay=*/0,
                           /*until=*/Seconds(1));
  for (int i = 0; i < 5; ++i) transport.Send(a, b, 64, deliver);
  simulator.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport.dropped_loss(), 5u);
  EXPECT_EQ(transport.messages_dropped(), 5u);
}

TEST_F(TransportFaultTest, OverlayLossCollapsesMathisCapacity) {
  // A bandwidth-modeled transport: 1 GB/s nominal, no baseline loss.
  net::TransportOptions opts;
  opts.link_bandwidth_bytes_per_sec = 1e9;
  net::Transport t(&simulator, &matrix, net::MakeConstantDelay(), opts,
                   /*seed=*/7);
  net::NodeId a = t.AddNode(0);
  net::NodeId b = t.AddNode(1);

  // 25% overlay loss on the 4 ms-RTT link collapses the Mathis capacity to
  // MSS / (RTT * sqrt(0.25)) * 16 flows = 1460 / 0.002 * 16 = 11.68 MB/s.
  t.SetLinkOverlay(0, 1, /*extra_loss=*/0.25, /*extra_delay=*/0,
                   /*until=*/Seconds(100));
  SimTime arrived = -1;
  // Each send draws the overlay loss Bernoulli; keep sending until one
  // message survives it (the survivor is the only serialization user).
  for (int i = 0; i < 64 && t.messages_sent() == 0; ++i) {
    t.Send(a, b, 1168000, [&]() { arrived = simulator.Now(); });
  }
  ASSERT_EQ(t.messages_sent(), 1u);
  simulator.Run();
  // 1,168,000 B at 11.68 MB/s = 100 ms serialization + 2 ms one-way. The
  // nominal rate would have finished in ~1.2 ms: the overlay's loss, not
  // the configured bandwidth, set the pace.
  EXPECT_EQ(arrived, Millis(102));
  EXPECT_EQ(t.messages_sent(),
            t.messages_delivered() + t.messages_in_flight() +
                t.delivery_drops());
}

// ---------------------------------------------------------------------------
// Gray faults: fail-slow service stretch, gray stall, half-open partition
// ---------------------------------------------------------------------------

TEST_F(TransportFaultTest, SlowStretchesServiceFifoAndBacklogDrains) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);
  SimDuration base = matrix.OneWay(0, 1);  // 2 ms

  // No CPU cost model configured: the slow fault falls back to the default
  // stand-in (100 us) times the factor = 1 ms per serviced message. A node
  // services a message when it arrives, so the window (until 3 ms) covers
  // the first messages' arrival at 2 ms.
  EXPECT_DOUBLE_EQ(transport.NodeSlowFactor(b), 1.0);
  transport.SetNodeSlow(b, 10.0, /*until=*/Millis(3));
  EXPECT_DOUBLE_EQ(transport.NodeSlowFactor(b), 10.0);
  // A second slow node with the same window and no backlog.
  net::NodeId c = transport.AddNode(1);
  transport.SetNodeSlow(c, 10.0, /*until=*/Millis(3));

  std::vector<std::pair<int, SimTime>> arrivals;
  for (int i = 0; i < 3; ++i) {
    transport.Send(a, b, 64, [&arrivals, i, this]() {
      arrivals.emplace_back(i, simulator.Now());
    });
  }
  // Arrives (4.5 ms) after the slow window expired, while the backlog is
  // still draining: it must queue FIFO behind the stretched messages (no
  // overtaking), at its normal (zero) service cost.
  simulator.ScheduleAt(Millis(2) + Micros(500), [&]() {
    transport.Send(a, b, 64, [&arrivals, this]() {
      arrivals.emplace_back(3, simulator.Now());
    });
  });
  // Sent once the backlog has fully drained: raw wire latency again.
  simulator.ScheduleAt(Millis(4), [&]() {
    transport.Send(a, b, 64, [&arrivals, this]() {
      arrivals.emplace_back(4, simulator.Now());
    });
  });
  // Sent inside c's slow window (2 ms < 3 ms) but arriving after it (4 ms).
  SimTime c_arrival = -1;
  simulator.ScheduleAt(Millis(2), [&]() {
    transport.Send(a, c, 64, [&]() { c_arrival = simulator.Now(); });
  });
  simulator.Run();

  // All three t=0 messages hit the wire together (arrival = 2 ms) and then
  // drain through the node's FIFO service queue at 1 ms each.
  ASSERT_EQ(arrivals.size(), 5u);
  EXPECT_EQ(arrivals[0], (std::pair<int, SimTime>{0, base + Millis(1)}));
  EXPECT_EQ(arrivals[1], (std::pair<int, SimTime>{1, base + Millis(2)}));
  EXPECT_EQ(arrivals[2], (std::pair<int, SimTime>{2, base + Millis(3)}));
  // Message 3 arrived at 4.5 ms < the backlog horizon (5 ms): deferred to
  // the end of the backlog, keeping FIFO order through the equal-time tie
  // break.
  EXPECT_EQ(arrivals[3], (std::pair<int, SimTime>{3, base + Millis(3)}));
  // Message 4 arrived at 6 ms, after the drain: no queueing left.
  EXPECT_EQ(arrivals[4], (std::pair<int, SimTime>{4, Millis(4) + base}));
  // Slowness applies when the node processes the message, not when it was
  // sent: c gets it at raw wire latency, unstretched.
  EXPECT_EQ(c_arrival, Millis(2) + base);
  // The window expired: the factor reads 1.0 again.
  EXPECT_DOUBLE_EQ(transport.NodeSlowFactor(b), 1.0);
}

TEST_F(TransportFaultTest, StallDefersServiceBothWaysButPingsPass) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);
  SimDuration base = matrix.OneWay(0, 1);  // 2 ms
  const SimTime stall_end = Millis(10);

  EXPECT_EQ(transport.NodeStallUntil(b), 0);
  transport.SetNodeStalled(b, stall_end);
  EXPECT_EQ(transport.NodeStallUntil(b), stall_end);

  SimTime service_in = -1, ping_in = -1, service_out = -1, ping_out = -1;
  // Inbound service traffic parks in the stalled node's receive queue until
  // the stall ends; inbound pings are answered by the kernel on time.
  transport.Send(a, b, 64, [&]() { service_in = simulator.Now(); });
  transport.Send(a, b, 64, [&]() { ping_in = simulator.Now(); },
                 net::MessageClass::kPing);
  // The stalled process emits nothing itself: its own service sends replay
  // at the stall's end (wire time added after), while its ping replies go
  // out immediately.
  simulator.ScheduleAt(Millis(1), [&]() {
    transport.Send(b, a, 64, [&]() { service_out = simulator.Now(); });
    transport.Send(b, a, 64, [&]() { ping_out = simulator.Now(); },
                   net::MessageClass::kPing);
  });
  simulator.Run();

  EXPECT_EQ(ping_in, base);
  EXPECT_EQ(ping_out, Millis(1) + base);
  EXPECT_EQ(service_in, stall_end);
  EXPECT_EQ(service_out, stall_end + base);
  // One receive-side deferral + one send-side deferral.
  EXPECT_EQ(transport.stall_deferrals(), 2u);
  // Deferred is not dropped: every message resolved to a delivery.
  EXPECT_EQ(transport.messages_dropped(), 0u);
  EXPECT_EQ(transport.messages_sent(),
            transport.messages_delivered() + transport.messages_in_flight() +
                transport.delivery_drops());
  EXPECT_EQ(transport.NodeStallUntil(b), 0);  // expired
}

TEST_F(TransportFaultTest, OneWayPartitionSeversOneDirectionOnly) {
  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);

  transport.SetSitePartitionedOneWay(0, 1, true);
  // The directed mask is asymmetric: only 0 -> 1 reads as severed.
  EXPECT_TRUE(transport.IsSitePartitioned(0, 1));
  EXPECT_FALSE(transport.IsSitePartitioned(1, 0));

  transport.Send(a, b, 64, deliver);  // severed direction: dropped at send
  transport.Send(b, a, 64, deliver);  // reverse direction keeps flowing
  simulator.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(transport.dropped_partition(), 1u);

  // A message already in flight when the one-way partition lands is eaten
  // by the delivery-time re-check — in the severed direction only.
  transport.SetSitePartitioned(0, 1, false);
  transport.Send(a, b, 64, deliver);
  transport.Send(b, a, 64, deliver);
  transport.SetSitePartitionedOneWay(0, 1, true);
  simulator.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(transport.dropped_partition(), 2u);
  EXPECT_EQ(transport.delivery_drops(), 1u);

  // The symmetric heal clears both directions, matching the schedule
  // grammar's `heal sA sB` semantics for one-way partitions.
  transport.SetSitePartitioned(0, 1, false);
  EXPECT_FALSE(transport.IsSitePartitioned(0, 1));
  transport.Send(a, b, 64, deliver);
  simulator.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(transport.messages_sent(),
            transport.messages_delivered() + transport.messages_in_flight() +
                transport.delivery_drops());
}

// ---------------------------------------------------------------------------
// Accounting invariant under a scripted chaos sequence
// ---------------------------------------------------------------------------

// Drives a crash/recover + partition/heal + overlay sequence against steady
// cross-site traffic and asserts the documented transport contract
//   sent == delivered + in_flight + delivery_drops
// after the run drains — once with batching off, once with batching on.
void RunChaosAccountingSequence(size_t max_batch_bytes) {
  sim::Simulator simulator;
  net::LatencyMatrix matrix = net::LatencyMatrix::LocalTriangle();
  net::TransportOptions opts;
  opts.max_batch_bytes = max_batch_bytes;
  opts.max_batch_delay = Micros(500);
  net::Transport t(&simulator, &matrix, net::MakeConstantDelay(), opts,
                   /*seed=*/11);
  // Two nodes per site so every directed site pair carries several messages
  // per tick (otherwise a batch of one per link defeats the coalescing
  // check below).
  std::vector<net::NodeId> nodes;
  for (int s = 0; s < 3; ++s) {
    nodes.push_back(t.AddNode(s));
    nodes.push_back(t.AddNode(s));
  }

  // All-pairs traffic every millisecond for 12 ms.
  for (int tick = 0; tick < 12; ++tick) {
    simulator.ScheduleAt(Millis(tick), [&t, &nodes]() {
      for (net::NodeId from : nodes) {
        for (net::NodeId to : nodes) {
          if (from != to) t.Send(from, to, 64, []() {});
        }
      }
    });
  }
  // The chaos script, interleaved with the traffic.
  simulator.ScheduleAt(Millis(3), [&]() { t.SetNodeCrashed(nodes[2], true); });
  simulator.ScheduleAt(Millis(5), [&]() { t.SetNodeCrashed(nodes[2], false); });
  simulator.ScheduleAt(Millis(6), [&]() { t.SetSitePartitioned(0, 2, true); });
  simulator.ScheduleAt(Millis(7), [&]() {
    t.SetLinkOverlay(1, 2, /*extra_loss=*/1.0, /*extra_delay=*/0,
                     /*until=*/Millis(9));
  });
  simulator.ScheduleAt(Millis(9), [&]() { t.SetSitePartitioned(0, 2, false); });
  simulator.Run();

  SCOPED_TRACE(max_batch_bytes == 0 ? "batching off" : "batching on");
  EXPECT_GT(t.messages_sent(), 0u);
  EXPECT_GT(t.messages_dropped(), 0u);
  EXPECT_GT(t.delivery_drops(), 0u) << "no in-flight drop exercised";
  EXPECT_EQ(t.messages_in_flight(), 0u) << "run did not drain";
  EXPECT_EQ(t.messages_sent(),
            t.messages_delivered() + t.messages_in_flight() +
                t.delivery_drops());
  EXPECT_EQ(t.messages_dropped(), t.dropped_crash() + t.dropped_partition() +
                                      t.dropped_loss());
  if (max_batch_bytes == 0) {
    EXPECT_EQ(t.batches_sent(), t.messages_sent());
  } else {
    EXPECT_LT(t.batches_sent(), t.messages_sent())
        << "batching never coalesced";
  }
}

TEST(ChaosAccountingTest, InvariantHoldsUnbatched) {
  RunChaosAccountingSequence(/*max_batch_bytes=*/0);
}

TEST(ChaosAccountingTest, InvariantHoldsBatched) {
  RunChaosAccountingSequence(/*max_batch_bytes=*/100000);
}

// ---------------------------------------------------------------------------
// End-to-end: scripted leader crash + partition for every failover engine
// ---------------------------------------------------------------------------

harness::ExperimentConfig ChaosConfig() {
  harness::ExperimentConfig config;
  config.input_rate_tps = 60;
  config.clients_per_site = 1;
  config.duration = Seconds(12);
  config.warmup = Seconds(2);
  config.cooldown = Seconds(1);
  config.drain = Seconds(10);
  config.repeats = 1;
  config.max_attempts = 100;
  config.request_timeout = Millis(800);
  config.backoff_base = Millis(25);
  config.timeline_bucket = Seconds(1);
  // Crash the partition-0 raft leader mid-run, recover it, then blackhole
  // the s0<->s1 link and heal well before generation stops.
  config.cluster.fault_schedule.CrashReplica(Seconds(3), 0, 0)
      .RecoverReplica(Seconds(6), 0, 0)
      .PartitionSites(Seconds(7), 0, 1)
      .HealSites(Seconds(9), 0, 1);
  return config;
}

harness::WorkloadFactory ChaosWorkload() {
  return []() {
    workload::YcsbTWorkload::Options o;
    o.num_keys = 100000;
    return std::make_unique<workload::YcsbTWorkload>(o);
  };
}

TEST(ChaosFailoverTest, EveryEngineSurvivesLeaderCrashAndPartition) {
  harness::ExperimentConfig config = ChaosConfig();
  for (const harness::System& system : harness::FailoverSystems()) {
    SCOPED_TRACE(system.name);
    harness::RunStats stats = harness::RunOnce(config, system, ChaosWorkload(),
                                               /*seed=*/1234);
    // The run completed (RunOnce returned) and committed work both before
    // the crash and after the heal.
    int64_t total = stats.committed_low + stats.committed_high;
    EXPECT_GT(total, 0) << "no transaction committed at all";
    ASSERT_GE(stats.timeline.size(), 10u);
    int64_t before_crash = 0, after_heal = 0;
    for (size_t b = 0; b < 3 && b < stats.timeline.size(); ++b) {
      before_crash += stats.timeline[b].committed;
    }
    for (size_t b = 9; b < stats.timeline.size(); ++b) {
      after_heal += stats.timeline[b].committed;
    }
    EXPECT_GT(before_crash, 0) << "no goodput before the crash";
    EXPECT_GT(after_heal, 0) << "goodput did not recover after the heal";
    // The crash deposed the partition-0 leader: a re-election happened.
    EXPECT_GE(stats.metrics.counter("fault.leader_elections"), 1)
        << "no leader election recorded";
    // Fault machinery ran and attributed drops.
    EXPECT_GE(stats.metrics.counter("fault.crash"), 1);
    EXPECT_GE(stats.metrics.counter("fault.partition"), 1);
    EXPECT_GT(stats.metrics.counter("net.dropped.partition") +
                  stats.metrics.counter("net.dropped.crash"),
              0)
        << "the faults never dropped a message";
    // Accounting contract through the mirrored counters: every sent message
    // resolves to delivered, an in-flight drop, or is still in flight at
    // the run horizon — so sent always covers the resolved count, with the
    // gap being the (small) in-flight tail the horizon cut off.
    int64_t sent = stats.metrics.counter("net.messages_sent");
    int64_t resolved = stats.metrics.counter("net.messages_delivered") +
                       stats.metrics.counter("net.dropped.in_flight");
    EXPECT_GE(sent, resolved);
    EXPECT_GT(stats.metrics.counter("net.messages_delivered"), 0);
  }
}

// The null path: an empty schedule must not arm timers, register fault
// counters, or change a single metric key — enforced end to end by the
// byte-identity chaos test; here we pin the injector-construction gate.
TEST(ChaosFailoverTest, EmptyScheduleBuildsNoInjector) {
  harness::ExperimentConfig config = ChaosConfig();
  config.cluster.fault_schedule = {};
  config.request_timeout = 0;
  config.backoff_base = 0;
  config.timeline_bucket = 0;
  harness::RunStats stats = harness::RunOnce(
      config, harness::MakeSystem(harness::SystemKind::kCarouselBasic),
      ChaosWorkload(), /*seed=*/1234);
  EXPECT_GT(stats.committed_low + stats.committed_high, 0);
  EXPECT_EQ(stats.metrics.counter("fault.crash"), 0);
  EXPECT_EQ(stats.metrics.counter("fault.leader_elections"), 0);
  EXPECT_EQ(stats.timeline.size(), 0u);
  for (const auto& [name, value] : stats.metrics.counters) {
    EXPECT_TRUE(name.rfind("fault.", 0) != 0) << name;
  }
}

}  // namespace
}  // namespace natto
