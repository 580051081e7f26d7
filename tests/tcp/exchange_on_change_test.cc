// Exchange on change (DESIGN.md §6): an endpoint's exchange timer parks once
// neither side has changed anything for a whole interval and resumes on the
// next change. Parking must not cost loss recovery the duplicate acks the
// receiver's exchange pure acks provide, nor the estimator decodable wire
// deltas across long silences.

#include <gtest/gtest.h>

#include <optional>

#include "src/testbed/topology.h"

namespace e2e {
namespace {

MessageRecord Rec(uint64_t id) {
  MessageRecord record;
  record.id = id;
  return record;
}

// A client/server pair whose server answers every request with 100 bytes
// and whose client reads every response, both from their app cores.
class EchoPair {
 public:
  EchoPair(TwoHostTopology& topo, const TcpConfig& tcp)
      : topo_(topo), conn_(topo.Connect(1, tcp, tcp)) {
    conn_.b->SetReadableCallback([this] {
      topo_.server_host().app_core().SubmitFixed(Duration::Micros(2), [this] {
        for (const MessageRecord& msg : conn_.b->Recv().messages) {
          conn_.b->Send(100, Rec(msg.id + 1000));
        }
      });
    });
    conn_.a->SetReadableCallback([this] {
      topo_.client_host().app_core().SubmitFixed(Duration::Micros(1), [this] {
        responses_ += conn_.a->Recv().messages.size();
      });
    });
  }

  // Issues one 500-byte request at absolute time `at`.
  void RequestAt(TimePoint at, uint64_t id) {
    topo_.sim().ScheduleAt(at, [this, id] {
      topo_.client_host().app_core().SubmitFixed(Duration::Micros(1),
                                                 [this, id] { conn_.a->Send(500, Rec(id)); });
    });
  }

  TcpEndpoint& client() { return *conn_.a; }
  TcpEndpoint& server() { return *conn_.b; }
  size_t responses() const { return responses_; }

 private:
  TwoHostTopology& topo_;
  ConnectedPair conn_;
  size_t responses_ = 0;
};

TimePoint At(Duration d) { return TimePoint::Zero() + d; }

TEST(ExchangeOnChangeTest, UnusedConnectionNeverExchanges) {
  // Both sides already know each other's construction state (every
  // counter zero), so a connection that carries no traffic has nothing
  // to report: a fleet of idle connections costs no packets.
  TwoHostTopology topo;
  TcpConfig tcp;
  tcp.e2e_exchange_interval = Duration::Millis(10);
  ConnectedPair conn = topo.Connect(1, tcp, tcp);
  topo.sim().RunFor(Duration::Seconds(1));
  EXPECT_EQ(conn.a->stats().exchanges_sent, 0u);
  EXPECT_EQ(conn.b->stats().exchanges_sent, 0u);
  EXPECT_EQ(conn.a->stats().wire_packets_sent + conn.a->stats().pure_acks_sent, 0u);
  EXPECT_EQ(conn.b->stats().wire_packets_sent + conn.b->stats().pure_acks_sent, 0u);
}

TEST(ExchangeOnChangeTest, IdlePairGoesQuietAfterItsLastRequest) {
  TwoHostTopology topo;
  TcpConfig tcp;
  tcp.nodelay = true;
  tcp.e2e_exchange_interval = Duration::Millis(10);
  EchoPair pair(topo, tcp);
  pair.RequestAt(At(Duration::Millis(1)), 1);
  // Past the response and the client's 40 ms delayed ack: the last change.
  topo.sim().RunUntil(At(Duration::Millis(50)));
  ASSERT_EQ(pair.responses(), 1u);
  const uint64_t client_before = pair.client().stats().exchanges_sent;
  const uint64_t server_before = pair.server().stats().exchanges_sent;

  // A clock-driven exchange would send 100 per endpoint in this second.
  topo.sim().RunFor(Duration::Seconds(1));
  EXPECT_LE(pair.client().stats().exchanges_sent - client_before, 2u);
  EXPECT_LE(pair.server().stats().exchanges_sent - server_before, 2u);

  // The next change resumes the exchange, and its first payload covers the
  // silence exactly: accepted, and the interval yields a valid estimate.
  std::optional<TimePoint> valid_at;
  pair.server().SetEstimateCallback([&](const ConnectionEstimator& est) {
    if (est.has_estimate()) {
      valid_at = topo.sim().Now();
    }
  });
  const TimePoint resume = topo.sim().Now();
  pair.RequestAt(resume + Duration::Millis(1), 2);
  topo.sim().RunFor(Duration::Millis(100));
  EXPECT_EQ(pair.responses(), 2u);
  ASSERT_TRUE(valid_at.has_value());
  EXPECT_GT(*valid_at, resume);
  EXPECT_EQ(pair.client().estimator().rejected_payloads(), 0u);
  EXPECT_EQ(pair.server().estimator().rejected_payloads(), 0u);
}

TEST(ExchangeOnChangeTest, CumackTailLossIsRepairedBeforeTheRtoCouldFire) {
  // Both sides park during a quiet spell; then the client's next message,
  // the only segment in flight, is lost. Its exchange pure acks tell the
  // server that the client's queues are moving, so the server resumes its
  // own exchanges, and those pure acks are the duplicate acks that
  // fast-retransmit the tail. An endpoint that parked on local idleness
  // alone would leave the repair to the 200 ms minimum RTO.
  const TimePoint lost_at = At(Duration::Millis(30));
  TopologyConfig config;
  LinkScheduleStep drop;
  drop.at = lost_at;
  drop.loss_probability = 0.999999;  // The loss model requires p < 1.
  LinkScheduleStep heal;
  heal.at = lost_at + Duration::Micros(50);
  heal.loss_probability = 0.0;
  config.c2s_impairment.schedule.Add(drop).Add(heal);
  TwoHostTopology topo(config);
  TcpConfig tcp;  // Cumulative acks only: no SACK, no RACK/TLP.
  tcp.nodelay = true;
  ConnectedPair conn = topo.Connect(1, tcp, tcp);
  uint64_t delivered = 0;
  conn.b->SetReadableCallback([&] {
    topo.server_host().app_core().SubmitFixed(Duration::Micros(1),
                                              [&] { delivered += conn.b->Recv().bytes; });
  });
  const auto send_at = [&](TimePoint at, uint64_t bytes) {
    topo.sim().ScheduleAt(at, [&, bytes] {
      topo.client_host().app_core().SubmitFixed(Duration::Micros(1),
                                                [&, bytes] { conn.a->Send(bytes, Rec(1)); });
    });
  };
  send_at(At(Duration::Millis(1)), 4 * 1448);  // Acked at once (>= 2 MSS).
  send_at(lost_at, 300);

  topo.sim().RunUntil(lost_at - Duration::Millis(5));
  ASSERT_EQ(delivered, 4u * 1448);
  const uint64_t server_quiet = conn.b->stats().exchanges_sent;
  topo.sim().RunUntil(lost_at);
  EXPECT_EQ(conn.b->stats().exchanges_sent, server_quiet);  // Parked.

  topo.sim().RunUntil(lost_at + Duration::Millis(100));
  EXPECT_EQ(topo.client_to_server_link().packets_dropped(), 1u);
  EXPECT_EQ(delivered, 4u * 1448 + 300);
  EXPECT_GE(conn.a->stats().retransmits, 1u);
  EXPECT_EQ(conn.a->stats().rto_fires, 0u);
}

TEST(ExchangeOnChangeTest, FortyMinuteSilenceStaysDecodable) {
  // The wire clock wraps every 2^32 us; a delta above 2^31 us (~36 min)
  // reads as a wrap violation, and a rejected payload does not advance
  // the snapshot pair, so one bad gap would lock the estimator out. A
  // parked timer therefore still exchanges once per half that range.
  TwoHostTopology topo;
  TcpConfig tcp;
  tcp.nodelay = true;
  tcp.e2e_exchange_interval = Duration::Millis(10);
  EchoPair pair(topo, tcp);
  pair.RequestAt(At(Duration::Millis(1)), 1);
  topo.sim().RunUntil(At(Duration::Seconds(1)));
  const uint64_t idle_exchanges = pair.client().stats().exchanges_sent;

  const TimePoint resume = At(Duration::Seconds(40 * 60));
  std::optional<TimePoint> valid_at;
  pair.server().SetEstimateCallback([&](const ConnectionEstimator& est) {
    if (est.has_estimate()) {
      valid_at = topo.sim().Now();
    }
  });
  pair.RequestAt(resume, 2);
  topo.sim().RunUntil(resume - Duration::Millis(1));
  // Two refreshes (~17.9 and ~35.8 min) instead of 240,000 clock ticks.
  EXPECT_EQ(pair.client().stats().exchanges_sent - idle_exchanges, 2u);

  topo.sim().RunUntil(resume + Duration::Millis(100));
  EXPECT_EQ(pair.responses(), 2u);
  EXPECT_EQ(pair.client().estimator().rejected_payloads(), 0u);
  EXPECT_EQ(pair.server().estimator().rejected_payloads(), 0u);
  ASSERT_TRUE(valid_at.has_value());
  EXPECT_GE(*valid_at, resume);
}

}  // namespace
}  // namespace e2e
