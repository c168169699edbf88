// The benchmark's correctness checks must be able to fail: each is fed a
// violating input here, next to one it must accept. The streamed city is
// also checked against the determinism contract the city-stream workload
// relies on (identical results at one and two threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/checks.hpp"
#include "src/core/engine.hpp"
#include "src/core/scenario.hpp"
#include "src/core/sharded_engine.hpp"
#include "src/obs/events.hpp"
#include "src/probes.hpp"
#include "src/trace/citygen.hpp"
#include "src/trace/streaming.hpp"

namespace perfbench {
namespace {

using hdtn::FileId;
using hdtn::kDay;
using hdtn::kHour;
using hdtn::kTimeInfinity;
using hdtn::NodeId;
using hdtn::core::EngineResult;
using hdtn::core::EngineTotals;
using hdtn::obs::SimEventType;
using hdtn::trace::Contact;

Contact contact(hdtn::SimTime start, std::vector<std::uint32_t> members) {
  Contact c;
  c.start = start;
  c.end = start + 60;
  for (std::uint32_t m : members) c.members.push_back(NodeId(m));
  return c;
}

TEST(CheckFedProcessed, FailsOnAMismatch) {
  EXPECT_TRUE(checkFedProcessed(1120, 1120).empty());
  EXPECT_EQ(checkFedProcessed(1120, 1119).size(), 1u);
}

TEST(CheckFilesPublished, CountsOnePublicationPerDayBeforeTheEnd) {
  EXPECT_EQ(publicationInstants(0), 0u);
  EXPECT_EQ(publicationInstants(14 * kHour), 0u);
  EXPECT_EQ(publicationInstants(14 * kHour + 1), 1u);
  EXPECT_EQ(publicationInstants(2 * kDay), 2u);
  EXPECT_EQ(publicationInstants(13 * kDay + 14 * kHour + 1), 14u);
  EXPECT_TRUE(checkFilesPublished(80, 40, 2 * kDay).empty());
  EXPECT_EQ(checkFilesPublished(120, 40, 2 * kDay).size(), 1u);
}

TEST(CheckCodedInvariants, FailsOnTooFewInnovativeFrames) {
  EngineTotals t;
  t.generationsDecoded = 10;
  t.codedInnovativeFrames = 80;
  EXPECT_TRUE(checkCodedInvariants(t, 8).empty());
  t.codedInnovativeFrames = 79;
  EXPECT_EQ(checkCodedInvariants(t, 8).size(), 1u);
}

TEST(CheckCodedInvariants, FailsOnAPollutedDelivery) {
  EngineTotals t;
  t.pollutedDeliveries = 1;
  EXPECT_EQ(checkCodedInvariants(t, 8).size(), 1u);
}

TEST(CheckSameResult, FailsWhenACounterOrAReportDiffers) {
  EngineResult a;
  a.totals.contactsProcessed = 5;
  a.delivery.filesDelivered = 3;
  EngineResult b = a;
  EXPECT_TRUE(checkSameResult(a, b).empty());
  EXPECT_EQ(resultDigest(a), resultDigest(b));

  b.totals.falseQuarantines = 1;  // the last counter is compared too
  EXPECT_EQ(checkSameResult(a, b).size(), 1u);
  EXPECT_NE(resultDigest(a), resultDigest(b));

  b = a;
  b.freeRiderDelivery.meanFileDelaySeconds = 1.5;
  EXPECT_EQ(checkSameResult(a, b).size(), 1u);
  EXPECT_NE(resultDigest(a), resultDigest(b));
}

TEST(CheckEventCounts, FailsWhenEventsAndTotalsDisagree) {
  EventCounts counts(hdtn::obs::kSimEventTypeCount, 0);
  EngineTotals t;
  counts[static_cast<std::size_t>(SimEventType::kContactBegin)] = 4;
  counts[static_cast<std::size_t>(SimEventType::kContactEnd)] = 4;
  counts[static_cast<std::size_t>(SimEventType::kCodedBroadcast)] = 7;
  t.contactsProcessed = 4;
  t.codedBroadcasts = 7;
  t.pieceBroadcasts = 7;
  EXPECT_TRUE(checkEventCounts(counts, t).empty());
  counts[static_cast<std::size_t>(SimEventType::kContactEnd)] = 3;
  EXPECT_EQ(checkEventCounts(counts, t).size(), 1u);
}

TEST(ArrivalOracle, FollowsTimeRespectingPaths) {
  // Node 0 is the source; the file appears at t=100 and expires at t=1000.
  ArrivalOracle oracle(4, {{FileId(0), 100, 1000}}, std::vector{NodeId(0)});
  oracle.addContact(contact(50, {0, 1}));   // before publication
  oracle.addContact(contact(150, {1, 2}));  // 1 has nothing yet
  oracle.addContact(contact(200, {0, 1}));  // 1 at 200
  oracle.addContact(contact(300, {1, 2}));  // 2 at 300
  oracle.addContact(contact(1000, {2, 3}));  // after expiry
  oracle.finish();
  EXPECT_EQ(oracle.arrival(FileId(0), NodeId(0)), 100);
  EXPECT_EQ(oracle.arrival(FileId(0), NodeId(1)), 200);
  EXPECT_EQ(oracle.arrival(FileId(0), NodeId(2)), 300);
  EXPECT_EQ(oracle.arrival(FileId(0), NodeId(3)), kTimeInfinity);
  EXPECT_EQ(oracle.arrival(FileId(9), NodeId(1)), kTimeInfinity);
}

TEST(ArrivalOracle, ChainsWithinOneInstantInAnyOrder) {
  ArrivalOracle oracle(3, {{FileId(0), 100, 1000}}, std::vector{NodeId(0)});
  // Sorted by members, the 1-2 contact comes first; the fixed point still
  // lets the file reach node 2 through node 1 at the same instant.
  oracle.addContact(contact(400, {1, 2}));
  oracle.addContact(contact(400, {0, 1}));
  oracle.finish();
  EXPECT_EQ(oracle.arrival(FileId(0), NodeId(2)), 400);
}

TEST(CheckOracleBound, FailsOnADeliveryEarlierThanTheOracleAllows) {
  ArrivalOracle oracle(3, {{FileId(0), 100, 1000}}, std::vector{NodeId(0)});
  oracle.addContact(contact(200, {0, 1}));
  oracle.finish();
  const std::vector<Delivery> fine = {{NodeId(1), FileId(0), 200},
                                      {NodeId(1), FileId(0), 250}};
  EXPECT_TRUE(checkOracleBound(fine, oracle).empty());
  const std::vector<Delivery> early = {{NodeId(1), FileId(0), 199}};
  EXPECT_EQ(checkOracleBound(early, oracle).size(), 1u);
  const std::vector<Delivery> unreachable = {{NodeId(2), FileId(0), 500}};
  EXPECT_EQ(checkOracleBound(unreachable, oracle).size(), 1u);
}

TEST(CheckOracleBound, HoldsOnARealRunAndCatchesAShiftedDelivery) {
  hdtn::core::TraceSpec spec;
  spec.family = "nus";
  spec.students = 60;
  spec.courses = 12;
  spec.days = 5;
  spec.seed = 7;
  std::string error;
  const std::optional<hdtn::trace::ContactTrace> trace = spec.build(&error);
  ASSERT_TRUE(trace) << error;
  hdtn::core::EngineParams params;
  params.seed = 7;
  hdtn::core::Engine engine(*trace, params);
  engine.run();

  std::vector<Delivery> deliveries;
  std::vector<TrackedFile> files;
  for (const auto& r : engine.metrics().records()) {
    if (r.fileAt) deliveries.push_back({r.owner, r.target, *r.fileAt});
  }
  for (FileId id : engine.internet().catalog().allFiles()) {
    const auto* info = engine.internet().catalog().find(id);
    files.push_back({id, info->publishedAt, info->expiresAt()});
  }
  const std::vector<NodeId> access = engine.accessNodes();
  ArrivalOracle oracle(trace->nodeCount(), files, access);
  for (const Contact& c : trace->contacts()) oracle.addContact(c);
  oracle.finish();
  EXPECT_TRUE(checkOracleBound(deliveries, oracle).empty());

  // Move one contact-borne delivery a second ahead of its bound.
  std::size_t shifted = deliveries.size();
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    const auto bound = oracle.arrival(deliveries[i].file, deliveries[i].owner);
    if (deliveries[i].at == bound &&
        std::find(access.begin(), access.end(), deliveries[i].owner) ==
            access.end()) {
      shifted = i;
      break;
    }
  }
  ASSERT_LT(shifted, deliveries.size());
  deliveries[shifted].at -= 1;
  EXPECT_EQ(checkOracleBound(deliveries, oracle).size(), 1u);
}

TEST(CountingStream, CountsSinceResetAndForwardsThePartitionHint) {
  hdtn::trace::CityParams city;
  city.nodes = 400;
  city.districts = 4;
  city.seed = 3;
  hdtn::trace::CityStream inner(city);
  CountingStream stream(inner, true);
  EXPECT_EQ(stream.partitionHint(), inner.partitionHint());
  std::uint64_t n = 0;
  while (stream.next()) ++n;
  EXPECT_GT(n, 0u);
  EXPECT_EQ(stream.contactsSinceReset(), n);
  stream.reset();
  EXPECT_EQ(stream.contactsSinceReset(), 0u);
  ASSERT_TRUE(stream.next());
  EXPECT_EQ(stream.contactsSinceReset(), 1u);
  EXPECT_EQ(stream.contactsTotal(), n + 1);
  EXPECT_GT(stream.seconds(), 0.0);
}

TEST(LayerObserver, SplitsEachContactIntoItsPhases) {
  LayerObserver observer;
  hdtn::obs::SimEvent e;
  for (SimEventType type :
       {SimEventType::kContactBegin, SimEventType::kDiscoveryPlanned,
        SimEventType::kMetadataBroadcast, SimEventType::kDownloadPlanned,
        SimEventType::kContactEnd, SimEventType::kContactBegin,
        SimEventType::kContactEnd}) {
    e.type = type;
    observer.onEvent(e);
  }
  EXPECT_EQ(observer.count(SimEventType::kContactBegin), 2u);
  EXPECT_EQ(observer.count(SimEventType::kMetadataBroadcast), 1u);
  EXPECT_GE(observer.prepareSeconds(), 0.0);
  EXPECT_GE(observer.discoverySeconds(), 0.0);
  EXPECT_GE(observer.downloadSeconds(), 0.0);
}

TEST(CityStreamDeterminism, SameResultAtOneAndTwoThreads) {
  hdtn::trace::CityParams city;
  city.nodes = 4000;
  city.districts = 8;
  city.days = 1;
  city.seed = 11;
  const auto run = [&](unsigned threads) {
    hdtn::trace::CityStream stream(city);
    hdtn::core::ShardedParams params;
    params.engine.protocol.kind = hdtn::core::ProtocolKind::kMbtQ;
    params.engine.seed = 11;
    params.threads = threads;
    // One scheduling group per district, so both threads step components.
    params.shards = city.districts;
    hdtn::core::ShardedEngine engine(stream, params);
    return engine.run();
  };
  const EngineResult one = run(1);
  EXPECT_GT(one.totals.contactsProcessed, 0u);
  EXPECT_TRUE(checkSameResult(one, run(2)).empty());
}

}  // namespace
}  // namespace perfbench
