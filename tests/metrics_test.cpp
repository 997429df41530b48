// Unit tests for the RecordingSink: event streams, first-repair tracking,
// per-id counters.
#include <gtest/gtest.h>

#include "rrmp/metrics.h"

namespace rrmp {
namespace {

MessageId id(std::uint64_t seq) { return MessageId{1, seq}; }
TimePoint at(std::int64_t ms) {
  return TimePoint::zero() + Duration::millis(ms);
}

TEST(RecordingSinkTest, DiscardWithoutStoreIsTolerated) {
  RecordingSink sink;
  sink.on_buffer_discarded(1, id(9), at(10), true);
  EXPECT_EQ(sink.counters().discards, 1u);
}

TEST(RecordingSinkTest, FirstRemoteRepairKeepsEarliest) {
  RecordingSink sink;
  EXPECT_EQ(sink.first_remote_repair(id(1)), TimePoint::max());
  sink.on_repair_sent(1, id(1), /*remote=*/true, at(30));
  sink.on_repair_sent(2, id(1), /*remote=*/true, at(20));
  sink.on_repair_sent(3, id(1), /*remote=*/true, at(40));
  EXPECT_EQ(sink.first_remote_repair(id(1)), at(20));
  // Local repairs do not count toward remote tracking.
  sink.on_repair_sent(4, id(2), /*remote=*/false, at(5));
  EXPECT_EQ(sink.first_remote_repair(id(2)), TimePoint::max());
  EXPECT_EQ(sink.counters().repairs_sent, 4u);
  EXPECT_EQ(sink.counters().remote_repairs_sent, 3u);
}

TEST(RecordingSinkTest, RequestCountersSplitLocalRemote) {
  RecordingSink sink;
  sink.on_request_sent(1, id(1), /*remote=*/false, at(1));
  sink.on_request_sent(1, id(1), /*remote=*/true, at(2));
  sink.on_request_sent(2, id(1), /*remote=*/true, at(3));
  EXPECT_EQ(sink.counters().local_requests_sent, 1u);
  EXPECT_EQ(sink.counters().remote_requests_sent, 2u);
  EXPECT_EQ(sink.remote_requests_for(id(1)), 2u);
  EXPECT_EQ(sink.remote_requests_for(id(2)), 0u);
}

TEST(RecordingSinkTest, RecoveryLatenciesAccumulate) {
  RecordingSink sink;
  sink.on_recovered(1, id(1), at(30), Duration::millis(12));
  sink.on_recovered(2, id(1), at(35), Duration::millis(18));
  ASSERT_EQ(sink.recovery_latencies().size(), 2u);
  EXPECT_EQ(sink.recovery_latencies()[0], Duration::millis(12));
  EXPECT_EQ(sink.counters().recoveries, 2u);
}

TEST(RecordingSinkTest, EventStreamsKeepOrderAndPayload) {
  RecordingSink sink;
  sink.on_delivered(5, id(2), at(7));
  sink.on_buffer_stored(5, id(2), at(7));
  sink.on_promoted_long_term(5, id(2), at(50));
  ASSERT_EQ(sink.deliveries().size(), 1u);
  EXPECT_EQ(sink.deliveries()[0].member, 5u);
  EXPECT_EQ(sink.deliveries()[0].at, at(7));
  ASSERT_EQ(sink.promotions().size(), 1u);
  EXPECT_EQ(sink.promotions()[0].at, at(50));
  EXPECT_EQ(sink.counters().long_term_promotions, 1u);
}

TEST(RecordingSinkTest, ClearResetsEverything) {
  RecordingSink sink;
  sink.on_delivered(1, id(1), at(1));
  sink.on_buffer_stored(1, id(1), at(1));
  sink.on_repair_sent(1, id(1), true, at(2));
  sink.clear();
  EXPECT_EQ(sink.counters().delivered, 0u);
  EXPECT_TRUE(sink.deliveries().empty());
  EXPECT_TRUE(sink.stores().empty());
  EXPECT_EQ(sink.first_remote_repair(id(1)), TimePoint::max());
}

TEST(NullSinkTest, AcceptsEverythingSilently) {
  NullSink sink;
  MetricsSink& base = sink;
  base.on_delivered(1, id(1), at(1));
  base.on_search_hop(1, 2, id(1), at(2));
  base.on_handoff_sent(1, 2, 3, at(3));
  SUCCEED();
}

}  // namespace
}  // namespace rrmp
