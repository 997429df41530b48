// Tests of the benchmark's own machinery: sample statistics, the seeded
// drop schedule and payload pattern, the delivery book's output checks,
// and repair classification against a real simulator run.
#include <gtest/gtest.h>

#include <numeric>

#include "harness/cluster.h"
#include "stats.h"
#include "workload.h"

namespace e2e {
namespace {

TEST(Stats, NearestRankQuantiles) {
  std::vector<int> v(1000);
  std::iota(v.begin(), v.end(), 1);  // 1..1000
  EXPECT_EQ(quantile(v, 0.5), 500);
  EXPECT_EQ(quantile(v, 0.99), 990);
  EXPECT_EQ(quantile(v, 1.0), 1000);
  std::vector<int> five = {5, 1, 4, 2, 3};
  EXPECT_EQ(median(five), 3);
  std::vector<int> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
  std::vector<int> one = {7};
  EXPECT_EQ(quantile(one, 0.99), 7);
}

TEST(Stats, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(quantile_rank(1000, 0.99), 990u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(20, 0.5));
  EXPECT_FALSE(tail_supported(19, 0.5));
  EXPECT_FALSE(tail_supported(0, 0.5));
  // Floating-point products just above an integer must not add a rank.
  EXPECT_EQ(quantile_rank(100, 0.29), 29u);
}

TEST(Stats, ChunkedQuantileKeepsTenBeyondPerChunk) {
  EXPECT_EQ(quantile_chunks(1000, 0.99), 1u);
  EXPECT_EQ(quantile_chunks(7750, 0.99), 7u);
  EXPECT_EQ(quantile_chunks(1'000'000, 0.99), 20u);
  EXPECT_EQ(quantile_chunks(100, 0.5), 5u);
  EXPECT_EQ(quantile_chunks(0, 0.5), 1u);
  for (std::size_t n : {1000u, 7750u, 100000u}) {
    std::size_t k = quantile_chunks(n, 0.99);
    EXPECT_TRUE(tail_supported(n / k, 0.99)) << n;
  }
  // One slow chunk moves a whole-sample p99 but not the chunked one.
  std::vector<int> v(10000, 1);
  for (int i = 0; i < 150; ++i) v[i] = 100;
  std::vector<int> copy = v;
  EXPECT_EQ(quantile(copy, 0.99), 100);
  EXPECT_EQ(chunked_quantile(v, 0.99), 1);
  std::vector<int> empty;
  EXPECT_EQ(chunked_quantile(empty, 0.5), 0.0);
}

TEST(Stats, RatioOfEmptyBaseIsZero) {
  EXPECT_EQ(ratio(5, 0), 0.0);
  EXPECT_EQ(ratio(1, 4), 0.25);
}

TEST(DropSchedule, DeterministicPerSeedAndNearItsRate) {
  DropSchedule a{derive_seed(1, 1), 0.05};
  DropSchedule b{derive_seed(1, 1), 0.05};
  DropSchedule c{derive_seed(2, 1), 0.05};
  int drops = 0, differ = 0;
  for (std::uint64_t seq = 1; seq <= 2000; ++seq) {
    for (MemberId m = 0; m < 50; ++m) {
      ASSERT_EQ(a.drops(seq, m), b.drops(seq, m));
      drops += a.drops(seq, m);
      differ += a.drops(seq, m) != c.drops(seq, m);
    }
  }
  EXPECT_NEAR(drops / 100000.0, 0.05, 0.005);
  EXPECT_GT(differ, 1000);  // another seed gives another schedule
  DropSchedule none{derive_seed(1, 1), 0.0};
  EXPECT_FALSE(none.drops(1, 1));
}

TEST(DropSchedule, DerivedStreamsAreIndependent) {
  EXPECT_EQ(derive_seed(3, 1), derive_seed(3, 1));
  EXPECT_NE(derive_seed(3, 1), derive_seed(3, 2));
  EXPECT_NE(derive_seed(3, 1), derive_seed(4, 1));
}

TEST(Payload, PatternRoundTripsAndDetectsCorruption) {
  for (std::size_t size : {8u, 13u, 64u, 1024u}) {
    std::vector<std::uint8_t> p = make_payload(size, 123456789, 42, 3, 17);
    ASSERT_EQ(p.size(), size);
    EXPECT_EQ(payload_stamp(p), 123456789);
    EXPECT_TRUE(payload_matches(p, 42, 3, 17));
    EXPECT_FALSE(size > kStampBytes && payload_matches(p, 42, 3, 18));
    EXPECT_FALSE(size > kStampBytes && payload_matches(p, 43, 3, 17));
    if (size > kStampBytes) {
      p.back() ^= 1;
      EXPECT_FALSE(payload_matches(p, 42, 3, 17));
    }
  }
  std::vector<std::uint8_t> tiny(4);
  EXPECT_FALSE(payload_matches(tiny, 42, 3, 17));
}

rrmp::proto::Data data(MemberId source, std::uint64_t seq, std::int64_t stamp,
                       std::uint64_t salt) {
  return rrmp::proto::Data{rrmp::MessageId{source, seq},
                           rrmp::SharedBytes(make_payload(64, stamp, salt, source, seq))};
}

TEST(DeliveryBook, ChecksDuplicatesUnknownAndCorruptDeliveries) {
  DeliveryBook book(4, {0}, 9, DropSchedule{});
  book.record(1, data(0, 1, 0, 9), 1'000'000);
  book.record(1, data(0, 1, 0, 9), 2'000'000);  // duplicate
  book.record(2, data(3, 1, 0, 9), 1'000'000);  // 3 is not a sender
  book.record(2, data(0, 2, 0, 8), 1'000'000);  // wrong pattern
  book.record(3, data(0, 5, 0, 9), 1'000'000);  // seq 5 never sent
  book.record(0, data(0, 1, 0, 9), 0);          // sender's own: ignored
  std::vector<std::string> failures = book.check({2});
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_NE(failures[0].find("1 duplicate"), std::string::npos);
  EXPECT_NE(failures[1].find("2 deliveries of messages that were never sent"),
            std::string::npos);
  EXPECT_NE(failures[2].find("1 deliveries whose payload"), std::string::npos);
  EXPECT_EQ(book.delivered(), 3u);

  DeliveryBook clean(4, {0}, 9, DropSchedule{});
  for (MemberId m = 1; m < 4; ++m) clean.record(m, data(0, 1, 0, 9), 5);
  EXPECT_TRUE(clean.check({1}).empty());
}

TEST(DeliveryBook, WindowSelectsMeasuredSetAndThroughput) {
  DeliveryBook book(3, {0}, 9, DropSchedule{});
  book.set_window(100, 200);
  book.record(1, data(0, 1, 50, 9), 150);   // sent before: not measured
  book.record(1, data(0, 2, 120, 9), 180);  // measured, in window
  book.record(1, data(0, 3, 190, 9), 260);  // measured, delivered after
  book.record(2, data(0, 2, 120, 9), 130);  // measured, in window
  EXPECT_EQ(book.measured_delivered(), 3u);
  EXPECT_EQ(book.in_window(), 3u);
  std::vector<float> lat = book.latencies();  // send order, stable
  ASSERT_EQ(lat.size(), 3u);
  EXPECT_FLOAT_EQ(lat[0], 60e-6f);
  EXPECT_FLOAT_EQ(lat[1], 10e-6f);
  EXPECT_FLOAT_EQ(lat[2], 70e-6f);
}

TEST(DeliveryBook, RepairIffTheScheduleDroppedThePair) {
  DropSchedule drops{derive_seed(5, 1), 0.3};
  DeliveryBook book(8, {0}, 9, drops);
  std::size_t expected = 0;
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    for (MemberId m = 1; m < 8; ++m) {
      EXPECT_EQ(book.is_repair(seq, m), drops.drops(seq, m));
      book.record(m, data(0, seq, 0, 9), 1000);
      expected += drops.drops(seq, m);
    }
  }
  EXPECT_EQ(book.repair_latencies().size(), expected);
  EXPECT_EQ(book.scheduled_drops({50}), expected);
}

// Outside-in classification against the simulator: with no latency jitter
// a pair the schedule kept arrives exactly one one-way latency after the
// send, and a pair it dropped can only arrive later, through recovery.
TEST(DeliveryBook, ClassificationMatchesSimulatedRecovery) {
  rrmp::harness::ClusterConfig cc;
  cc.region_sizes = {8};
  cc.intra_rtt = rrmp::Duration::millis(10);
  cc.seed = 11;
  rrmp::harness::Cluster cluster(cc);
  DropSchedule drops{derive_seed(11, 1), 0.3};
  cluster.network().set_data_drop_fn(
      [drops](const rrmp::proto::Message& msg, MemberId to) {
        const auto* d = std::get_if<rrmp::proto::Data>(&msg);
        return d != nullptr && drops.drops(d->id.seq, to);
      });
  DeliveryBook book(8, {0}, 9, drops);
  for (MemberId m = 0; m < 8; ++m) {
    rrmp::harness::SimHost& host = cluster.host(m);
    cluster.endpoint(m).set_delivery_handler(
        [&book, &host, m](const rrmp::proto::Data& d) {
          book.record(m, d, host.now().us() * 1000);
        });
  }
  const int kMessages = 30;
  for (int i = 1; i <= kMessages; ++i) {
    cluster.endpoint(0).multicast(
        make_payload(64, cluster.now().us() * 1000, 9, 0, i));
    cluster.run_for(rrmp::Duration::millis(3));
  }
  cluster.run_for(rrmp::Duration::seconds(2));

  const std::uint64_t dropped = book.scheduled_drops({kMessages});
  ASSERT_GT(dropped, 10u);
  // The network drops exactly the scheduled pairs: the premise of the
  // sim-budget-tree output check on the drop counter.
  EXPECT_EQ(cluster.network().stats().dropped, dropped);
  EXPECT_EQ(book.delivered(), static_cast<std::uint64_t>(kMessages) * 7);
  EXPECT_TRUE(book.check({kMessages}).empty());
  std::vector<float> repairs = book.repair_latencies();
  EXPECT_EQ(repairs.size(), dropped);
  for (float ms : repairs) EXPECT_GT(ms, 5.0f);
  std::size_t direct = 0;
  for (const MemberLog& log : book.logs()) {
    for (const LatencySample& s : log.latency) direct += (s.ms == 5.0f);
  }
  EXPECT_EQ(direct, book.delivered() - dropped);
}

}  // namespace
}  // namespace e2e
