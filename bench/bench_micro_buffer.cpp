// Microbenchmarks: BufferStore insert / lookup / eviction ns-per-op
// (google-benchmark). The store is the per-member hot path of every
// experiment — each received message is admitted once, each repair request
// is a lookup, and under a budget every admission may run the eviction
// protocol.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "buffer/buffer_everything.h"
#include "buffer/coordination.h"
#include "buffer/fixed_time.h"
#include "buffer/store.h"
#include "common/random.h"
#include "sim/simulator.h"

namespace {

using namespace rrmp;

/// Minimal PolicyEnv over a private simulator (mirrors the endpoint's).
class BenchEnv final : public buffer::PolicyEnv {
 public:
  TimePoint now() const override { return sim_.now(); }
  std::uint64_t schedule(Duration d, sim::Callback fn) override {
    return sim_.schedule_after(d, std::move(fn)).value;
  }
  void cancel(std::uint64_t timer) override {
    sim_.cancel(sim::TimerId{timer});
  }
  RandomEngine& rng() override { return rng_; }
  std::size_t region_size() const override { return members_.size(); }
  const std::vector<MemberId>& region_members() const override {
    return members_;
  }
  MemberId self() const override { return 0; }

 private:
  mutable sim::Simulator sim_;
  RandomEngine rng_{1};
  std::vector<MemberId> members_ = {0, 1, 2, 3, 4, 5, 6, 7};
};

proto::Data data_of(std::uint64_t seq, const std::vector<std::uint8_t>& p) {
  return proto::Data{MessageId{1, seq}, p};
}

void BM_StoreInsertErase(benchmark::State& state) {
  // Insert + erase one id with the store held at `range` resident entries:
  // the flat storage's shift cost at realistic occupancies.
  BenchEnv env;
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>());
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t q = 1; q <= n; ++q) store.store(data_of(q * 2, payload));
  std::uint64_t probe = 1;  // odd seqs interleave with the resident evens
  for (auto _ : state) {
    store.store(data_of(probe, payload));
    store.force_discard(MessageId{1, probe});
    probe = (probe + 2) % (2 * n) | 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsertErase)->Arg(16)->Arg(256)->Arg(4096);

void BM_StoreLookupHit(benchmark::State& state) {
  BenchEnv env;
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>());
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t q = 1; q <= n; ++q) store.store(data_of(q, payload));
  std::uint64_t probe = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    probe = probe % n + 1;
    auto d = store.get(MessageId{1, probe});
    hits += d.has_value();
    benchmark::DoNotOptimize(d);
  }
  if (hits == 0) state.SkipWithError("lookups missed");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreLookupHit)->Arg(16)->Arg(256)->Arg(4096);

void BM_StoreAdmitEvictSteadyState(benchmark::State& state) {
  // Fully budgeted admission: every insert runs the eviction protocol
  // (pick_victims scan + discard of the LRU victim) at `range` occupancy.
  BenchEnv env;
  buffer::BufferStore store(
      std::make_unique<buffer::BufferEverythingPolicy>(),
      buffer::BufferBudget{0, static_cast<std::size_t>(state.range(0))});
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  std::uint64_t seq = 0;
  // Pre-fill to the cap so every measured insert evicts (google-benchmark's
  // 1-iteration calibration run would otherwise never reach the budget).
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    store.store(data_of(++seq, payload));
  }
  for (auto _ : state) {
    store.store(data_of(++seq, payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAdmitEvictSteadyState)->Arg(16)->Arg(256);

void BM_StoreAdmitEvictWithTimers(benchmark::State& state) {
  // Same, with a timer-arming policy: eviction must also cancel the
  // victim's pending TTL timer (the slab-handle path).
  BenchEnv env;
  buffer::BufferStore store(
      std::make_unique<buffer::FixedTimePolicy>(Duration::seconds(3600)),
      buffer::BufferBudget{0, static_cast<std::size_t>(state.range(0))});
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  std::uint64_t seq = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    store.store(data_of(++seq, payload));
  }
  for (auto _ : state) {
    store.store(data_of(++seq, payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAdmitEvictWithTimers)->Arg(16)->Arg(256);

void BM_StoreAdmitEvictCoordinated(benchmark::State& state) {
  // Cooperative-budget admission: a 64-entry budget with coordination on
  // and 31 region peers advertising fragmented digests (runs of two with
  // one-seq gaps, shifted per peer), so every insert ranks all 64 entries
  // against every peer's ranges before evicting one. Admissions cycle
  // through an id space four budgets wide, skipping ids still buffered, so
  // every measured insert evicts against the same static digests.
  constexpr std::size_t kBudget = 64;
  constexpr MemberId kPeers = 31;
  constexpr std::uint64_t kSpan = 4 * kBudget;
  BenchEnv env;
  buffer::CoordinationParams coord;
  coord.enabled = true;
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>(),
                            buffer::BufferBudget{0, kBudget}, coord);
  store.bind(&env);
  for (MemberId peer = 1; peer <= kPeers; ++peer) {
    std::vector<proto::DigestRange> ranges;
    for (std::uint64_t seq = 1 + peer % 3; seq + 1 <= kSpan; seq += 3) {
      ranges.push_back({1, seq, 2});
    }
    store.update_digest(peer, 0, ranges);
  }
  std::vector<std::uint8_t> payload(256, 1);
  std::vector<proto::Data> msgs;
  for (std::uint64_t seq = 1; seq <= kSpan; ++seq) {
    msgs.push_back(data_of(seq, payload));
  }
  std::uint64_t seq = 0;
  auto next_absent = [&] {
    do {
      seq = seq % kSpan + 1;
    } while (store.has(MessageId{1, seq}));
    return seq;
  };
  for (std::size_t i = 0; i < kBudget; ++i) store.store(msgs[next_absent() - 1]);
  std::uint64_t evicted = store.stats().evicted;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.store(msgs[next_absent() - 1]));
  }
  if (store.stats().evicted - evicted !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("an admission did not evict");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAdmitEvictCoordinated);

void BM_DigestRefreshChanged(benchmark::State& state) {
  // The digest receive path when the advertisement changed: a 64-entry
  // store and 31 peers advertising fragmented digests (as above), where
  // each iteration refreshes one peer with its window shifted by one seq
  // (alternately up and down, so the state stays bounded). The run count is
  // unchanged but the held set differs, so every refresh rebuilds the
  // canonical runs and recounts the entries whose held state flipped.
  constexpr std::size_t kBudget = 64;
  constexpr MemberId kPeers = 31;
  constexpr std::uint64_t kSpan = 4 * kBudget;
  BenchEnv env;
  buffer::CoordinationParams coord;
  coord.enabled = true;
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>(),
                            buffer::BufferBudget{0, kBudget}, coord);
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  for (std::uint64_t seq = 1; seq <= kBudget; ++seq) {
    store.store(data_of(seq, payload));
  }
  std::vector<std::vector<proto::DigestRange>> digests(kPeers);
  for (MemberId peer = 1; peer <= kPeers; ++peer) {
    std::vector<proto::DigestRange>& ranges = digests[peer - 1];
    for (std::uint64_t seq = 1 + peer % 3; seq + 1 <= kSpan; seq += 3) {
      ranges.push_back({1, seq, 2});
    }
    store.update_digest(peer, 0, ranges);
  }
  std::uint64_t round = 0;
  for (auto _ : state) {
    const MemberId peer = static_cast<MemberId>(round % kPeers);
    const bool up = (round / kPeers) % 2 == 0;
    for (proto::DigestRange& r : digests[peer]) r.first_seq += up ? 1 : -1;
    store.update_digest(peer + 1, 0, digests[peer]);
    ++round;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DigestRefreshChanged);

}  // namespace

BENCHMARK_MAIN();
