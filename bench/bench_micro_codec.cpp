// Microbenchmarks: wire codec throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include "proto/codec.h"

namespace {

using namespace rrmp;

proto::Message make_data(std::size_t payload) {
  return proto::Data{MessageId{7, 42},
                     std::vector<std::uint8_t>(payload, 0x5A)};
}

void BM_EncodeData(benchmark::State& state) {
  proto::Message m = make_data(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto buf = proto::encode(m);
    bytes += buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeData)->Arg(64)->Arg(1024)->Arg(8192);

void BM_DecodeData(benchmark::State& state) {
  auto buf = proto::encode(make_data(static_cast<std::size_t>(state.range(0))));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto m = proto::decode(buf);
    bytes += buf.size();
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DecodeData)->Arg(64)->Arg(1024)->Arg(8192);

void BM_EncodeDecodeGossip(benchmark::State& state) {
  proto::Gossip g;
  g.from = 1;
  for (std::uint32_t i = 0; i < state.range(0); ++i) {
    g.beats.push_back(proto::Heartbeat{i, i * 17u});
  }
  proto::Message m{g};
  for (auto _ : state) {
    auto decoded = proto::decode(proto::encode(m));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_EncodeDecodeGossip)->Arg(16)->Arg(128)->Arg(1024);

void BM_EncodeHistory(benchmark::State& state) {
  proto::History h;
  h.member = 3;
  proto::SourceHistory sh;
  sh.source = 0;
  sh.next_expected = 1000;
  sh.bitmap.assign(static_cast<std::size_t>(state.range(0)), ~0ULL);
  h.sources.push_back(sh);
  proto::Message m{h};
  for (auto _ : state) {
    auto buf = proto::encode(m);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_EncodeHistory)->Arg(1)->Arg(16)->Arg(64);

// One round trip of each of the 15 frame types per iteration, so every
// field kind (fixed ints, varints, blobs, repeated and nested fields, both
// optional trailing fields) is timed, not just the Data path.
void BM_EncodeDecodeEveryType(benchmark::State& state) {
  proto::Data data{MessageId{7, 42}, std::vector<std::uint8_t>(64, 0x5A),
                   {{1, 300}, {2, 9}}};
  proto::BufferDigest digest{3, 1u << 20, 4, {{1, 5, 127}, {2, 1, 128}}};
  digest.view_gen = 2;
  proto::CreditAck ack{5, 1u << 20, 1u << 21, {{1, 127}, {2, 128}}};
  ack.view_gen = 3;
  const std::vector<proto::Message> msgs = {
      data,
      proto::Session{7, 1ULL << 40, {{1, 5}}},
      proto::LocalRequest{MessageId{3, 4}, 9},
      proto::RemoteRequest{MessageId{3, 4}, 9},
      proto::Repair{MessageId{5, 6}, std::vector<std::uint8_t>(64, 1), true},
      proto::RegionalRepair{MessageId{5, 6}, std::vector<std::uint8_t>(64, 2), 2},
      proto::SearchRequest{MessageId{7, 8}, 1},
      proto::SearchFound{MessageId{7, 8}, 1},
      proto::Handoff{{proto::Data{MessageId{1, 1}, {1, 2, 3}},
                      proto::Data{MessageId{1, 2}, {4, 5, 6}}}},
      proto::Gossip{1, {{2, 3}, {4, 5}, {6, 7}}},
      proto::History{1, {proto::SourceHistory{2, 10, {0xFF, 0x00}}}},
      digest,
      proto::Shed{4, proto::Data{MessageId{1, 2}, {7, 8, 9}}},
      ack,
      proto::Escalate{MessageId{12, 999}, 5, 2},
  };
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const proto::Message& m : msgs) {
      auto wire = proto::encode(m);
      auto decoded = proto::decode(wire);
      bytes += wire.size();
      benchmark::DoNotOptimize(decoded);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeDecodeEveryType);

}  // namespace

BENCHMARK_MAIN();
