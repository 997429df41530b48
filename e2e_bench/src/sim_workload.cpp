// sim-budget-tree: a fixed scenario on the discrete-event simulator
// (harness::Cluster), repeated until the run's time is used up. The work is
// deterministic, so every repetition must fire the same events and make
// the same deliveries; only wall time may move.
#include <algorithm>
#include <memory>
#include <optional>

#include "harness/cluster.h"
#include "layers.h"
#include "proto/codec.h"
#include "stats.h"
#include "workload.h"

namespace e2e {
namespace {

using rrmp::Duration;
using rrmp::MessageId;
namespace harness = rrmp::harness;
namespace proto = rrmp::proto;

constexpr std::size_t kRegions = 6;
constexpr std::size_t kRegionSize = 32;
constexpr std::size_t kSenders = 4;          // root-region members 0..3
constexpr std::size_t kMessagesPerSender = 40;
constexpr std::size_t kPayloadBytes = 256;
constexpr std::size_t kBudgetPayloads = 64;  // per-member byte budget
constexpr double kLoss = 0.05;
const Duration kSendInterval = Duration::millis(2);
const Duration kDrain = Duration::millis(400);
constexpr int kMinReps = 3;
// Set-up takes well under a millisecond, and how long it takes drifts with
// what the rest of the host does over seconds; the timed builds are spread
// over the whole run, a few before every repetition.
constexpr int kSetupBuildsPerRep = 3;
constexpr std::int64_t kSetupWarmupNs = 100'000'000;

/// What one repetition observed. Everything except the timings must be
/// identical across repetitions and shard counts.
struct Rep {
  double wall_s = 0;  // first send to end of drain
  double cpu_s = 0;
  double run_for_s = 0;
  double multicast_s = 0;
  double peak_rss_mb = 0;  // resident high-water mark of the repetition
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t attempted = 0;
  double latency_sum_ms = 0;  // determinism witness
  std::vector<float> latency_ms;
  std::vector<float> repair_ms;
  std::vector<std::string> failures;
  std::optional<ProtocolTotals> totals;  // traced repetitions only

  bool same_work(const Rep& o) const {
    return events == o.events && delivered == o.delivered &&
           latency_sum_ms == o.latency_sum_ms;
  }
};

harness::ClusterConfig scenario(std::uint64_t seed, std::size_t shards) {
  harness::ClusterConfig cc;
  cc.region_sizes.assign(kRegions, kRegionSize);
  cc.parents = {0, 0, 0, 1, 1, 2};  // root, two children, three grandchildren
  cc.intra_rtt = Duration::millis(4);
  cc.inter_one_way = Duration::millis(10);
  cc.jitter = 0.1;
  cc.seed = derive_seed(seed, 2);
  cc.shards = shards;
  cc.protocol.hierarchy.enabled = true;
  cc.protocol.buffer_coordination.enabled = true;
  proto::Data probe{MessageId{0, 1}, rrmp::SharedBytes(std::vector<std::uint8_t>(kPayloadBytes))};
  cc.protocol.buffer_budget.max_bytes = kBudgetPayloads * proto::encoded_size(probe);
  cc.policy = rrmp::buffer::TwoPhaseParams{};
  return cc;
}

Rep run_rep(const Options& opt, std::size_t shards,
            std::vector<LayerTrace>* traces) {
  Rep rep;
  const DropSchedule drops{derive_seed(opt.seed, 1), kLoss};
  const std::uint64_t salt = derive_seed(opt.seed, 3);
  std::vector<MemberId> senders;
  for (MemberId s = 0; s < kSenders; ++s) senders.push_back(s);
  DeliveryBook book(kRegions * kRegionSize, senders, salt, drops);

  harness::Cluster cluster(scenario(opt.seed, shards));
  const std::size_t n = cluster.size();
  cluster.network().set_data_drop_fn(
      [drops](const proto::Message& msg, MemberId to) {
        const auto* d = std::get_if<proto::Data>(&msg);
        return d != nullptr && drops.drops(d->id.seq, to);
      });
  for (MemberId m = 0; m < n; ++m) {
    harness::SimHost& host = cluster.host(m);
    if (traces == nullptr) {
      cluster.endpoint(m).set_delivery_handler(
          [&book, &host, m](const proto::Data& d) {
            book.record(m, d, host.now().us() * 1000);
          });
      continue;
    }
    if (traces->size() < cluster.lane_count()) traces->resize(cluster.lane_count());
    LayerTrace* tr = &(*traces)[cluster.network().lane_of(m)];
    rrmp::Endpoint* ep = &cluster.endpoint(m);
    ep->set_delivery_handler([&book, &host, tr, m](const proto::Data& d) {
      if (d.id.source == m) return;  // inside multicast(), timed there
      std::int64_t now = mono_ns();
      book.record(m, d, host.now().us() * 1000);
      tr->check_ns += static_cast<std::uint64_t>(mono_ns() - now);
    });
    // Cluster's own receiver body (straight into handle_message), timed
    // per lane.
    host.set_receiver([ep, tr](const proto::Message& msg, MemberId from) {
      std::int64_t a = mono_ns();
      tr->on_callback(a, false);
      std::uint64_t check_before = tr->check_ns;
      ep->handle_message(msg, from);
      std::size_t kind = msg.index();
      ++tr->calls[kind];
      tr->handle_ns[kind] += static_cast<std::uint64_t>(mono_ns() - a) -
                             (tr->check_ns - check_before);
    });
  }

  std::vector<std::uint64_t> sent(kSenders, 0);
  std::uint64_t id_mismatches = 0;
  std::int64_t run_for_ns = 0, multicast_ns = 0;
  auto advance = [&](Duration d) {
    std::int64_t a = mono_ns();
    cluster.run_for(d);
    run_for_ns += mono_ns() - a;
  };

  double cpu0 = process_cpu_s();
  std::int64_t w0 = mono_ns();
  for (std::size_t k = 0; k < kMessagesPerSender; ++k) {
    for (std::size_t s = 0; s < kSenders; ++s) {
      std::uint64_t seq = ++sent[s];
      std::int64_t stamp = cluster.now().us() * 1000;
      std::vector<std::uint8_t> payload =
          make_payload(kPayloadBytes, stamp, salt, senders[s], seq);
      std::int64_t a = mono_ns();
      MessageId id = cluster.endpoint(senders[s]).multicast(std::move(payload));
      multicast_ns += mono_ns() - a;
      if (id.source != senders[s] || id.seq != seq) ++id_mismatches;
    }
    advance(kSendInterval);
  }
  advance(kDrain);
  rep.wall_s = static_cast<double>(mono_ns() - w0) * 1e-9;
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.run_for_s = static_cast<double>(run_for_ns) * 1e-9;
  rep.multicast_s = static_cast<double>(multicast_ns) * 1e-9;

  rep.events = cluster.events_fired();
  rep.delivered = book.delivered();
  rep.attempted = kSenders * kMessagesPerSender * (n - 1);
  rep.latency_ms = book.latencies();
  rep.repair_ms = book.repair_latencies();
  for (float v : rep.latency_ms) rep.latency_sum_ms += v;
  rep.failures = book.check(sent);
  // The network dropped exactly the pairs the benchmark's schedule names
  // (there is no other loss in the scenario), so repair classification
  // from outside is sound.
  const std::uint64_t scheduled = book.scheduled_drops(sent);
  const std::uint64_t dropped = cluster.network().stats().dropped;
  if (dropped != scheduled) {
    rep.failures.push_back("network dropped " + std::to_string(dropped) +
                           " transmissions for " + std::to_string(scheduled) +
                           " scheduled drops");
  }
  if (id_mismatches > 0) {
    rep.failures.push_back(std::to_string(id_mismatches) +
                           " multicast() ids differ from the expected sequence");
  }
  if (traces != nullptr) {
    ProtocolTotals t = protocol_totals(
        n, [&](MemberId m) -> const rrmp::Endpoint& { return cluster.endpoint(m); },
        cluster.metrics().counters());
    t.multicasts = kSenders * kMessagesPerSender;
    t.delivered = rep.delivered;
    rep.totals = t;
  }
  return rep;
}

}  // namespace

Outcome run_sim_budget_tree(const Options& opt) {
  Outcome out;
  std::vector<LayerTrace> traces;
  std::vector<LayerTrace>* tr = opt.traced ? &traces : nullptr;

  // Warm up with untimed builds, then run the scenario on fresh clusters,
  // timing a few set-up-only builds before each repetition.
  for (std::int64_t t0 = mono_ns(); mono_ns() - t0 < kSetupWarmupNs;) {
    harness::Cluster untimed(scenario(opt.seed, 2));
  }
  std::vector<double> setup;
  std::vector<Rep> reps;
  std::int64_t until = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (reps.size() < kMinReps || mono_ns() < until) {
    for (int i = 0; i < kSetupBuildsPerRep; ++i) {
      std::int64_t t0 = mono_ns();
      harness::Cluster cluster(scenario(opt.seed, 2));
      setup.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
    }
    reset_peak_rss();
    reps.push_back(run_rep(opt, 2, tr));
    reps.back().peak_rss_mb = peak_rss_mb();
  }
  const Rep& first = reps.front();

  // --- output checks ---------------------------------------------------------
  out.failures = first.failures;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (!reps[i].same_work(first)) {
      out.failures.push_back("repetition " + std::to_string(i) +
                             " differs from the first (events " +
                             std::to_string(reps[i].events) + " vs " +
                             std::to_string(first.events) + ")");
    }
  }
  if (!opt.traced) {
    // Shard-count determinism: one sequential repetition, untimed.
    Rep seq = run_rep(opt, 1, nullptr);
    if (!seq.same_work(first)) {
      out.failures.push_back("shards=1 differs from shards=2 (events " +
                             std::to_string(seq.events) + " vs " +
                             std::to_string(first.events) + ", deliveries " +
                             std::to_string(seq.delivered) + " vs " +
                             std::to_string(first.delivered) + ")");
    }
  }
  out.attempted = first.attempted;
  out.failed = first.attempted - std::min(first.attempted, first.delivered);

  // --- end-to-end metrics ----------------------------------------------------
  std::vector<double> wall, rate, cpu, rss;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    rss.push_back(r.peak_rss_mb);
    rate.push_back(static_cast<double>(r.delivered) / r.wall_s);
    cpu.push_back(ratio(r.cpu_s * 1e6, static_cast<double>(r.delivered)));
  }
  std::vector<float> lat = first.latency_ms;
  std::vector<float> rep = first.repair_ms;
  const std::string reps_basis = "median of " + std::to_string(reps.size()) + " repetitions";
  out.cpu_us_per_delivery = median(cpu);
  out.end_to_end = {
      {"setup_s", median(setup), "s",
       "median of " + std::to_string(setup.size()) + " builds"},
      {"delivered_per_s", median(rate), "1/s",
       std::to_string(first.delivered) + " deliveries per repetition, " + reps_basis},
      {"delivery_p50_ms", chunked_quantile(lat, 0.5), "ms",
       count_basis(lat.size(), 0.5) + ", simulated time"},
      {"delivery_p99_ms", chunked_quantile(lat, 0.99), "ms",
       count_basis(lat.size(), 0.99) + ", simulated time"},
      {"cpu_us_per_delivery", out.cpu_us_per_delivery, "us", reps_basis},
      {"peak_rss_mb", median(rss), "MB", reps_basis + "' high-water marks"},
  };
  out.untraced_layers = {
      {"repair_p50_ms", chunked_quantile(rep, 0.5), "ms",
       count_basis(rep.size(), 0.5) + ", simulated time"},
      {"repair_p99_ms", chunked_quantile(rep, 0.99), "ms",
       count_basis(rep.size(), 0.99) + ", simulated time"},
      {"undelivered_share",
       ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
       "ratio",
       std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
           " pairs at the end of the scenario"},
      {"sim_wall_s", median(wall), "s", reps_basis},
      {"harness.generator_lag_p99_ms", 0.0, "ms", "simulated sends are exact"},
  };
  out.notes.push_back(
      "members=" + std::to_string(kRegions * kRegionSize) + " regions=" +
      std::to_string(kRegions) + " shards=2 senders=" + std::to_string(kSenders) +
      " messages/sender=" + std::to_string(kMessagesPerSender) + " payload=" +
      std::to_string(kPayloadBytes) + "B budget=" + std::to_string(kBudgetPayloads) +
      " payloads loss=" + std::to_string(kLoss) + " events/repetition=" +
      std::to_string(first.events));

  if (!opt.traced) return out;

  // --- per-layer metrics (traced pass, summed over repetitions) -------------
  double run_for_s = 0, multicast_s = 0, wall_s = 0, cpu_s = 0;
  std::uint64_t events = 0, delivered = 0;
  for (const Rep& r : reps) {
    run_for_s += r.run_for_s;
    multicast_s += r.multicast_s;
    wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    events += r.events;
    delivered += r.delivered;
  }
  const std::size_t threads = threads_used(traces);
  add_layer_rows(out, traces,
                 run_for_s * static_cast<double>(threads) + (wall_s - run_for_s),
                 cpu_s, multicast_s, wall_s - run_for_s - multicast_s,
                 "engine residual (dispatch, timers, barriers)");
  out.notes.push_back("execution threads used by the lanes: " +
                      std::to_string(threads));
  const double residual_s = out.residual_s;
  const auto deliveries = static_cast<double>(delivered);

  auto& L = out.per_layer;
  L.push_back({"harness.worker_gap_p99_ms", 0.0, "ms", "no sockets"});
  L.push_back({"proto.decode_ns", 0.0, "ns", "no codec in the simulator"});
  append_dispatch_layers(L, traces, deliveries);
  L.push_back({"rrmp.multicast_ns",
               ratio(multicast_s * 1e9,
                     static_cast<double>(reps.size() * kSenders * kMessagesPerSender)),
               "ns", "per multicast() call"});
  L.push_back({"loop.residual_us_per_delivery", ratio(residual_s * 1e6, deliveries),
               "us", "residual row / deliveries"});
  L.push_back({"sim.residual_ns_per_event",
               ratio(residual_s * 1e9, static_cast<double>(events)), "ns",
               std::to_string(events) + " events"});
  L.push_back({"net.syscalls_per_delivery", 0.0, "ratio", "no sockets"});
  L.push_back({"net.datagrams_per_delivery", 0.0, "ratio", "no sockets"});
  L.push_back({"net.kernel_drop_share", 0.0, "ratio", "no sockets"});
  L.push_back({"net.ring_replacements", 0.0, "count", "no sockets"});
  append_protocol_layers(L, *reps.back().totals, 0.0);
  L.push_back({"sim.events", static_cast<double>(first.events), "count",
               "per repetition"});
  L.push_back({"sim.events_per_s", static_cast<double>(first.events) / median(wall),
               "1/s", reps_basis});
  return out;
}

}  // namespace e2e
