// udp-flood and udp-lossy: the full protocol over harness::UdpRuntime on
// loopback sockets, driven and observed only through public APIs.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/logging.h"
#include "harness/udp_runtime.h"
#include "net/topology.h"
#include "proto/codec.h"
#include "layers.h"
#include "stats.h"
#include "workload.h"

namespace e2e {
namespace {

using rrmp::Duration;
using rrmp::MessageId;
namespace harness = rrmp::harness;
namespace proto = rrmp::proto;

struct UdpSpec {
  std::vector<std::size_t> regions;  // members per region
  std::size_t workers = 1;
  std::vector<MemberId> senders;
  bool flow = false;               // adaptive window + piggybacked cursors
  double loss = 0.0;               // drop-schedule rate on initial dissemination
  std::size_t payload_bytes = 64;
  double rate_per_s = 0.0;         // open loop, all senders combined; 0 = closed
  std::size_t queue_target = 0;    // closed loop: app-queue depth kept topped up
  std::uint16_t base_port = 0;
};

// Set-up takes well under a millisecond, and how long it takes drifts with
// what the rest of the host does over seconds; the timed builds are spread
// over the whole window, a few after every sub-window.
constexpr int kSetupBuildsPerSubWindow = 3;
constexpr std::int64_t kSetupWarmupNs = 100'000'000;
constexpr std::uint16_t kProbePortOffset = 500;
constexpr std::int64_t kWarmupNs = 1'000'000'000;
constexpr std::int64_t kFixedDrainNs = 500'000'000;
constexpr std::int64_t kFinalDrainNs = 4'000'000'000;
constexpr std::int64_t kSliceNs = 1'000'000;  // longest run_for() per turn
constexpr std::int64_t kSubWindowNs = 1'000'000'000;

std::unique_ptr<harness::UdpRuntime> build_runtime(
    const rrmp::net::Topology& topo, harness::UdpRuntimeConfig cfg) {
  // A port range somebody else holds only moves us along; the runtime
  // itself is what setup_s measures.
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_unique<harness::UdpRuntime>(topo, cfg);
    } catch (const std::runtime_error&) {
      if (attempt == 7) throw;
      cfg.base_port = static_cast<std::uint16_t>(cfg.base_port + 97);
    }
  }
}

struct BusCounters {
  std::uint64_t syscalls = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t ring_replacements = 0;
};

BusCounters bus_counters(harness::UdpRuntime& rt) {
  BusCounters c;
  for (std::size_t w = 0; w < rt.worker_count(); ++w) {
    rrmp::net::UdpBus& bus = rt.bus(w);
    c.syscalls +=
        bus.send_syscalls() + bus.recv_syscalls() + bus.poll_syscalls();
    c.sent += bus.datagrams_sent();
    c.received += bus.datagrams_received();
    c.ring_replacements += bus.ring_replacements();
  }
  return c;
}

Outcome run_udp(const UdpSpec& spec, const Options& opt) {
  Outcome out;
  rrmp::net::Topology topo = rrmp::net::make_hierarchy(
      spec.regions, Duration::millis(2), Duration::millis(4));
  const std::size_t n = topo.member_count();
  const DropSchedule drops{derive_seed(opt.seed, 1), spec.loss};
  const std::uint64_t salt = derive_seed(opt.seed, 3);

  harness::UdpRuntimeConfig cfg;
  cfg.base_port = spec.base_port;
  cfg.seed = derive_seed(opt.seed, 2);
  cfg.workers = spec.workers;
  cfg.emulate_latency = false;
  // Long-term copies expire, so buffer state (and the per-message cost of
  // keeping it) reaches a steady state instead of growing with the run.
  rrmp::buffer::TwoPhaseParams policy;
  policy.long_term_ttl = Duration::seconds(1);
  cfg.policy = policy;
  if (spec.flow) {
    cfg.protocol.flow.enabled = true;
    cfg.protocol.flow.adaptive = true;
    cfg.protocol.flow.piggyback = true;
  }
  if (spec.loss > 0) {
    cfg.drop_fn = [drops](std::uint64_t seq, MemberId to) {
      return drops.drops(seq, to);
    };
  }

  DeliveryBook book(n, spec.senders, salt, drops);
  std::vector<LayerTrace> traces;
  std::vector<std::size_t> worker_of(n, 0);
  bool tracing_window = false;  // flipped only between run_for() barriers

  // --- set-up --------------------------------------------------------------
  // Untimed builds first: the first ones in a fresh process also pay for
  // heap growth and a cold CPU, which no later build repeats. setup_s is
  // timed on probe builds spread over the measured window (below).
  for (std::int64_t t0 = mono_ns(); mono_ns() - t0 < kSetupWarmupNs;) {
    build_runtime(topo, cfg).reset();
  }
  std::unique_ptr<harness::UdpRuntime> rt = build_runtime(topo, cfg);
  for (MemberId m = 0; m < n; ++m) {
    worker_of[m] = rt->worker_of(m);
    if (opt.traced) {
      rt->endpoint(m).set_delivery_handler(
          [&book, &traces, &worker_of, m](const proto::Data& d) {
            // The sender's own delivery runs inside multicast(), which
            // the generator already times.
            if (d.id.source == m) return;
            std::int64_t now = mono_ns();
            book.record(m, d, now);
            traces[worker_of[m]].check_ns +=
                static_cast<std::uint64_t>(mono_ns() - now);
          });
    } else {
      rt->endpoint(m).set_delivery_handler(
          [&book, m](const proto::Data& d) { book.record(m, d, mono_ns()); });
    }
  }
  // A probe build is the same runtime on its own ports, with its handlers
  // attached, timed up to the point where a first send could go out.
  harness::UdpRuntimeConfig probe_cfg = cfg;
  probe_cfg.base_port = static_cast<std::uint16_t>(spec.base_port + kProbePortOffset);
  std::vector<double> setup_s;
  auto time_setup = [&] {
    std::int64_t t0 = mono_ns();
    std::unique_ptr<harness::UdpRuntime> probe = build_runtime(topo, probe_cfg);
    for (MemberId m = 0; m < n; ++m) {
      probe->endpoint(m).set_delivery_handler([](const proto::Data&) {});
    }
    setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
  };
  harness::UdpRuntime& runtime = *rt;
  const std::size_t workers = runtime.worker_count();

  if (opt.traced) {
    // The runtime's own receive body (decode_shared -> handle_message),
    // timed per worker.
    traces.resize(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      runtime.bus(w).set_receive_callback(
          [&runtime, &traces, &tracing_window, w](
              MemberId to, MemberId from, rrmp::SharedBytes bytes) {
            LayerTrace& tr = traces[w];
            std::int64_t t0 = mono_ns();
            tr.on_callback(t0, tracing_window);
            std::optional<proto::Message> msg = proto::decode_shared(bytes);
            std::int64_t t1 = mono_ns();
            ++tr.decode_calls;
            tr.decode_ns += static_cast<std::uint64_t>(t1 - t0);
            if (!msg) {
              rrmp::log::warn("UdpRuntime: dropping undecodable datagram (",
                              bytes.size(), " bytes)");
              return;
            }
            std::size_t kind = msg->index();
            std::uint64_t check_before = tr.check_ns;
            runtime.endpoint(to).handle_message(*msg, from);
            std::int64_t t2 = mono_ns();
            ++tr.calls[kind];
            tr.handle_ns[kind] +=
                static_cast<std::uint64_t>(t2 - t1) - (tr.check_ns - check_before);
          });
    }
  }

  // --- generator ------------------------------------------------------------
  const bool closed = spec.rate_per_s <= 0;
  std::vector<std::uint64_t> sent(spec.senders.size(), 0);
  std::uint64_t id_mismatches = 0;
  std::uint64_t measured_msgs = 0;
  std::int64_t multicast_ns = 0;  // inside Endpoint::multicast, in window
  std::int64_t run_for_ns = 0;    // inside UdpRuntime::run_for, in window
  std::vector<float> lag_ms;
  double window_sum = 0;
  std::uint64_t window_samples = 0;

  const std::int64_t start = mono_ns();
  const std::int64_t win_start = start + kWarmupNs;
  const std::int64_t win_end =
      win_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  book.set_window(win_start, win_end);

  auto send_one = [&](std::size_t s, std::int64_t stamp) {
    MemberId src = spec.senders[s];
    std::uint64_t seq = ++sent[s];
    std::vector<std::uint8_t> payload =
        make_payload(spec.payload_bytes, stamp, salt, src, seq);
    std::int64_t t0 = mono_ns();
    MessageId id = runtime.endpoint(src).multicast(std::move(payload));
    if (tracing_window) multicast_ns += mono_ns() - t0;
    if (id.source != src || id.seq != seq) ++id_mismatches;
    if (stamp >= win_start && stamp < win_end) ++measured_msgs;
  };
  auto run_slice = [&](std::int64_t ns) {
    std::int64_t t0 = mono_ns();
    runtime.run_for(Duration::micros(std::max<std::int64_t>(0, ns) / 1000));
    if (tracing_window) run_for_ns += mono_ns() - t0;
  };

  const double period_ns =
      closed ? 0 : 1e9 * static_cast<double>(spec.senders.size()) / spec.rate_per_s;
  std::vector<double> due(spec.senders.size());
  for (std::size_t s = 0; s < due.size(); ++s) {
    due[s] = static_cast<double>(start) +
             period_ns * static_cast<double>(s) / static_cast<double>(due.size());
  }

  auto drive = [&](std::int64_t until) {
    for (std::int64_t now = mono_ns(); now < until; now = mono_ns()) {
      if (closed) {
        rrmp::Endpoint& ep = runtime.endpoint(spec.senders[0]);
        while (ep.queued_sends() < spec.queue_target) send_one(0, mono_ns());
        if (tracing_window) {
          window_sum += ep.flow().current_window();
          ++window_samples;
        }
        run_slice(std::min(kSliceNs, until - now));
        continue;
      }
      double next = INFINITY;
      for (std::size_t s = 0; s < due.size(); ++s) {
        while (due[s] <= static_cast<double>(now)) {
          auto stamp = static_cast<std::int64_t>(due[s]);
          if (stamp >= win_start) {
            lag_ms.push_back(static_cast<float>(
                static_cast<double>(mono_ns() - stamp) * 1e-6));
          }
          send_one(s, stamp);
          due[s] += period_ns;
        }
        next = std::min(next, due[s]);
      }
      auto wake = static_cast<std::int64_t>(
          std::min(next, static_cast<double>(until)));
      run_slice(std::min(kSliceNs, wake - mono_ns()));
    }
  };

  drive(win_start);  // warm-up: AIMD ramp, lazy allocations, ring fill

  // --- measured window ---------------------------------------------------------
  for (LayerTrace& tr : traces) tr.reset();
  tracing_window = opt.traced;
  BusCounters bus0 = bus_counters(runtime);
  const double cpu0 = process_cpu_s();
  std::int64_t w0 = mono_ns();
  // The window runs as one-second sub-windows; throughput and CPU cost are
  // medians over them, so a few seconds of interference from elsewhere on
  // the host move one sub-window, not the reported figure.
  // Memory is the median of the sub-windows' resident high-water marks.
  std::vector<double> sub_rate, sub_cpu, sub_rss;
  for (std::int64_t sub = w0; sub < win_end;) {
    std::uint64_t d0 = book.in_window();
    double c0 = process_cpu_s();
    reset_peak_rss();
    drive(std::min(win_end, sub + kSubWindowNs));
    std::int64_t now = mono_ns();
    auto got = static_cast<double>(book.in_window() - d0);
    if (now - sub >= kSubWindowNs / 2) {
      sub_rate.push_back(got / (static_cast<double>(now - sub) * 1e-9));
      sub_cpu.push_back(ratio((process_cpu_s() - c0) * 1e6, got));
      sub_rss.push_back(peak_rss_mb());
    }
    // Between sub-windows, so the builds count in neither. Traced passes
    // skip them: their wall accounting covers the whole window.
    if (!opt.traced) {
      for (int i = 0; i < kSetupBuildsPerSubWindow; ++i) time_setup();
    }
    sub = mono_ns();
  }
  std::int64_t w1 = mono_ns();
  const double window_cpu_s = process_cpu_s() - cpu0;
  BusCounters bus1 = bus_counters(runtime);
  tracing_window = false;
  const double window_s = static_cast<double>(w1 - w0) * 1e-9;
  const std::uint64_t in_window = book.in_window();

  // --- drains ------------------------------------------------------------------
  // Same turn length as the generator so every worker gets the same
  // service it had while traffic flowed.
  std::uint64_t total_pairs = 0;
  for (std::uint64_t s : sent) total_pairs += s * (n - 1);
  const std::uint64_t measured_pairs = measured_msgs * (n - 1);
  std::int64_t drain_start = mono_ns();
  while (mono_ns() - drain_start < kFixedDrainNs) run_slice(kSliceNs);
  const std::uint64_t measured_missing =
      measured_pairs - std::min(measured_pairs, book.measured_delivered());
  while (book.delivered() < total_pairs &&
         mono_ns() - drain_start < kFinalDrainNs) {
    run_slice(kSliceNs);
  }
  const std::uint64_t delivered = book.delivered();
  out.attempted = total_pairs;
  out.failed = total_pairs - std::min(total_pairs, delivered);

  // --- output checks ---------------------------------------------------------
  out.failures = book.check(sent);
  if (id_mismatches > 0) {
    out.failures.push_back(std::to_string(id_mismatches) +
                           " multicast() ids differ from the expected sequence");
  }
  if (delivered > total_pairs) {
    out.failures.push_back("more deliveries than (message, receiver) pairs sent");
  }

  // --- end-to-end metrics ----------------------------------------------------
  std::vector<float> lat = book.latencies();
  std::vector<float> rep = book.repair_latencies();
  const std::size_t nlat = lat.size(), nrep = rep.size();
  out.cpu_us_per_delivery = median(sub_cpu);
  const std::string subs =
      "median of " + std::to_string(sub_rate.size()) + " one-second sub-windows";
  out.end_to_end = {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " builds"},
      {"delivered_per_s", median(sub_rate), "1/s",
       subs + "; " + std::to_string(in_window) + " deliveries in " +
           std::to_string(window_s) + " s"},
      {"delivery_p50_ms", chunked_quantile(lat, 0.5), "ms", count_basis(nlat, 0.5)},
      {"delivery_p99_ms", chunked_quantile(lat, 0.99), "ms", count_basis(nlat, 0.99)},
      {"cpu_us_per_delivery", out.cpu_us_per_delivery, "us", subs},
      {"peak_rss_mb", median(sub_rss), "MB", subs + "' high-water marks"},
  };
  out.untraced_layers = {
      {"repair_p50_ms", chunked_quantile(rep, 0.5), "ms", count_basis(nrep, 0.5)},
      {"repair_p99_ms", chunked_quantile(rep, 0.99), "ms", count_basis(nrep, 0.99)},
      {"undelivered_share",
       ratio(static_cast<double>(measured_missing),
             static_cast<double>(measured_pairs)),
       "ratio",
       std::to_string(measured_missing) + " of " +
           std::to_string(measured_pairs) + " pairs after a 0.5 s drain"},
      {"harness.generator_lag_p99_ms", closed ? 0.0 : chunked_quantile(lag_ms, 0.99),
       "ms", closed ? "closed loop: no schedule" : count_basis(lag_ms.size(), 0.99)},
      {"sim_wall_s", 0.0, "s", "no simulator"},
  };
  out.notes.push_back("members=" + std::to_string(n) + " workers=" +
                      std::to_string(workers) + " senders=" +
                      std::to_string(spec.senders.size()) + " payload=" +
                      std::to_string(spec.payload_bytes) + "B loss=" +
                      std::to_string(spec.loss) +
                      (closed ? " closed-loop queue=" +
                                    std::to_string(spec.queue_target)
                              : " open-loop rate=" +
                                    std::to_string(spec.rate_per_s) + "/s"));
  out.notes.push_back("final drain: " + std::to_string(delivered) + " of " +
                      std::to_string(total_pairs) + " pairs delivered");

  if (!opt.traced) return out;

  // --- per-layer metrics (traced pass) ---------------------------------------
  const auto deliveries = static_cast<double>(in_window);
  const std::size_t threads = threads_used(traces);
  const double capacity_s =
      static_cast<double>(run_for_ns) * 1e-9 * static_cast<double>(threads);
  const double multicast_s = static_cast<double>(multicast_ns) * 1e-9;
  const double generator_other_s =
      window_s - static_cast<double>(run_for_ns) * 1e-9 - multicast_s;
  add_layer_rows(out, traces,
                 capacity_s + window_s - static_cast<double>(run_for_ns) * 1e-9,
                 window_cpu_s, multicast_s, generator_other_s,
                 "loop residual (bus syscalls, timers, flush)");
  out.notes.push_back("execution threads used by " + std::to_string(workers) +
                      " worker loop(s): " + std::to_string(threads));

  double gap_p99 = 0;
  for (LayerTrace& tr : traces) {
    gap_p99 = std::max(gap_p99, quantile(tr.gaps_ms, 0.99));
  }
  std::uint64_t decode_calls = 0, decode_ns = 0;
  for (const LayerTrace& tr : traces) {
    decode_calls += tr.decode_calls;
    decode_ns += tr.decode_ns;
  }
  const double residual_s = out.residual_s;
  const BusCounters bus_end = bus_counters(runtime);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  auto& L = out.per_layer;
  L.push_back({"harness.worker_gap_p99_ms", gap_p99, "ms", "max over workers"});
  L.push_back({"proto.decode_ns", ratio(d(decode_ns), d(decode_calls)), "ns",
               std::to_string(decode_calls) + " calls"});
  append_dispatch_layers(L, traces, deliveries);
  L.push_back({"rrmp.multicast_ns",
               ratio(static_cast<double>(multicast_ns), d(measured_msgs)), "ns",
               std::to_string(measured_msgs) + " calls"});
  L.push_back({"loop.residual_us_per_delivery",
               ratio(residual_s * 1e6, deliveries), "us",
               "residual row / window deliveries"});
  L.push_back({"sim.residual_ns_per_event", 0.0, "ns", "no simulator"});
  L.push_back({"net.syscalls_per_delivery",
               ratio(d(bus1.syscalls - bus0.syscalls), deliveries), "ratio",
               "send+recv+poll in window"});
  L.push_back({"net.datagrams_per_delivery",
               ratio(d(bus1.sent - bus0.sent), deliveries), "ratio",
               "datagrams sent in window"});
  L.push_back({"net.kernel_drop_share",
               1.0 - ratio(d(bus_end.received), d(bus_end.sent)), "ratio",
               std::to_string(bus_end.sent) + " datagrams sent, whole pass"});
  L.push_back({"net.ring_replacements", d(bus_end.ring_replacements), "count",
               "whole pass"});
  ProtocolTotals totals = protocol_totals(
      n, [&](MemberId m) -> const rrmp::Endpoint& { return runtime.endpoint(m); },
      runtime.metrics().counters());
  for (std::uint64_t s : sent) totals.multicasts += s;
  totals.delivered = delivered;
  append_protocol_layers(
      L, totals, closed ? ratio(window_sum, d(window_samples)) : 0.0);
  L.push_back({"sim.events", 0.0, "count", "no simulator"});
  L.push_back({"sim.events_per_s", 0.0, "1/s", "no simulator"});
  return out;
}

}  // namespace

Outcome run_udp_flood(const Options& opt) {
  UdpSpec spec;
  spec.regions = {16, 16};
  spec.workers = 1;
  spec.senders = {0};
  spec.flow = true;
  spec.payload_bytes = 64;
  spec.queue_target = 8;
  spec.base_port = 41200;
  return run_udp(spec, opt);
}

Outcome run_udp_lossy(const Options& opt) {
  UdpSpec spec;
  spec.regions = {16, 16};
  spec.workers = 2;
  spec.senders = {0, 16};  // one per region
  spec.loss = 0.05;
  spec.payload_bytes = 1024;
  spec.rate_per_s = 500;
  spec.base_port = 43200;
  return run_udp(spec, opt);
}

}  // namespace e2e
