// Per-layer counters read through the program's public introspection
// (RecordingSink counters, Endpoint::buffer().stats(), active_recoveries())
// after a traced pass, shared by the UDP and simulator workloads.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "rrmp/endpoint.h"
#include "rrmp/metrics.h"
#include "stats.h"
#include "workload.h"

namespace e2e {

struct ProtocolTotals {
  rrmp::RecordingSink::Counters counters;
  std::size_t peak_bytes = 0;       // max over members
  std::size_t open_recoveries = 0;  // summed over members
  std::uint64_t evicted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t departed = 0;  // every way an entry leaves a store
  rrmp::Duration held = rrmp::Duration::zero();
  std::uint64_t multicasts = 0;  // generator sends
  std::uint64_t delivered = 0;   // non-self deliveries, whole pass
};

/// `endpoint_at(m)` returns the Endpoint of member m.
template <typename EndpointAt>
ProtocolTotals protocol_totals(std::size_t members, EndpointAt&& endpoint_at,
                               const rrmp::RecordingSink::Counters& counters) {
  ProtocolTotals t;
  t.counters = counters;
  for (MemberId m = 0; m < members; ++m) {
    const rrmp::Endpoint& ep = endpoint_at(m);
    const rrmp::buffer::BufferStats& st = ep.buffer().stats();
    t.peak_bytes = std::max(t.peak_bytes, st.peak_bytes);
    t.evicted += st.evicted;
    t.shed += st.shed;
    t.rejected += st.rejected;
    t.departed += st.discarded + st.evicted + st.shed + st.handed_off;
    t.held += st.total_buffer_time;
    t.open_recoveries += ep.active_recoveries();
  }
  return t;
}

/// flow.*, repair.* and buffer.* metrics. Ratios name their base.
inline void append_protocol_layers(std::vector<Metric>& L,
                                   const ProtocolTotals& t,
                                   double window_mean) {
  const rrmp::RecordingSink::Counters& c = t.counters;
  const auto sent = static_cast<double>(t.multicasts);
  const auto losses = static_cast<double>(c.losses_detected);
  const auto requests =
      static_cast<double>(c.local_requests_sent + c.remote_requests_sent);
  const std::string per_send = std::to_string(t.multicasts) + " multicasts";
  const std::string per_loss =
      std::to_string(c.losses_detected) + " losses detected";
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  L.push_back({"flow.deferred_share", ratio(d(c.sends_deferred), sent),
               "ratio", per_send});
  L.push_back({"flow.credit_acks_per_kmsg",
               ratio(1000.0 * d(c.credit_acks_sent), sent), "ratio", per_send});
  L.push_back({"flow.ack_suppressed_share",
               ratio(d(c.credit_acks_suppressed),
                     d(c.credit_acks_sent + c.credit_acks_suppressed)),
               "ratio", "suppressed / (sent + suppressed) CreditAcks"});
  L.push_back({"flow.window_mean", window_mean, "count",
               "sender window, sampled each generator turn"});
  L.push_back({"repair.requests_per_loss", ratio(requests, losses), "ratio",
               per_loss});
  L.push_back({"repair.repairs_per_loss", ratio(d(c.repairs_sent), losses),
               "ratio", per_loss});
  L.push_back({"repair.remote_share", ratio(d(c.remote_requests_sent), requests),
               "ratio", "remote / all requests"});
  L.push_back({"repair.relays_suppressed_share",
               ratio(d(c.relays_suppressed),
                     d(c.relays_suppressed + c.regional_multicasts)),
               "ratio", "suppressed / (suppressed + relayed)"});
  L.push_back({"repair.searches_per_kloss",
               ratio(1000.0 * d(c.searches_started), losses), "ratio", per_loss});
  L.push_back({"repair.open_at_end", d(t.open_recoveries), "count",
               "active recoveries after the final drain"});
  L.push_back({"buffer.peak_bytes_max", d(t.peak_bytes), "B",
               "max over members"});
  L.push_back({"buffer.mean_hold_ms", ratio(t.held.ms(), d(t.departed)), "ms",
               std::to_string(t.departed) + " departures"});
  L.push_back({"buffer.evictions_per_kdelivery",
               ratio(1000.0 * d(t.evicted), d(t.delivered)), "ratio",
               std::to_string(t.delivered) + " deliveries"});
  L.push_back({"buffer.sheds", d(t.shed), "count", "whole pass"});
  L.push_back({"buffer.rejected", d(t.rejected), "count", "whole pass"});
}

/// rrmp.handle_ns.<kind> and rrmp.msgs_in_per_delivery.<kind>.
inline void append_dispatch_layers(std::vector<Metric>& L,
                                   const std::vector<LayerTrace>& traces,
                                   double deliveries) {
  for (std::size_t k = 0; k < kMessageKinds; ++k) {
    if (!kind_reported(k)) continue;
    std::uint64_t calls = kind_calls(traces, k);
    L.push_back({std::string("rrmp.handle_ns.") + kind_label(k),
                 mean_handle_ns(traces, k), "ns",
                 std::to_string(calls) + " calls"});
    L.push_back({std::string("rrmp.msgs_in_per_delivery.") + kind_label(k),
                 ratio(static_cast<double>(calls), deliveries), "ratio",
                 "calls per delivery"});
  }
}

/// Sample count behind a chunked quantile, as the report prints it.
inline std::string count_basis(std::size_t n, double q) {
  std::string s = "n=" + std::to_string(n) + ", chunks=" +
                  std::to_string(quantile_chunks(n, q));
  if (q > 0.5) {
    std::size_t per_chunk = n / quantile_chunks(n, q);
    s += ", beyond per chunk=" + std::to_string(samples_beyond(per_chunk, q));
    if (!tail_supported(per_chunk, q)) s += " (fewer than 10: unreliable)";
  }
  return s;
}

}  // namespace e2e
