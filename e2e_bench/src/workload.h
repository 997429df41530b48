// Shared pieces of the end-to-end benchmark: the seeded inputs (drop
// schedule, payload pattern), the outside-in delivery log, the per-worker
// layer trace, and the result every workload hands back to main().
//
// Everything here observes the protocol from outside: deliveries arrive
// through Endpoint::set_delivery_handler, latencies come from send stamps
// carried in the payload, and "was this a repair" is decided by the
// benchmark's own drop schedule, never by reading the program's sinks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "proto/messages.h"

namespace e2e {

using rrmp::MemberId;

/// Monotonic wall clock in nanoseconds.
inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + sys) in seconds, from getrusage.
double process_cpu_s();
/// Resident-set high-water mark in MiB since the last reset_peak_rss()
/// (or since the process started).
double peak_rss_mb();
void reset_peak_rss();

/// Derives independent 64-bit streams (drop salt, protocol seed, payload
/// salt) from the command-line seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Deterministic loss of the initial dissemination, keyed by (seq,
/// receiver) as UdpRuntimeConfig::drop_fn and SimNetwork::set_data_drop_fn
/// see it: a splitmix64 hash of the pair, salted by the seed, thresholded
/// at `rate`. Pure, so the benchmark knows every dropped pair from outside.
struct DropSchedule {
  std::uint64_t salt = 0;
  double rate = 0.0;
  bool drops(std::uint64_t seq, MemberId to) const;
};

/// Payload layout: bytes [0, 8) carry the send stamp (ns, little endian);
/// the rest is a pattern fixed by (salt, source, seq) so every receiver can
/// check the bytes it got against what the sender must have written.
constexpr std::size_t kStampBytes = 8;
std::vector<std::uint8_t> make_payload(std::size_t size, std::int64_t stamp,
                                       std::uint64_t salt, MemberId source,
                                       std::uint64_t seq);
std::int64_t payload_stamp(std::span<const std::uint8_t> payload);
bool payload_matches(std::span<const std::uint8_t> payload, std::uint64_t salt,
                     MemberId source, std::uint64_t seq);

/// Deliveries of one member. Written only from that member's event loop
/// (one worker or lane), read after the run's barrier.
struct LatencySample {
  std::int64_t stamp;  // send stamp, orders samples by send time
  float ms;
};

struct MemberLog {
  std::vector<LatencySample> latency;  // measured-set deliveries
  std::vector<LatencySample> repair;   // ... whose pair the schedule dropped
  std::vector<std::vector<std::uint8_t>> seen;  // [sender index][seq]
  std::uint64_t delivered = 0;           // every non-self delivery
  std::uint64_t measured_delivered = 0;  // deliveries of measured-set messages
  std::uint64_t in_window = 0;           // deliveries inside the window
  std::uint64_t duplicates = 0;
  std::uint64_t unknown = 0;  // from a member that is not a sender
  std::uint64_t corrupt = 0;  // payload differs from the sender's pattern
};

/// Outside-in delivery bookkeeping for one run.
class DeliveryBook {
 public:
  DeliveryBook(std::size_t members, std::vector<MemberId> senders,
               std::uint64_t payload_salt, DropSchedule drops);

  /// Messages stamped in [start, end) form the measured set; deliveries
  /// made in [start, end) count toward throughput. Set before traffic.
  void set_window(std::int64_t start_ns, std::int64_t end_ns) {
    window_start_ = start_ns;
    window_end_ = end_ns;
  }

  /// The delivery handler body: `now_ns` is the receiver's clock (wall ns
  /// on UDP, simulated time in ns on the simulator).
  void record(MemberId member, const rrmp::proto::Data& d, std::int64_t now_ns);

  /// Repair classification: a delivery is a repair iff the schedule
  /// dropped its (seq, receiver) pair.
  bool is_repair(std::uint64_t seq, MemberId member) const {
    return drops_.drops(seq, member);
  }

  const std::vector<MemberLog>& logs() const { return logs_; }

  std::uint64_t delivered() const;
  std::uint64_t measured_delivered() const;
  std::uint64_t in_window() const;
  /// Latencies (ms) of measured-set deliveries, in send-stamp order.
  std::vector<float> latencies() const;
  /// The same for deliveries whose (seq, receiver) the schedule dropped.
  std::vector<float> repair_latencies() const;
  /// Pairs the schedule dropped among the first `sent[i]` seqs of sender i.
  std::uint64_t scheduled_drops(const std::vector<std::uint64_t>& sent) const;

  /// Output checks against what the generator sent (`sent[i]` messages by
  /// sender i): duplicates, deliveries never sent, corrupt payloads. Returns
  /// one line per failed check.
  std::vector<std::string> check(const std::vector<std::uint64_t>& sent) const;

 private:
  std::vector<MemberId> senders_;
  std::uint64_t salt_;
  DropSchedule drops_;
  std::vector<MemberLog> logs_;
  std::int64_t window_start_ = INT64_MIN;
  std::int64_t window_end_ = INT64_MAX;
};

/// Message kinds timed separately in the traced run (proto::Message
/// variant order). Handoff, Gossip and History never occur in these
/// workloads and are left out of the reported table.
constexpr std::size_t kMessageKinds = std::variant_size_v<rrmp::proto::Message>;
const char* kind_label(std::size_t kind);
bool kind_reported(std::size_t kind);

/// Per-worker (UDP) or per-lane (simulator) accumulators of the traced
/// run. Each is touched by one thread at a time; run_for() barriers order
/// the hand-overs between threads.
struct LayerTrace {
  std::array<std::uint64_t, kMessageKinds> calls{};
  /// Time inside Endpoint::handle_message, minus the benchmark's own
  /// delivery check that runs nested inside it.
  std::array<std::uint64_t, kMessageKinds> handle_ns{};
  std::uint64_t decode_calls = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t check_ns = 0;  // the benchmark's own delivery handler
  std::int64_t last_callback_ns = 0;
  std::vector<float> gaps_ms;  // wall gap between consecutive callbacks
  std::vector<std::thread::id> threads;

  /// Note the calling thread and the gap since the previous callback.
  void on_callback(std::int64_t now_ns, bool record_gap);
  void reset();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;  // sample count or ratio base, for the printed report
};

struct TableRow {
  std::string layer;
  double seconds = 0.0;
};

/// One pass of one workload.
struct Outcome {
  std::vector<Metric> end_to_end;
  /// Per-layer figures an untraced pass measures (repair latency, the
  /// failure share, simulator wall time, generator lag); a traced run
  /// reports them from its first, untraced pass.
  std::vector<Metric> untraced_layers;
  std::vector<Metric> per_layer;       // filled by traced passes
  std::vector<TableRow> table;         // traced passes: wall accounting
  double table_capacity_s = 0.0;       // what the rows must add up to
  double residual_s = 0.0;             // on-CPU time outside timed calls
  double cpu_us_per_delivery = 0.0;
  std::uint64_t attempted = 0;  // (message, receiver) pairs sent
  std::uint64_t failed = 0;     // pairs never delivered by the final drain
  std::vector<std::string> failures;  // failed output checks
  std::vector<std::string> notes;     // context lines for the report
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

Outcome run_udp_flood(const Options& opt);
Outcome run_udp_lossy(const Options& opt);
Outcome run_sim_budget_tree(const Options& opt);

/// Helpers shared by the workload files.
/// Table rows of a traced window. `capacity_s` is the window's wall time
/// times the threads that ran event loops, `cpu_s` the process CPU time
/// over the window; the residual row is on-CPU time outside every timed
/// call, and an idle row takes the rest.
void add_layer_rows(Outcome& out, const std::vector<LayerTrace>& traces,
                    double capacity_s, double cpu_s,
                    double generator_multicast_s, double generator_other_s,
                    const char* residual_label);
double mean_handle_ns(const std::vector<LayerTrace>& traces, std::size_t kind);
std::uint64_t kind_calls(const std::vector<LayerTrace>& traces, std::size_t kind);
std::size_t threads_used(const std::vector<LayerTrace>& traces);

}  // namespace e2e
