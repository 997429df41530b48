#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/random.h"
#include "stats.h"
#include "workload.h"

namespace e2e {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void reset_peak_rss() {
  // "5" resets the resident-set high-water mark to the current size
  // (Linux 4.0+). Where that is refused, peak_rss_mb() keeps reading the
  // process-lifetime peak.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ull);
  rrmp::splitmix64(state);
  return rrmp::splitmix64(state);
}

bool DropSchedule::drops(std::uint64_t seq, MemberId to) const {
  if (rate <= 0.0) return false;
  std::uint64_t state = salt ^ (seq * 0x9E3779B97F4A7C15ull) ^
                        ((static_cast<std::uint64_t>(to) + 1) *
                         0xBF58476D1CE4E5B9ull);
  std::uint64_t h = rrmp::splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

namespace {

std::uint64_t pattern_base(std::uint64_t salt, MemberId source,
                           std::uint64_t seq) {
  std::uint64_t state =
      salt ^ (static_cast<std::uint64_t>(source) << 40) ^ seq;
  return rrmp::splitmix64(state);
}

// Word w of the pattern (covering payload bytes [8 + 8w, 16 + 8w)).
std::uint64_t pattern_word(std::uint64_t base, std::size_t w) {
  return base + (w + 1) * 0x9E3779B97F4A7C15ull;
}

}  // namespace

std::vector<std::uint8_t> make_payload(std::size_t size, std::int64_t stamp,
                                       std::uint64_t salt, MemberId source,
                                       std::uint64_t seq) {
  std::vector<std::uint8_t> p(std::max(size, kStampBytes));
  std::memcpy(p.data(), &stamp, kStampBytes);
  std::uint64_t base = pattern_base(salt, source, seq);
  for (std::size_t off = kStampBytes, w = 0; off < p.size(); off += 8, ++w) {
    std::uint64_t word = pattern_word(base, w);
    std::memcpy(p.data() + off, &word, std::min<std::size_t>(8, p.size() - off));
  }
  return p;
}

std::int64_t payload_stamp(std::span<const std::uint8_t> payload) {
  std::int64_t stamp = 0;
  if (payload.size() >= kStampBytes) {
    std::memcpy(&stamp, payload.data(), kStampBytes);
  }
  return stamp;
}

bool payload_matches(std::span<const std::uint8_t> payload, std::uint64_t salt,
                     MemberId source, std::uint64_t seq) {
  if (payload.size() < kStampBytes) return false;
  std::uint64_t base = pattern_base(salt, source, seq);
  for (std::size_t off = kStampBytes, w = 0; off < payload.size();
       off += 8, ++w) {
    std::uint64_t want = pattern_word(base, w);
    std::size_t n = std::min<std::size_t>(8, payload.size() - off);
    if (std::memcmp(payload.data() + off, &want, n) != 0) return false;
  }
  return true;
}

DeliveryBook::DeliveryBook(std::size_t members, std::vector<MemberId> senders,
                           std::uint64_t payload_salt, DropSchedule drops)
    : senders_(std::move(senders)),
      salt_(payload_salt),
      drops_(drops),
      logs_(members) {
  for (MemberLog& log : logs_) log.seen.resize(senders_.size());
}

void DeliveryBook::record(MemberId member, const rrmp::proto::Data& d,
                          std::int64_t now_ns) {
  if (d.id.source == member) return;  // the sender's own local delivery
  MemberLog& log = logs_[member];
  auto it = std::find(senders_.begin(), senders_.end(), d.id.source);
  if (it == senders_.end() || d.id.seq == 0) {
    ++log.unknown;
    return;
  }
  std::vector<std::uint8_t>& seen =
      log.seen[static_cast<std::size_t>(it - senders_.begin())];
  if (seen.size() <= d.id.seq) seen.resize(std::max<std::size_t>(64, 2 * d.id.seq));
  if (seen[d.id.seq]) {
    ++log.duplicates;
    return;
  }
  seen[d.id.seq] = 1;
  std::span<const std::uint8_t> bytes(d.payload.data(), d.payload.size());
  if (!payload_matches(bytes, salt_, d.id.source, d.id.seq)) ++log.corrupt;
  ++log.delivered;
  if (now_ns >= window_start_ && now_ns < window_end_) ++log.in_window;
  std::int64_t stamp = payload_stamp(bytes);
  if (stamp >= window_start_ && stamp < window_end_) {
    ++log.measured_delivered;
    auto ms = static_cast<float>(static_cast<double>(now_ns - stamp) * 1e-6);
    log.latency.push_back({stamp, ms});
    if (is_repair(d.id.seq, member)) log.repair.push_back({stamp, ms});
  }
}

std::uint64_t DeliveryBook::delivered() const {
  std::uint64_t n = 0;
  for (const MemberLog& log : logs_) n += log.delivered;
  return n;
}

std::uint64_t DeliveryBook::measured_delivered() const {
  std::uint64_t n = 0;
  for (const MemberLog& log : logs_) n += log.measured_delivered;
  return n;
}

std::uint64_t DeliveryBook::in_window() const {
  std::uint64_t n = 0;
  for (const MemberLog& log : logs_) n += log.in_window;
  return n;
}

namespace {

std::vector<float> in_send_order(const std::vector<MemberLog>& logs,
                                 std::vector<LatencySample> MemberLog::*field) {
  std::vector<LatencySample> all;
  for (const MemberLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const LatencySample& a, const LatencySample& b) {
                     return a.stamp < b.stamp;
                   });
  std::vector<float> ms;
  ms.reserve(all.size());
  for (const LatencySample& s : all) ms.push_back(s.ms);
  return ms;
}

}  // namespace

std::vector<float> DeliveryBook::latencies() const {
  return in_send_order(logs_, &MemberLog::latency);
}

std::vector<float> DeliveryBook::repair_latencies() const {
  return in_send_order(logs_, &MemberLog::repair);
}

std::uint64_t DeliveryBook::scheduled_drops(
    const std::vector<std::uint64_t>& sent) const {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < senders_.size(); ++s) {
    for (std::uint64_t seq = 1; seq <= sent[s]; ++seq) {
      for (MemberId m = 0; m < logs_.size(); ++m) {
        if (m != senders_[s] && drops_.drops(seq, m)) ++n;
      }
    }
  }
  return n;
}

std::vector<std::string> DeliveryBook::check(
    const std::vector<std::uint64_t>& sent) const {
  std::uint64_t duplicates = 0, unknown = 0, corrupt = 0, never_sent = 0;
  for (const MemberLog& log : logs_) {
    duplicates += log.duplicates;
    unknown += log.unknown;
    corrupt += log.corrupt;
    for (std::size_t s = 0; s < senders_.size(); ++s) {
      for (std::size_t seq = sent[s] + 1; seq < log.seen[s].size(); ++seq) {
        never_sent += log.seen[s][seq];
      }
    }
  }
  std::vector<std::string> failures;
  auto fail = [&](std::uint64_t n, const char* what) {
    if (n == 0) return;
    std::ostringstream os;
    os << n << ' ' << what;
    failures.push_back(os.str());
  };
  fail(duplicates, "duplicate deliveries of one (member, id)");
  fail(unknown + never_sent, "deliveries of messages that were never sent");
  fail(corrupt, "deliveries whose payload differs from the sender's pattern");
  return failures;
}

namespace {
constexpr std::array<const char*, kMessageKinds> kKindLabels = {
    "Data",          "Session",      "LocalRequest",   "RemoteRequest",
    "Repair",        "RegionalRepair", "SearchRequest", "SearchFound",
    "Handoff",       "Gossip",       "History",        "BufferDigest",
    "Shed",          "CreditAck",    "Escalate"};
}  // namespace

const char* kind_label(std::size_t kind) { return kKindLabels.at(kind); }

bool kind_reported(std::size_t kind) {
  std::string_view k = kind_label(kind);
  return k != "Handoff" && k != "Gossip" && k != "History";
}

void LayerTrace::on_callback(std::int64_t now_ns, bool record_gap) {
  std::thread::id me = std::this_thread::get_id();
  if (threads.empty() || threads.back() != me) {
    if (std::find(threads.begin(), threads.end(), me) == threads.end()) {
      threads.push_back(me);
    }
  }
  if (record_gap && last_callback_ns != 0) {
    gaps_ms.push_back(
        static_cast<float>(static_cast<double>(now_ns - last_callback_ns) * 1e-6));
  }
  last_callback_ns = now_ns;
}

void LayerTrace::reset() {
  std::vector<std::thread::id> keep = std::move(threads);
  *this = LayerTrace{};
  threads = std::move(keep);
}

double mean_handle_ns(const std::vector<LayerTrace>& traces, std::size_t kind) {
  std::uint64_t calls = 0, ns = 0;
  for (const LayerTrace& t : traces) {
    calls += t.calls[kind];
    ns += t.handle_ns[kind];
  }
  return ratio(static_cast<double>(ns), static_cast<double>(calls));
}

std::uint64_t kind_calls(const std::vector<LayerTrace>& traces,
                         std::size_t kind) {
  std::uint64_t calls = 0;
  for (const LayerTrace& t : traces) calls += t.calls[kind];
  return calls;
}

std::size_t threads_used(const std::vector<LayerTrace>& traces) {
  std::vector<std::thread::id> all;
  for (const LayerTrace& t : traces) {
    for (std::thread::id id : t.threads) {
      if (std::find(all.begin(), all.end(), id) == all.end()) all.push_back(id);
    }
  }
  return std::max<std::size_t>(1, all.size());
}

void add_layer_rows(Outcome& out, const std::vector<LayerTrace>& traces,
                    double capacity_s, double cpu_s,
                    double generator_multicast_s, double generator_other_s,
                    const char* residual_label) {
  double decode_s = 0, check_s = 0;
  std::array<double, kMessageKinds> handle_s{};
  for (const LayerTrace& t : traces) {
    decode_s += static_cast<double>(t.decode_ns) * 1e-9;
    check_s += static_cast<double>(t.check_ns) * 1e-9;
    for (std::size_t k = 0; k < kMessageKinds; ++k) {
      handle_s[k] += static_cast<double>(t.handle_ns[k]) * 1e-9;
    }
  }
  double timed = generator_multicast_s + generator_other_s + decode_s + check_s;
  out.table.push_back({"rrmp.multicast (generator)", generator_multicast_s});
  out.table.push_back({"generator loop (benchmark)", generator_other_s});
  out.table.push_back({"proto.decode_shared", decode_s});
  for (std::size_t k = 0; k < kMessageKinds; ++k) {
    timed += handle_s[k];
    if (handle_s[k] == 0.0) continue;
    out.table.push_back(
        {std::string("rrmp.handle_message.") + kind_label(k), handle_s[k]});
  }
  out.table.push_back({"delivery check (benchmark)", check_s});
  // Untimed CPU is the loop's own work; the rest of the capacity is time
  // no thread was running (blocked in poll(), waiting at a barrier).
  out.residual_s = cpu_s - timed;
  out.table.push_back({residual_label, out.residual_s});
  out.table.push_back({"idle (blocked, not on CPU)", capacity_s - cpu_s});
  out.table_capacity_s = capacity_s;
}

}  // namespace e2e
