#include "buffer/coordination.h"

#include <algorithm>
#include <cassert>

#include "buffer/hash_based.h"

namespace rrmp::buffer {

void DigestTable::update(MemberId peer, std::uint64_t bytes_in_use,
                         const std::vector<proto::DigestRange>& ranges,
                         std::uint64_t window_outstanding) {
  PeerDigest& d = peers_[peer];
  d.bytes_in_use = bytes_in_use;
  d.window_outstanding = window_outstanding;
  d.missed = 0;  // a fresh advertisement restarts the aging clock
  canonicalize(ranges, d.runs);
}

namespace {

// (source, first) order: the sort key of canonical runs.
template <typename RunT>
bool starts_before(const RunT& a, const RunT& b) {
  return a.source != b.source ? a.source < b.source : a.first < b.first;
}

// Fold `run` into `last` when they overlap or touch; `run` must not start
// before `last`.
template <typename RunT>
bool merge_into(RunT& last, const RunT& run) {
  if (last.source != run.source ||
      (last.last != UINT64_MAX && run.first > last.last + 1)) {
    return false;
  }
  last.last = std::max(last.last, run.last);
  return true;
}

// True iff `peer` beats `self` in `id`'s rendezvous keeper election:
// smaller hash_score, ties broken by member id as hash_bufferers does.
bool outranks(const MessageId& id, MemberId peer, MemberId self) {
  std::uint64_t score = hash_score(id, peer);
  std::uint64_t own = hash_score(id, self);
  return score < own || (score == own && peer < self);
}

}  // namespace

void DigestTable::canonicalize(const std::vector<proto::DigestRange>& ranges,
                               std::vector<Run>& runs) {
  runs.clear();
  runs.reserve(ranges.size());  // exact growth: refreshes reuse the capacity
  bool ordered = true;
  for (const proto::DigestRange& r : ranges) {
    if (r.count == 0) continue;  // holds nothing
    // Overflow-safe end: a hostile count may run past UINT64_MAX, which
    // holds exactly the seqs up to UINT64_MAX.
    Run run{r.source, r.first_seq,
            r.count - 1 > UINT64_MAX - r.first_seq ? UINT64_MAX
                                                   : r.first_seq + (r.count - 1)};
    if (!runs.empty() && ordered) {
      if (starts_before(run, runs.back())) {
        ordered = false;
      } else if (merge_into(runs.back(), run)) {
        continue;
      }
    }
    runs.push_back(run);
  }
  if (ordered) return;
  // Off the honest path: sort, then merge in place.
  std::sort(runs.begin(), runs.end(), starts_before<Run>);
  std::size_t kept = 0;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (!merge_into(runs[kept], runs[i])) runs[++kept] = runs[i];
  }
  runs.resize(kept + 1);  // an unordered input has at least two runs
}

void DigestTable::forget(MemberId peer) { peers_.erase(peer); }

void DigestTable::retain(const std::vector<MemberId>& alive) {
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (std::find(alive.begin(), alive.end(), it->first) == alive.end()) {
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t DigestTable::age(std::size_t max_missed) {
  if (max_missed == 0) return 0;  // aging disabled
  std::size_t dropped = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (++it->second.missed > max_missed) {
      it = peers_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

bool DigestTable::holds(const std::vector<Run>& runs, const MessageId& id) {
  // The last run starting at or before id is the only one that can hold it.
  auto it = std::upper_bound(runs.begin(), runs.end(), id,
                             [](const MessageId& v, const Run& r) {
                               return v.source != r.source ? v.source < r.source
                                                           : v.seq < r.first;
                             });
  if (it == runs.begin()) return false;
  --it;
  return it->source == id.source && id.seq <= it->last;
}

std::size_t DigestTable::holders_of(const MessageId& id) const {
  std::size_t holders = 0;
  for (const auto& [peer, d] : peers_) holders += holds(d.runs, id);
  return holders;
}

bool DigestTable::keeper_is(const MessageId& id, MemberId self) const {
  return holder_info(id, self).keeper;
}

DigestTable::HolderInfo DigestTable::holder_info(const MessageId& id,
                                                 MemberId self) const {
  HolderInfo info;
  for (const auto& [peer, d] : peers_) {
    if (!holds(d.runs, id)) continue;
    ++info.holders;
    if (info.keeper && outranks(id, peer, self)) info.keeper = false;
  }
  return info;
}

void DigestTable::holder_infos(const std::vector<MessageId>& ids,
                               MemberId self,
                               std::vector<HolderInfo>& out) const {
  assert(std::is_sorted(ids.begin(), ids.end()));
  out.assign(ids.size(), HolderInfo{});
  for (const auto& [peer, d] : peers_) {
    auto run = d.runs.begin();
    const auto end = d.runs.end();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MessageId& id = ids[i];
      // Skip the runs that end before id; later ids are larger still.
      while (run != end && (run->source != id.source ? run->source < id.source
                                                     : run->last < id.seq)) {
        ++run;
      }
      if (run == end) break;
      if (run->source != id.source || id.seq < run->first) continue;
      HolderInfo& info = out[i];
      ++info.holders;
      if (info.keeper && outranks(id, peer, self)) info.keeper = false;
    }
  }
}

std::uint64_t DigestTable::advertised_bytes(MemberId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.bytes_in_use;
}

std::uint64_t DigestTable::advertised_outstanding(MemberId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.window_outstanding;
}

std::uint64_t DigestTable::region_outstanding() const {
  std::uint64_t total = 0;
  for (const auto& [peer, d] : peers_) total += d.window_outstanding;
  return total;
}

MemberId DigestTable::least_loaded(const std::vector<MemberId>& alive,
                                   MemberId exclude) const {
  MemberId best = kInvalidMember;
  std::uint64_t best_bytes = 0;
  for (const auto& [peer, d] : peers_) {  // ascending id: deterministic ties
    if (peer == exclude) continue;
    if (std::find(alive.begin(), alive.end(), peer) == alive.end()) continue;
    if (best == kInvalidMember || d.bytes_in_use < best_bytes) {
      best = peer;
      best_bytes = d.bytes_in_use;
    }
  }
  return best;
}

}  // namespace rrmp::buffer
