#include "buffer/coordination.h"

#include <algorithm>

#include "buffer/hash_based.h"

namespace rrmp::buffer {

namespace {

using Run = DigestTable::Run;

// (source, first) order: the sort key of canonical runs.
bool starts_before(const Run& a, const Run& b) {
  return a.source != b.source ? a.source < b.source : a.first < b.first;
}

// Fold `run` into `last` when they overlap or touch; `run` must not start
// before `last`.
bool merge_into(Run& last, const Run& run) {
  if (last.source != run.source ||
      (last.last != UINT64_MAX && run.first > last.last + 1)) {
    return false;
  }
  last.last = std::max(last.last, run.last);
  return true;
}

}  // namespace

bool outranks(const MessageId& id, MemberId peer, MemberId self) {
  std::uint64_t score = hash_score(id, peer);
  std::uint64_t own = hash_score(id, self);
  return score < own || (score == own && peer < self);
}

void DigestTable::canonicalize(const std::vector<proto::DigestRange>& ranges,
                               Runs& runs) {
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
  std::sort(runs.begin(), runs.end(), starts_before);
  std::size_t kept = 0;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (!merge_into(runs[kept], runs[i])) runs[++kept] = runs[i];
  }
  runs.resize(kept + 1);  // an unordered input has at least two runs
}

bool DigestTable::holds(const Runs& runs, const MessageId& id) {
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
