// Cooperative region-wide buffer budgets.
//
// PR 4 gave each member an isolated BufferBudget, but under pressure members
// still evict blindly: a member may drop the region's *last* copy of a
// message while a neighbor holds a redundant one. Coordination closes that
// gap with three pieces, all approximate and all cheap:
//
//   1. Digest gossip — every digest_interval each member multicasts a
//      proto::BufferDigest (held MessageId ranges + bytes in use) within its
//      region. Each BufferStore folds neighbors' digests into a DigestTable,
//      giving it an approximate replica count per buffered entry and a view
//      of where free buffer capacity lives.
//   2. Cost-aware eviction — RetentionPolicy::pick_victims prefers victims
//      with >= redundancy_threshold known regional replicas (self included)
//      and protects sole-copy entries, falling back to the PR 4 order
//      (short-term first, LRU, MessageId tie-break) among equals.
//   3. Shed handoff — when pressure forces a sole-copy entry out anyway, the
//      store pushes it to the least-loaded digest-advertised neighbor
//      (proto::Shed) before discarding, so the copy moves instead of dying.
//
// Everything is gated on CoordinationParams::enabled: disabled, no digest is
// ever sent, no replica count consulted, and eviction is bit-identical to
// the uncoordinated PR 4 protocol.
//
// Cost model. DigestTable::update canonicalises every advertisement on
// receipt (sorted by (source, first seq), overlapping and adjacent runs
// merged, empty runs dropped), so each peer's held set is a sorted list of
// disjoint runs. Each buffered entry caches two numbers the store keeps
// exact: `holders` (neighbors advertising it) and `outranked` (how many of
// them beat this member in the keeper election). An eviction ranking reads
// them: O(entries). An admission sets them with one binary search per
// advertising peer: O(peers x log ranges). A refresh that leaves the peer's
// held set unchanged stops after comparing it: O(ranges). A changed refresh,
// or a peer's departure, is one merge walk of the entries against the old
// and new runs, hashing only the entries whose held state flipped:
// O(entries + ranges).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "proto/messages.h"

namespace rrmp::buffer {

struct CoordinationParams {
  /// Master switch; everything below is inert when false.
  bool enabled = false;
  /// Period of the per-member BufferDigest regional multicast. Keep it at or
  /// below the policies' retention timescales (idle threshold T, TTLs) or
  /// the replica counts are stale by the time eviction consults them.
  Duration digest_interval = Duration::millis(20);
  /// Entries with at least this many known regional replicas (self plus
  /// digest-advertised neighbors) are preferred eviction victims — unless
  /// this member is the entry's elected keeper. Among those victims, higher
  /// replica counts evict first; below the threshold (and for keepers and
  /// sole copies) the uncoordinated order applies.
  std::size_t redundancy_threshold = 2;
  /// Push sole-copy victims to the least-loaded digest-advertised neighbor
  /// (proto::Shed) before discarding them.
  bool shed_sole_copies = true;
  /// Age out a neighbor's advertisement after this many digest intervals
  /// without a refresh (0 disables aging). A peer that is alive-but-severed
  /// across a network partition stays in the view, so retain() never prunes
  /// it — without aging its last digest would keep inflating replica counts
  /// and pinning keeper elections for the whole partition. Digests normally
  /// refresh every interval, so entries never age past 1 in a connected
  /// region and the default changes nothing in fault-free runs.
  std::size_t max_missed_digests = 3;

  friend bool operator==(const CoordinationParams&,
                         const CoordinationParams&) = default;
};

/// True iff `peer` beats `self` in `id`'s rendezvous keeper election:
/// smaller buffer::hash_score, ties broken by the smaller member id (as
/// hash_bufferers does). The keeper of an entry is the member of its holder
/// set that no other holder outranks.
bool outranks(const MessageId& id, MemberId peer, MemberId self);

/// One store's view of its region neighbors' advertised buffer contents.
/// Keyed by member id in an ordered map so every derived decision (replica
/// counts, least-loaded neighbor) is deterministic across runs and shard
/// counts. Stored ranges are canonical: per peer, sorted by (source, first
/// seq) and pairwise disjoint and non-adjacent, whatever shape the wire
/// advertisement had.
///
/// Every mutator reports each change it makes to a peer's held set, before
/// it takes effect, through an `on_change(peer, before, after)` callback
/// (both run lists canonical and different; `after` is empty when the peer
/// departs, `before` when it is new). The owning BufferStore, the only
/// caller of these mutators, uses it to keep its per-entry replica counts
/// exact.
class DigestTable {
 public:
  /// Held seqs [first, last] of one source. Inclusive bounds: a merged run
  /// may cover all 2^64 seqs, which no (first_seq, count) pair can express.
  struct Run {
    MemberId source = kInvalidMember;
    std::uint64_t first = 0;
    std::uint64_t last = 0;

    friend bool operator==(const Run&, const Run&) = default;
  };
  using Runs = std::vector<Run>;

  /// Membership tests against one peer's canonical runs, asked in ascending
  /// id order: each call skips the runs that end before `id`, so a walk over
  /// a sorted id sequence costs O(ids + runs).
  class Cursor {
   public:
    explicit Cursor(const Runs& runs) : it_(runs.begin()), end_(runs.end()) {}
    bool holds(const MessageId& id) {
      while (it_ != end_ && (it_->source != id.source
                                 ? it_->source < id.source
                                 : it_->last < id.seq)) {
        ++it_;
      }
      return it_ != end_ && it_->source == id.source && it_->first <= id.seq;
    }

   private:
    Runs::const_iterator it_;
    Runs::const_iterator end_;
  };

  /// Replace `peer`'s advertisement (the digest stream is idempotent:
  /// every digest carries the peer's full held set). `window_outstanding`
  /// is the peer's advertised flow-control window occupancy (0 when flow
  /// control is off at the peer). The ranges are canonicalised into reused
  /// scratch: an already-canonical advertisement (what
  /// BufferStore::build_digest emits) is copied in one pass, anything else
  /// (unsorted, overlapping, zero-count, ends past UINT64_MAX) is sorted
  /// and merged; the held id set is the same either way. When it equals
  /// the peer's current set only the scalars and the aging clock are
  /// refreshed, in O(ranges); otherwise `on_change` runs and the scratch
  /// is swapped in.
  template <typename OnChange>
  void update(MemberId peer, std::uint64_t bytes_in_use,
              const std::vector<proto::DigestRange>& ranges,
              std::uint64_t window_outstanding, OnChange&& on_change) {
    canonicalize(ranges, scratch_);
    PeerDigest& d = peers_[peer];
    d.bytes_in_use = bytes_in_use;
    d.window_outstanding = window_outstanding;
    d.missed = 0;  // a fresh advertisement restarts the aging clock
    if (scratch_ == d.runs) return;
    on_change(peer, std::as_const(d.runs), std::as_const(scratch_));
    d.runs.swap(scratch_);
  }

  /// Drop `peer`'s advertisement (left/crashed).
  template <typename OnChange>
  void forget(MemberId peer, OnChange&& on_change) {
    auto it = peers_.find(peer);
    if (it != peers_.end()) drop(it, on_change);
  }

  /// Drop every advertisement whose peer is not in `alive`. Called each
  /// digest period with the current region view: a departed member's last
  /// digest must not keep inflating replica counts (tricking survivors
  /// into evicting what is now the region's last copy) or keep winning
  /// keeper elections it can no longer honour.
  template <typename OnChange>
  void retain(const std::vector<MemberId>& alive, OnChange&& on_change) {
    for (auto it = peers_.begin(); it != peers_.end();) {
      if (std::find(alive.begin(), alive.end(), it->first) == alive.end()) {
        it = drop(it, on_change);
      } else {
        ++it;
      }
    }
  }

  /// Advance every advertisement's missed-refresh counter by one period and
  /// drop entries not refreshed for more than `max_missed` periods (update()
  /// resets the counter). Catches peers retain() cannot: alive-but-severed
  /// members across a partition stay in the view while no digest of theirs
  /// can arrive. Returns the number of entries dropped.
  template <typename OnChange>
  std::size_t age(std::size_t max_missed, OnChange&& on_change) {
    if (max_missed == 0) return 0;  // aging disabled
    std::size_t dropped = 0;
    for (auto it = peers_.begin(); it != peers_.end();) {
      if (++it->second.missed > max_missed) {
        it = drop(it, on_change);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  std::size_t peer_count() const { return peers_.size(); }
  bool has_peer(MemberId peer) const { return peers_.count(peer) != 0; }

  /// Call `fn(peer)` for every neighbor advertising `id`, in ascending peer
  /// order: one binary search per peer, O(peers x log ranges).
  template <typename Fn>
  void for_each_holder(const MessageId& id, Fn&& fn) const {
    for (const auto& [peer, d] : peers_) {
      if (holds(d.runs, id)) fn(peer);
    }
  }

  /// Number of neighbors currently advertising `id`, counted from scratch
  /// over the table. The store keeps the same number per buffered entry as
  /// a maintained delta (BufferStore::EntryView::holders); this count is
  /// what that delta must always equal.
  std::size_t holders_of(const MessageId& id) const {
    std::size_t holders = 0;
    for_each_holder(id, [&holders](MemberId) { ++holders; });
    return holders;
  }

  /// Advertised bytes in use for `peer`; 0 if unknown.
  std::uint64_t advertised_bytes(MemberId peer) const;

  /// Advertised flow-window occupancy for `peer`; 0 if unknown.
  std::uint64_t advertised_outstanding(MemberId peer) const;

  /// Sum of advertised window occupancy across all peers: the region's
  /// in-flight send load as the digest gossip sees it.
  std::uint64_t region_outstanding() const;

  /// The advertising peer with the least bytes in use, restricted to
  /// `alive` and excluding `exclude`; ties break on the smaller MemberId.
  /// kInvalidMember when no advertised peer qualifies.
  MemberId least_loaded(const std::vector<MemberId>& alive,
                        MemberId exclude) const;

 private:
  struct PeerDigest {
    std::uint64_t bytes_in_use = 0;
    std::uint64_t window_outstanding = 0;
    std::size_t missed = 0;  // digest periods since the last refresh
    Runs runs;               // canonical: ascending, disjoint, non-adjacent
  };
  using Peers = std::map<MemberId, PeerDigest>;

  static void canonicalize(const std::vector<proto::DigestRange>& ranges,
                           Runs& runs);
  static bool holds(const Runs& runs, const MessageId& id);

  /// Report `it`'s held set (if any) as lost, then erase it.
  template <typename OnChange>
  Peers::iterator drop(Peers::iterator it, OnChange& on_change) {
    if (!it->second.runs.empty()) {
      scratch_.clear();
      on_change(it->first, std::as_const(it->second.runs),
                std::as_const(scratch_));
    }
    return peers_.erase(it);
  }

  Peers peers_;
  Runs scratch_;  // update()'s canonical form, swapped with the peer's runs
};

}  // namespace rrmp::buffer
