#include "buffer/policy.h"

#include <algorithm>
#include <stdexcept>

#include "buffer/store.h"

namespace rrmp::buffer {

RetentionPolicy::~RetentionPolicy() = default;

void RetentionPolicy::bind(BufferStore* store, PolicyEnv* env) {
  if (store == nullptr || env == nullptr) {
    throw std::invalid_argument("RetentionPolicy::bind: null store or env");
  }
  if (store_ != nullptr) {
    throw std::logic_error("RetentionPolicy::bind: already bound");
  }
  store_ = store;
  env_ = env;
  on_bound();
}

namespace {

/// The deterministic expendability order. With coordination, the replica
/// cost model ranks first: the more known regional replicas an entry has
/// (up to the redundancy threshold) the more expendable it is, so sole
/// copies are protected until nothing redundant remains. Within a replica
/// class — and always, when coordination is off — the PR 4 order applies:
/// short-term entries before long-term ones (long-term copies are the
/// region's recovery capital), least-recently-active first, ties broken by
/// ascending MessageId so every member and every shard count evicts the
/// same victims in the same order.
bool more_expendable(const EvictionCandidate& a, const EvictionCandidate& b) {
  if (a.replica_rank != b.replica_rank) return a.replica_rank > b.replica_rank;
  if (a.long_term != b.long_term) return !a.long_term;
  if (a.last_activity != b.last_activity) {
    return a.last_activity < b.last_activity;
  }
  return a.id < b.id;
}

}  // namespace

void RetentionPolicy::pick_victims(const EvictionDemand& need,
                                   EvictionPlan& plan) {
  plan.victims.clear();
  if (store().count() == 0) return;
  // Replica counts are consulted only under coordination; uncoordinated
  // stores keep every rank at 0 and reproduce the PR 4 plan bit-for-bit.
  // Coordinated, an entry is expendable (rank = its replica count, most
  // replicated first) only when it is redundant (>= redundancy_threshold
  // known replicas) AND this member is not its designated keeper — the
  // keeper election stops all holders of a redundant entry from evicting
  // it simultaneously. Sole copies and keeper copies rank 0 (protected).
  // The store keeps each entry's holder count and keeper flag current, so
  // ranking an entry reads them and costs O(1).
  const bool coordinated = store().coordination_enabled();
  const std::size_t threshold = store().coordination().redundancy_threshold;
  auto candidate_of = [&](const BufferStore::EntryView& e) {
    EvictionCandidate c{e.id, e.bytes, e.last_activity, e.long_term, 0};
    if (coordinated) {
      // Every entry is stored here, so our copy always counts.
      std::size_t replicas = 1 + e.holders;
      if (replicas >= threshold && !e.keeper) c.replica_rank = replicas;
    }
    return c;
  };
  // Fast path for the steady state (incoming message ~= evicted message):
  // one linear pass finds the single most expendable entry; if evicting it
  // satisfies the demand, that is the whole plan. Only multi-victim
  // demands (large incoming message, shrunk budget) pay for a snapshot and
  // a sort.
  EvictionCandidate best;
  bool first = true;
  store().for_each_entry([&](const BufferStore::EntryView& e) {
    EvictionCandidate c = candidate_of(e);
    if (first || more_expendable(c, best)) best = c;
    first = false;
  });
  if (best.bytes >= need.bytes && need.entries <= 1) {
    plan.victims.push_back(best.id);
    return;
  }
  candidates_.clear();
  candidates_.reserve(store().count());
  store().for_each_entry([&](const BufferStore::EntryView& e) {
    candidates_.push_back(candidate_of(e));
  });
  std::sort(candidates_.begin(), candidates_.end(), more_expendable);
  std::size_t freed_bytes = 0, freed_entries = 0;
  for (const EvictionCandidate& c : candidates_) {
    if (freed_bytes >= need.bytes && freed_entries >= need.entries) break;
    plan.victims.push_back(c.id);
    freed_bytes += c.bytes;
    ++freed_entries;
  }
}

}  // namespace rrmp::buffer
