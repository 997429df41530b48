#include "rrmp/endpoint.h"

#include <algorithm>
#include <cassert>

#include "buffer/hash_based.h"
#include "common/logging.h"
#include "proto/codec.h"

namespace rrmp {
namespace {

constexpr std::size_t kHistoryBitmapWords = 16;

bool contains(const std::vector<MemberId>& v, MemberId m) {
  return std::find(v.begin(), v.end(), m) != v.end();
}

/// Applied before any member is built from the config, so the BufferStore
/// (whose anti-ping-pong age gate reads digest_interval) and the digest
/// timer can never disagree about the clamped value. A non-positive period
/// would re-arm digest_tick at the same instant forever, wedging the event
/// loop, and would silently disable the store's shed damping.
Config sanitized(Config c) {
  if (c.buffer_coordination.enabled &&
      c.buffer_coordination.digest_interval <= Duration::zero()) {
    c.buffer_coordination.digest_interval = Duration::micros(1);
  }
  c.flow = rrmp::sanitized(c.flow);
  return c;
}

}  // namespace

// ---------------------------------------------------------------- Env ----

TimePoint Endpoint::Env::now() const { return ep_.host_.now(); }

std::uint64_t Endpoint::Env::schedule(Duration d, sim::Callback fn) {
  return ep_.schedule(d, std::move(fn));
}

void Endpoint::Env::cancel(std::uint64_t timer) { ep_.host_.cancel(timer); }

RandomEngine& Endpoint::Env::rng() { return ep_.host_.rng(); }

std::size_t Endpoint::Env::region_size() const {
  return ep_.host_.local_view().size();
}

const std::vector<MemberId>& Endpoint::Env::region_members() const {
  return ep_.host_.local_view().members();
}

MemberId Endpoint::Env::self() const { return ep_.host_.self(); }

buffer::BudgetState Endpoint::Env::budget() const {
  return ep_.store_->budget_state();
}

// ----------------------------------------------------------- lifecycle ----

Endpoint::Endpoint(IHost& host, Config config,
                   std::unique_ptr<buffer::RetentionPolicy> policy,
                   MetricsSink* metrics)
    : host_(host),
      cfg_(sanitized(std::move(config))),
      env_(*this),
      // cfg_, not config: the store must see the sanitized coordination
      // knobs (cfg_ is declared before store_, so it is built first).
      store_(std::make_unique<buffer::BufferStore>(std::move(policy),
                                                   cfg_.buffer_budget,
                                                   cfg_.buffer_coordination)),
      metrics_(metrics != nullptr ? metrics : &null_sink_),
      // Our own budget doubles as the fallback yardstick for peers that
      // advertise occupancy without a budget (BufferDigest gossip).
      flow_(cfg_.flow, cfg_.buffer_budget.max_bytes) {
  store_->bind(&env_);
  store_->set_observer(
      [this](const MessageId& id, buffer::BufferEvent ev, bool long_term) {
        switch (ev) {
          case buffer::BufferEvent::kStored:
            this->metrics().on_buffer_stored(self(), id, host_.now());
            break;
          case buffer::BufferEvent::kPromotedLongTerm:
            this->metrics().on_promoted_long_term(self(), id, host_.now());
            break;
          case buffer::BufferEvent::kDiscarded:
          case buffer::BufferEvent::kHandedOff:
          case buffer::BufferEvent::kEvicted:
          case buffer::BufferEvent::kShedHandoff:
            this->metrics().on_buffer_discarded(self(), id, host_.now(), long_term);
            break;
        }
      });
  if (store_->policy().needs_history_exchange()) cfg_.history_exchange = true;
  if (cfg_.history_exchange) {
    history_enabled_ = true;
    history_timer_ =
        schedule(cfg_.history_interval, [this] { history_tick(); });
  }
  if (cfg_.anti_entropy) {
    anti_entropy_timer_ =
        schedule(cfg_.anti_entropy_interval, [this] { anti_entropy_tick(); });
  }
  if (cfg_.buffer_coordination.enabled) {
    store_->set_shed_handler([this](const proto::Data& d, MemberId target) {
      if (!active_) return false;
      // The least-loaded neighbor is picked from digest advertisements,
      // which lag the view by up to one period: a member that just left can
      // still look like the best target. A shed to a departed member is a
      // silently lost copy counted as "moved" — fall back to plain eviction
      // (return false) so the accounting stays honest.
      if (!host_.local_view().contains(target)) return false;
      this->metrics().on_handoff_sent(self(), target, 1, host_.now());
      host_.send(target, proto::Message{proto::Shed{self(), d}});
      return true;
    });
    digest_timer_ = schedule(cfg_.buffer_coordination.digest_interval,
                             [this] { digest_tick(); });
  }
  if (cfg_.flow.enabled) {
    flow_view_ = host_.local_view().members();
    aimd_round_start_ = host_.now();
    credit_timer_ = schedule(cfg_.flow.ack_interval, [this] { credit_tick(); });
  }
}

Endpoint::~Endpoint() { halt(); }

void Endpoint::halt() {
  if (!active_) return;
  active_ = false;
  cancel(session_timer_);
  cancel(history_timer_);
  cancel(anti_entropy_timer_);
  cancel(digest_timer_);
  cancel(credit_timer_);
  store_->cancel_entry_timers();
  send_queue_.clear();
  flow_unacked_.clear();
  for (auto& [id, st] : messages_) {
    cancel(st.local_timer);
    cancel(st.remote_timer);
    if (MessageExtras* x = st.extras.get()) {
      cancel(x->search_timer);
      cancel(x->relay_timer);
      cancel(x->reply_timer);
    }
  }
  messages_.clear();
  if (gossip_fd_) gossip_fd_->stop();
}

void Endpoint::leave() {
  if (!active_) return;
  // Transfer each long-term message to a randomly selected region member
  // (§3.2), batching per target into Handoff messages.
  std::vector<proto::Data> drained = store_->drain_for_handoff();
  std::map<MemberId, proto::Handoff> batches;
  for (proto::Data& d : drained) {
    MemberId target = host_.local_view().pick_random(host_.rng(), self());
    if (target == kInvalidMember) break;  // nobody left to inherit
    batches[target].messages.push_back(std::move(d));
  }
  for (auto& [target, handoff] : batches) {
    metrics().on_handoff_sent(self(), target, handoff.messages.size(),
                              host_.now());
    host_.send(target, proto::Message{std::move(handoff)});
  }
  halt();
}

void Endpoint::enable_gossip_fd(GossipConfig config,
                                std::function<void(MemberId, bool)> on_suspect) {
  gossip_fd_ = std::make_unique<GossipFailureDetector>(host_, config,
                                                       std::move(on_suspect));
  gossip_fd_->start();
}

// ----------------------------------------------------------- app API ----

MessageId Endpoint::multicast(std::vector<std::uint8_t> payload) {
  if (!cfg_.flow.enabled) {
    MessageId id{self(), ++send_seq_};
    next_app_seq_ = send_seq_;
    proto::Data d{id, std::move(payload)};
    accept(d);
    host_.ip_multicast(proto::Message{d});
    if (session_timer_ == kNoTimer) {
      session_timer_ =
          schedule(cfg_.session_interval, [this] { session_tick(); });
    }
    return id;
  }
  // Flow-controlled path: the id is assigned now (the application's send
  // order is the wire order), but transmission waits for window credit.
  MessageId id{self(), ++next_app_seq_};
  proto::Data d{id, std::move(payload)};
  if (send_queue_.empty() &&
      flow_admits(proto::encoded_size(proto::Message{d}))) {
    transmit_frame(std::move(d));
  } else {
    flow_.note_deferred();
    metrics().on_send_deferred(self(), id, host_.now());
    send_queue_.push_back(std::move(d));
  }
  return id;
}

bool Endpoint::flow_admits(std::size_t bytes) const {
  // Alone in the region there is no peer to grant credit — windowing would
  // wedge the stream after window_size frames, so it does not apply.
  if (host_.local_view().size() <= 1) return true;
  return flow_.may_send(bytes);
}

void Endpoint::transmit_frame(proto::Data d) {
  assert(d.id.seq == send_seq_ + 1 && "queue drains in id order");
  send_seq_ = d.id.seq;
  // The window accounts the core (cursor-free) frame size: retransmissions
  // and repairs carry the core form, and the piggyback block is feedback
  // overhead, not stream backlog.
  std::size_t bytes = proto::encoded_size(proto::Message{d});
  accept(d);
  flow_unacked_.push_back(d);
  if (cfg_.flow.piggyback && host_.local_view().size() > 1) {
    // Attach our receive cursors to the wire copy only — the stored and
    // retransmission copies stay cursor-free (nested/repair encodings and
    // buffer byte accounting use the core layout).
    proto::Data wire = std::move(d);  // payload is refcounted, copy is cheap
    wire.cursors = cursor_snapshot();
    advertised_cursors_ = wire.cursors;
    advertised_any_ = true;
    host_.ip_multicast(proto::Message{std::move(wire)});
  } else {
    host_.ip_multicast(proto::Message{std::move(d)});
  }
  flow_.on_frame_sent(send_seq_, bytes);
  if (session_timer_ == kNoTimer) {
    session_timer_ =
        schedule(cfg_.session_interval, [this] { session_tick(); });
  }
}

void Endpoint::drain_send_queue() {
  while (!send_queue_.empty() &&
         flow_admits(proto::encoded_size(proto::Message{send_queue_.front()}))) {
    proto::Data d = std::move(send_queue_.front());
    send_queue_.pop_front();
    transmit_frame(std::move(d));
  }
}

void Endpoint::session_tick() {
  session_timer_ = kNoTimer;
  if (send_seq_ == 0) return;
  proto::Session s{self(), send_seq_};
  if (cfg_.flow.enabled && cfg_.flow.piggyback &&
      host_.local_view().size() > 1) {
    s.cursors = cursor_snapshot();
    advertised_cursors_ = s.cursors;
    advertised_any_ = true;
  }
  host_.ip_multicast(proto::Message{std::move(s)});
  session_timer_ = schedule(cfg_.session_interval, [this] { session_tick(); });
}

// ------------------------------------------------------------ dispatch ----

void Endpoint::handle_message(const proto::Message& msg, MemberId from) {
  if (!active_) return;
  std::visit([this, from](const auto& m) { handle(m, from); }, msg);
}

// ------------------------------------------------------------ reception ----

bool Endpoint::accept(const proto::Data& d) {
  SequenceTracker& tr = tracker(d.id.source);
  if (tr.has(d.id.seq)) return false;

  SequenceTracker::Observation obs = tr.observe_data(d.id.seq);
  assert(obs.is_new);
  for (std::uint64_t gap : obs.new_gaps) {
    start_recovery(MessageId{d.id.source, gap});
  }

  if (MessageState* st = find_state(d.id)) {
    // If we were recovering this message, the recovery just succeeded.
    if (st->recovering) {
      metrics().on_recovered(self(), d.id, host_.now(),
                             host_.now() - st->started);
      cancel(st->local_timer);
      cancel(st->remote_timer);
      st->recovering = false;
    }
    // Probes die with the recovery; we can answer future searches again.
    if (st->extras) {
      st->extras->probes.clear();
      st->extras->given_up_at.reset();
    }
  }

  store_->store(d);
  metrics().on_delivered(self(), d.id, host_.now());
  if (delivery_handler_) delivery_handler_(d);

  if (MessageExtras* x = find_extras(d.id)) {
    for (MemberId w : x->waiters) {
      metrics().on_repair_sent(self(), d.id, /*remote=*/true, host_.now());
      host_.send(w, proto::Message{proto::Repair{d.id, d.payload, true}});
    }
    x->waiters.clear();
    if (x->searching) {
      std::vector<MemberId> all = x->carry;
      for (MemberId m : x->own) {
        if (!contains(all, m)) all.push_back(m);
      }
      for (MemberId rr : all) {
        metrics().on_repair_sent(self(), d.id, /*remote=*/true, host_.now());
        host_.send(rr, proto::Message{proto::Repair{d.id, d.payload, true}});
      }
      close_search(*x);
      announce_found(d.id);  // stop everyone else still searching for us
    }
  }
  release_if_idle(d.id);
  return true;
}

// ----------------------------------------------------- per-message state ----

Endpoint::MessageState* Endpoint::find_state(const MessageId& id) {
  auto it = messages_.find(id);
  return it == messages_.end() ? nullptr : &it->second;
}

Endpoint::MessageExtras* Endpoint::find_extras(const MessageId& id) {
  MessageState* st = find_state(id);
  return st == nullptr ? nullptr : st->extras.get();
}

Endpoint::MessageExtras& Endpoint::extras(const MessageId& id) {
  // One cache line per table slot: every recovering endpoint of a
  // 10^6-member run carries a slot array, so the rare fields stay out of line.
  static_assert(sizeof(std::pair<MessageId, MessageState>) <= 64);
  MessageState& st = state(id);
  if (!st.extras) st.extras = std::make_unique<MessageExtras>();
  return *st.extras;
}

Endpoint::MessageState& Endpoint::state(const MessageId& id) {
  if (MessageState* st = find_state(id)) return *st;
  // Entries that hold only cache stamps are released here, once expired:
  // one walk each time the table has doubled since the last.
  if (messages_.size() >= 2 * sweep_mark_) {
    for (auto it = messages_.begin(); it != messages_.end(); ++it) {
      if (idle(it->second)) messages_.erase(it);
    }
    sweep_mark_ = std::max(messages_.size(), kMinSweepMark);
  }
  return messages_[id];
}

bool Endpoint::idle(const MessageState& st) const {
  if (st.recovering) return false;
  const MessageExtras* x = st.extras.get();
  if (x == nullptr) return true;
  // Each stamp expires under the same comparison its lookup uses.
  TimePoint now = host_.now();
  Duration ttl = cfg_.search_cache_ttl;
  return !x->searching && !x->relay && !x->replying && x->waiters.empty() &&
         (!x->holder_at || now - *x->holder_at > ttl) &&
         (!x->given_up_at || now - *x->given_up_at > ttl) &&
         (!x->announced_at ||
          now - *x->announced_at >= host_.rtt_estimate(self()));
}

void Endpoint::release_if_idle(const MessageId& id) {
  auto it = messages_.find(id);
  if (it != messages_.end() && idle(it->second)) messages_.erase(it);
}

void Endpoint::wait_and_recover(const MessageId& id, MemberId requester) {
  std::vector<MemberId>& w = extras(id).waiters;
  if (!contains(w, requester)) w.push_back(requester);
  for (std::uint64_t gap : tracker(id.source).observe_hint(id.seq)) {
    start_recovery(MessageId{id.source, gap});
  }
}

std::size_t Endpoint::active_recoveries() const {
  std::size_t n = 0;
  for (const auto& [id, st] : messages_) n += st.recovering;
  return n;
}

std::size_t Endpoint::active_searches() const {
  std::size_t n = 0;
  for (const auto& [id, st] : messages_) n += st.extras && st.extras->searching;
  return n;
}

// ------------------------------------------------------------- handlers ----

void Endpoint::handle(const proto::Data& d, MemberId from) {
  if (!d.cursors.empty()) {
    handle_piggyback(d.cursors, from);
    // Strip the piggyback block before storing: buffered, handoff, and
    // repair copies are always the core frame (payload is shared, so this
    // copy is cheap).
    accept(proto::Data{d.id, d.payload});
    return;
  }
  accept(d);
}

void Endpoint::handle(const proto::Session& s, MemberId from) {
  if (!s.cursors.empty()) handle_piggyback(s.cursors, from);
  if (s.source == self()) return;
  for (std::uint64_t gap : tracker(s.source).observe_session(s.highest_seq)) {
    start_recovery(MessageId{s.source, gap});
  }
}

void Endpoint::handle_piggyback(
    const std::vector<proto::ReceiveCursor>& cursors, MemberId from) {
  if (!cfg_.flow.enabled) return;
  if (from == self()) return;  // the multicast loops back
  // Flow control is regional: cursors piggybacked on a *global* Data
  // multicast also reach other regions, where the sender is not a credit
  // peer. Same guard as a departed-member CreditAck.
  if (!host_.local_view().contains(from)) return;
  // A frame in flight when a partition formed can still arrive from a peer
  // now severed from us; installing its cursor would re-wedge the floor
  // on_partition_change just released.
  if (flow_unreachable(from)) return;
  // Same semantics as a CreditAck cursor list: every advertising region
  // peer bounds our window, absent cursor = nothing received yet (0).
  std::uint64_t cursor = 0;
  for (const proto::ReceiveCursor& c : cursors) {
    if (c.source == self()) cursor = c.cursor;
  }
  flow_.on_cursor(from, cursor);
  drain_send_queue();
}

void Endpoint::handle(const proto::LocalRequest& r, MemberId) {
  metrics().on_request_received(self(), r.id, /*remote=*/false, host_.now());
  store_->on_request_seen(r.id);  // feedback for short-term buffering (§3.1)
  if (std::optional<proto::Data> d = store_->get(r.id)) {
    metrics().on_repair_sent(self(), r.id, /*remote=*/false, host_.now());
    host_.send(r.requester,
               proto::Message{proto::Repair{r.id, std::move(d->payload), false}});
    return;
  }
  if (cfg_.hierarchy.enabled && is_representative()) {
    // Aggregation point: the region's NAK funnel lands here, so a miss is
    // ours to recover (escalating up the repair tree as needed). The
    // requester is NOT recorded as a waiter — when the repair arrives it
    // comes back remote and the regional relay covers the whole region; the
    // requester's own retries are the fallback if that relay is lost.
    SequenceTracker& tr = tracker(r.id.source);
    if (!tr.has(r.id.seq)) {
      for (std::uint64_t gap : tr.observe_hint(r.id.seq)) {
        start_recovery(MessageId{r.id.source, gap});
      }
      return;
    }
  }
  // "Otherwise it ignores the request" (§2.2). Starting a recovery here
  // would let one request cascade into region-wide probing for a message
  // that may exist nowhere; the requester's own retries handle it.
}

void Endpoint::handle(const proto::RemoteRequest& r, MemberId) {
  if (answer_or_wait(r.id, r.requester)) return;
  // Case 3: received but discarded — find a bufferer.
  if (redirect_to_holder(r.id, r.requester)) return;
  if (cfg_.search_strategy == Config::SearchStrategy::kMulticastQuery) {
    // Rejected alternative (§3.3): multicast the request; bufferers answer
    // after a randomized back-off.
    metrics().on_search_started(self(), r.id, host_.now());
    host_.multicast_region(
        proto::Message{proto::SearchRequest{r.id, r.requester}});
    return;
  }
  if (cfg_.lookup == BuffererLookup::kHashDirect) {
    // Deterministic scheme [11]: recompute the bufferer set and forward.
    const std::vector<MemberId>& set =
        selector_.select(r.id, host_.local_view().members(), cfg_.hash_k);
    for (MemberId b : set) {
      if (b != self()) {
        host_.send(b, proto::Message{proto::RemoteRequest{r.id, r.requester}});
        return;
      }
    }
    // Fall through to random search if the set is just us (we discarded).
  }
  start_search(r.id, r.requester, /*direct=*/true);
}

void Endpoint::handle(const proto::Escalate& e, MemberId) {
  if (!cfg_.hierarchy.enabled) return;  // config mismatch: drop the frame
  if (e.hop >= cfg_.hierarchy.max_hops) return;  // runaway-forwarding guard
  // Still buffered: the child representative's regional relay then covers
  // its whole sub-region with one multicast. Never received: we recover it,
  // climbing one level higher with the incremented hop.
  if (answer_or_wait(e.id, e.requester)) {
    if (MessageState* st = find_state(e.id); st && st->recovering) {
      st->escalate_hop = std::max(st->escalate_hop, e.hop + 1);
    }
    return;
  }
  // Received but discarded: same bufferer-location path as a RemoteRequest.
  if (redirect_to_holder(e.id, e.requester)) return;
  start_search(e.id, e.requester, /*direct=*/true);
}

bool Endpoint::answer_or_wait(const MessageId& id, MemberId requester) {
  metrics().on_request_received(self(), id, /*remote=*/true, host_.now());
  store_->on_request_seen(id);
  // Case 1 (§3.3): still buffered — answer immediately.
  if (std::optional<proto::Data> d = store_->get(id)) {
    metrics().on_repair_sent(self(), id, /*remote=*/true, host_.now());
    host_.send(requester,
               proto::Message{proto::Repair{id, std::move(d->payload), true}});
    return true;
  }
  // Case 2: never received — record the waiter and relay once we have it.
  if (tracker(id.source).has(id.seq)) return false;
  wait_and_recover(id, requester);
  return true;
}

void Endpoint::handle(const proto::Repair& r, MemberId from) {
  // Close the RTT sample if this repair answers one of our probes.
  if (cfg_.measure_rtt) {
    if (MessageExtras* x = find_extras(r.id)) {
      if (auto target = x->probes.find(from); target != x->probes.end()) {
        rtt_.add_sample(from, host_.now() - target->second);
        x->probes.clear();
      }
    }
  }
  // Duplicate check first (§2.2): only the first copy triggers a regional
  // relay.
  if (tracker(r.id.source).has(r.id.seq)) return;
  proto::Data d{r.id, r.payload};
  accept(d);
  if (r.remote) schedule_regional_relay(d);
}

void Endpoint::handle(const proto::RegionalRepair& r, MemberId) {
  // Another member relayed this message: our own pending relay (if any) is a
  // duplicate — suppress it (§2.2's randomized back-off scheme).
  if (MessageExtras* x = find_extras(r.id); x && x->relay) {
    cancel(x->relay_timer);
    x->relay.reset();
    release_if_idle(r.id);
    metrics().on_relay_suppressed(self(), r.id, host_.now());
  }
  if (tracker(r.id.source).has(r.id.seq)) return;
  accept(proto::Data{r.id, r.payload});
}

void Endpoint::handle(const proto::SearchRequest& r, MemberId) {
  store_->on_request_seen(r.id);
  if (cfg_.search_strategy == Config::SearchStrategy::kMulticastQuery) {
    // Back-off reply: answer only if still buffering, after U(0, unit*C).
    if (store_->has(r.id)) schedule_query_reply(r.id, r.remote_requester);
    return;
  }
  // Bufferer found: repair the remote requester and stop the search (§3.3).
  if (std::optional<proto::Data> d = store_->get(r.id)) {
    metrics().on_repair_sent(self(), r.id, /*remote=*/true, host_.now());
    host_.send(r.remote_requester,
               proto::Message{proto::Repair{r.id, std::move(d->payload), true}});
    announce_found(r.id);
    return;
  }
  if (!tracker(r.id.source).has(r.id.seq)) {
    // Footnote 4: never received it — recover it ourselves, and remember the
    // remote requester so it is served on receipt.
    wait_and_recover(r.id, r.remote_requester);
    return;
  }
  // A completed search may have located the holder already; redirect.
  if (redirect_to_holder(r.id, r.remote_requester)) return;
  // Discarded here too: join the search.
  start_search(r.id, r.remote_requester, /*direct=*/false);
}

void Endpoint::handle(const proto::SearchFound& f, MemberId) {
  MessageExtras& x = remember_holder(f.id, f.holder);
  // Suppress our own pending back-off reply (kMulticastQuery).
  if (x.replying) {
    cancel(x.reply_timer);
    x.replying = false;
    metrics().on_relay_suppressed(self(), f.id, host_.now());
  }
  end_search(f.id, f.holder);
}

void Endpoint::handle(const proto::Handoff& h, MemberId) {
  for (const proto::Data& d : h.messages) {
    if (!tracker(d.id.source).has(d.id.seq)) {
      // We never had this message: deliver it, then upgrade to long-term.
      accept(d);
    }
    store_->accept_handoff(d);
  }
}

void Endpoint::handle(const proto::Gossip& g, MemberId) {
  if (gossip_fd_) gossip_fd_->handle_gossip(g);
}

void Endpoint::handle(const proto::BufferDigest& d, MemberId) {
  if (!cfg_.buffer_coordination.enabled) return;
  if (d.member == self()) return;  // only neighbors count as replicas
  // A digest from the other side of a partition (in flight at the cut, or
  // delivered post-heal after sitting in a queue) describes buffer state we
  // could not reach then and cannot trust now: generations must match.
  if (d.view_gen != view_gen_) return;
  store_->update_digest(d.member, d.bytes_in_use, d.ranges,
                        d.window_outstanding);
  if (cfg_.flow.enabled) {
    // The digest doubles as an occupancy report: a neighbor nearing its
    // budget sheds credit from our window before eviction pressure hits it.
    flow_.on_peer_occupancy(d.member, d.bytes_in_use, d.window_outstanding);
    drain_send_queue();
  }
}

void Endpoint::handle(const proto::CreditAck& a, MemberId) {
  if (!cfg_.flow.enabled) return;
  if (a.member == self()) return;  // the regional multicast loops back
  // An ack can race its sender's departure (in flight when the view
  // dropped the member). Installing its cursor would re-wedge the window
  // floor that retain_peers just released, until the next retain pass —
  // departed members get no credit voice.
  if (!host_.local_view().contains(a.member)) return;
  // A stale-generation ack (sent pre-partition, delivered post-heal) must
  // not regress our view of the peer's reported cursor: the peer re-seeded
  // at the current floor at heal, and only its post-heal acks — stamped
  // with the current generation — speak for it again.
  if (a.view_gen != view_gen_) return;
  // During the partition itself, severed peers get no credit voice at all.
  if (flow_unreachable(a.member)) return;
  // Every acking region peer bounds our window, whether or not it has
  // received anything of our stream yet (absent cursor = nothing, 0).
  std::uint64_t cursor = 0;
  for (const proto::ReceiveCursor& c : a.cursors) {
    if (c.source == self()) cursor = c.cursor;
  }
  flow_.on_cursor(a.member, cursor);
  flow_.on_peer_budget(a.member, a.bytes_in_use, a.budget_bytes);
  drain_send_queue();
}

void Endpoint::handle(const proto::Shed& s, MemberId) {
  if (!cfg_.buffer_coordination.enabled) return;
  // The neighbor is about to discard the region's (believed) last copy; we
  // inherit the bufferer responsibility, exactly like a leave-time handoff:
  // deliver if never received, then keep the copy long-term.
  if (!tracker(s.message.id.source).has(s.message.id.seq)) {
    accept(s.message);
  }
  store_->accept_handoff(s.message);
}

void Endpoint::handle(const proto::History& h, MemberId from) {
  if (cfg_.anti_entropy) pull_from_digest(h, from);
  if (!history_enabled_) return;
  for (const proto::SourceHistory& sh : h.sources) {
    stability_.update(h.member, sh);
  }
  recompute_stability();
}

// ------------------------------------------------------------- recovery ----

void Endpoint::start_recovery(const MessageId& id) {
  if (!active_ || !cfg_.gap_driven_recovery) return;
  if (tracker(id.source).has(id.seq)) return;
  MessageState& st = state(id);
  if (st.recovering) return;
  st.recovering = true;
  st.started = host_.now();
  metrics().on_loss_detected(self(), id, host_.now());
  // The two phases run concurrently (§2.2).
  local_attempt(id);
  remote_attempt(id);
}

MemberId Endpoint::pick_request_target(const MessageId& id,
                                       std::uint32_t attempts) {
  if (cfg_.hierarchy.enabled) {
    // Repair tree: the first NAK goes to the region's aggregation point —
    // deterministic, no RNG draw. Retries fall back to random neighbors in
    // case the representative itself is wedged.
    MemberId rep = region_representative();
    if (rep != kInvalidMember && rep != self() && attempts == 0) {
      return rep;
    }
  }
  if (cfg_.lookup == BuffererLookup::kHashDirect) {
    // Deterministic scheme [11]: ask the hash-selected bufferers directly,
    // round-robin over the set across attempts.
    const std::vector<MemberId>& set =
        selector_.select(id, host_.local_view().members(), cfg_.hash_k);
    bufferer_scratch_.assign(set.begin(), set.end());
    std::erase(bufferer_scratch_, self());
    if (!bufferer_scratch_.empty()) {
      return bufferer_scratch_[attempts % bufferer_scratch_.size()];
    }
  }
  return host_.local_view().pick_random(host_.rng(), self());
}

void Endpoint::local_attempt(const MessageId& id) {
  MessageState* st = find_state(id);
  if (st == nullptr || !st->recovering) return;
  MessageState& task = *st;
  task.local_timer = kNoTimer;
  if (cfg_.hierarchy.enabled && task.local_attempts > 0 &&
      task.remote_timer == kNoTimer && is_representative()) {
    // Representative fail-over: the remote phase was skipped while some
    // other member held the funnel; a re-election (crash, partition bump)
    // can hand it to us mid-recovery. Pick the escalation up from here —
    // at local_attempts == 0 start_recovery drives the remote phase itself.
    remote_attempt(id);
  }
  if (cfg_.max_attempts != 0 && task.local_attempts >= cfg_.max_attempts) {
    return;  // give up on the local phase; remote phase may still succeed
  }
  MemberId q = pick_request_target(id, task.local_attempts);
  if (q == kInvalidMember) {
    // Alone in the region: retry later in case the view grows.
    task.local_timer = schedule(host_.rtt_estimate(self()),
                                [this, id] { local_attempt(id); });
    return;
  }
  ++task.local_attempts;
  metrics().on_request_sent(self(), id, /*remote=*/false, host_.now());
  if (cfg_.measure_rtt) extras(id).probes.try_emplace(q, host_.now());
  host_.send(q, proto::Message{proto::LocalRequest{id, self()}});
  task.local_timer =
      schedule(retry_backoff(request_timeout(q), task.local_attempts - 1),
               [this, id] { local_attempt(id); });
}

void Endpoint::remote_attempt(const MessageId& id) {
  MessageState* st = find_state(id);
  if (st == nullptr || !st->recovering) return;
  MessageState& task = *st;
  task.remote_timer = kNoTimer;
  if (cfg_.hierarchy.enabled) {
    // Multi-level repair: only the region's aggregation point escalates, and
    // it escalates to its *parent region's* aggregation point rather than a
    // random parent member. Non-representatives rely on the representative's
    // funnel (plus their own local retries) — no per-member remote traffic.
    if (!is_representative()) return;
    if (cfg_.max_attempts != 0 && task.remote_attempts >= cfg_.max_attempts) {
      return;
    }
    ++task.remote_attempts;
    MemberId up = parent_representative();
    if (up != kInvalidMember) {
      metrics().on_request_sent(self(), id, /*remote=*/true, host_.now());
      host_.send(up,
                 proto::Message{proto::Escalate{id, self(), task.escalate_hop}});
    } else if (id.source != self()) {
      // Root of the repair tree: last resort is the original sender.
      up = id.source;
      metrics().on_request_sent(self(), id, /*remote=*/true, host_.now());
      host_.send(up, proto::Message{proto::RemoteRequest{id, self()}});
    } else {
      return;  // we are the sender and the root — nobody above us
    }
    task.remote_timer =
        schedule(retry_backoff(request_timeout(up), task.remote_attempts - 1),
                 [this, id] { remote_attempt(id); });
    return;
  }
  const membership::RegionView& parent = host_.parent_view();
  if (parent.empty()) return;  // root region: no remote phase (§2.2)
  if (cfg_.max_attempts != 0 && task.remote_attempts >= cfg_.max_attempts) {
    return;
  }
  ++task.remote_attempts;
  MemberId r = parent.pick_random(host_.rng());
  if (r == kInvalidMember) return;
  // Send with probability lambda/n so that, region-wide, the expected number
  // of remote requests per recovery round is lambda (§2.2). The retry timer
  // is armed whether or not a request was actually sent.
  std::size_t n = std::max<std::size_t>(host_.local_view().size(), 1);
  if (host_.rng().bernoulli(cfg_.lambda / static_cast<double>(n))) {
    if (cfg_.lookup == BuffererLookup::kHashDirect) {
      const std::vector<MemberId>& set =
          selector_.select(id, parent.members(), cfg_.hash_k);
      if (!set.empty()) r = set[task.remote_attempts % set.size()];
    }
    metrics().on_request_sent(self(), id, /*remote=*/true, host_.now());
    host_.send(r, proto::Message{proto::RemoteRequest{id, self()}});
  }
  task.remote_timer =
      schedule(request_timeout(r), [this, id] { remote_attempt(id); });
}

// ---------------------------------------------------------- repair tree ----

void Endpoint::refresh_representatives() {
  std::uint64_t epoch = host_.view_epoch();
  if (rep_cache_valid_ && rep_epoch_ == epoch && rep_generation_ == view_gen_) {
    return;
  }
  // Own-region election excludes peers severed from us by an active
  // partition: an unreachable representative funnels NAKs into a black hole.
  // Folding the connectivity generation into the score re-runs the election
  // deterministically on every partition/heal.
  const std::vector<MemberId>& members = host_.local_view().members();
  if (flow_unreachable_.empty()) {
    local_rep_ =
        repair::elect_representative(members, cfg_.hierarchy.salt, view_gen_);
  } else {
    rep_scratch_.clear();
    for (MemberId m : members) {
      if (!std::binary_search(flow_unreachable_.begin(),
                              flow_unreachable_.end(), m)) {
        rep_scratch_.push_back(m);
      }
    }
    local_rep_ = repair::elect_representative(rep_scratch_,
                                              cfg_.hierarchy.salt, view_gen_);
  }
  parent_rep_ = repair::elect_representative(host_.parent_view().members(),
                                             cfg_.hierarchy.salt, view_gen_);
  rep_cache_valid_ = true;
  rep_epoch_ = epoch;
  rep_generation_ = view_gen_;
}

MemberId Endpoint::region_representative() {
  refresh_representatives();
  return local_rep_;
}

MemberId Endpoint::parent_representative() {
  refresh_representatives();
  return parent_rep_;
}

Duration Endpoint::retry_backoff(Duration base, std::uint32_t attempts) const {
  if (!cfg_.hierarchy.enabled || cfg_.hierarchy.max_backoff_shift == 0) {
    return base;
  }
  std::uint32_t shift = std::min(attempts, cfg_.hierarchy.max_backoff_shift);
  return base * static_cast<std::int64_t>(std::uint64_t{1} << shift);
}

// --------------------------------------------------------------- search ----

bool Endpoint::search_abandoned(const MessageId& id) {
  MessageExtras* x = find_extras(id);
  return x && x->given_up_at &&
         host_.now() - *x->given_up_at <= cfg_.search_cache_ttl;
}

void Endpoint::start_search(const MessageId& id, MemberId requester,
                            bool direct) {
  if (search_abandoned(id)) return;  // recently exhausted max_attempts
  MessageExtras& x = extras(id);
  if (!contains(x.carry, requester)) x.carry.push_back(requester);
  if (direct && !contains(x.own, requester)) x.own.push_back(requester);
  if (x.searching) return;  // already probing; our retry timer is running
  x.searching = true;
  metrics().on_search_started(self(), id, host_.now());
  search_attempt(id);
}

void Endpoint::close_search(MessageExtras& x) {
  cancel(x.search_timer);
  x.searching = false;
  x.search_attempts = 0;
  x.carry.clear();
  x.own.clear();
}

void Endpoint::search_attempt(const MessageId& id) {
  MessageExtras* x = find_extras(id);
  if (x == nullptr || !x->searching) return;
  x->search_timer = kNoTimer;
  if (cfg_.max_attempts != 0 && x->search_attempts >= cfg_.max_attempts) {
    x->given_up_at = host_.now();
    close_search(*x);
    return;
  }
  MemberId q = host_.local_view().pick_random(host_.rng(), self());
  if (q == kInvalidMember) {
    close_search(*x);  // nobody to search: the message is gone from here
    release_if_idle(id);
    return;
  }
  ++x->search_attempts;
  metrics().on_search_hop(self(), q, id, host_.now());
  host_.send(q, proto::Message{proto::SearchRequest{id, x->carry.front()}});
  x->search_timer =
      schedule(request_timeout(q), [this, id] { search_attempt(id); });
}

void Endpoint::end_search(const MessageId& id, MemberId holder) {
  MessageExtras* x = find_extras(id);
  if (x == nullptr || !x->searching) return;
  // The chain that reached the holder served the requester it carried; any
  // requester that contacted us directly might not have been on that chain,
  // so point the holder at them (it answers RemoteRequests from its buffer).
  for (MemberId rr : x->own) {
    host_.send(holder, proto::Message{proto::RemoteRequest{id, rr}});
  }
  close_search(*x);
}

void Endpoint::schedule_query_reply(const MessageId& id, MemberId requester) {
  MessageExtras& x = extras(id);
  if (x.replying) return;  // one reply per query round
  double window_us =
      static_cast<double>(cfg_.query_backoff_unit.us()) * cfg_.query_backoff_c;
  Duration delay = Duration::micros(
      static_cast<std::int64_t>(host_.rng().uniform_real(0.0, window_us)));
  x.replying = true;
  x.reply_to = requester;
  x.reply_timer = schedule(delay, [this, id] { fire_query_reply(id); });
}

void Endpoint::fire_query_reply(const MessageId& id) {
  MessageExtras* x = find_extras(id);
  if (x == nullptr || !x->replying) return;
  MemberId requester = x->reply_to;
  x->replying = false;
  x->reply_timer = kNoTimer;
  release_if_idle(id);
  std::optional<proto::Data> d = store_->get(id);
  if (!d) return;  // discarded while backing off
  metrics().on_repair_sent(self(), id, /*remote=*/true, host_.now());
  host_.send(requester,
             proto::Message{proto::Repair{id, std::move(d->payload), true}});
  // Count every fired back-off reply as a completed-search announcement;
  // duplicates that the window failed to suppress are the "implosion".
  metrics().on_search_completed(self(), id, host_.now());
  host_.multicast_region(proto::Message{proto::SearchFound{id, self()}});
}

void Endpoint::announce_found(const MessageId& id) {
  TimePoint now = host_.now();
  MessageExtras& x = extras(id);
  if (x.announced_at && now - *x.announced_at < host_.rtt_estimate(self())) {
    return;  // straggler probe; the region heard the announcement already
  }
  x.announced_at = now;
  remember_holder(id, self());
  metrics().on_search_completed(self(), id, now);
  host_.multicast_region(proto::Message{proto::SearchFound{id, self()}});
}

bool Endpoint::redirect_to_holder(const MessageId& id, MemberId requester) {
  MessageExtras* x = find_extras(id);
  if (x == nullptr || !x->holder_at ||
      host_.now() - *x->holder_at > cfg_.search_cache_ttl) {
    return false;
  }
  host_.send(x->holder, proto::Message{proto::RemoteRequest{id, requester}});
  return true;
}

Endpoint::MessageExtras& Endpoint::remember_holder(const MessageId& id,
                                                   MemberId holder) {
  MessageExtras& x = extras(id);
  x.holder = holder;
  x.holder_at = host_.now();
  x.given_up_at.reset();  // a holder exists after all
  return x;
}

// ------------------------------------------------------- regional relay ----

void Endpoint::schedule_regional_relay(const proto::Data& d) {
  if (host_.local_view().size() <= 1) return;
  if (MessageExtras* x = find_extras(d.id); x && x->relay) return;
  if (cfg_.regional_backoff <= Duration::zero()) {
    metrics().on_regional_multicast(self(), d.id, host_.now());
    host_.multicast_region(
        proto::Message{proto::RegionalRepair{d.id, d.payload, self()}});
    return;
  }
  // Randomized back-off (§2.2): wait U(0, backoff); another member's relay
  // of the same message suppresses ours.
  Duration delay = Duration::micros(static_cast<std::int64_t>(
      host_.rng().uniform_real(0.0,
                               static_cast<double>(cfg_.regional_backoff.us()))));
  MessageExtras& x = extras(d.id);
  x.relay = d;
  x.relay_timer =
      schedule(delay, [this, id = d.id] { fire_regional_relay(id); });
}

void Endpoint::fire_regional_relay(const MessageId& id) {
  MessageExtras* x = find_extras(id);
  if (x == nullptr || !x->relay) return;
  proto::Data d = std::move(*x->relay);
  x->relay.reset();
  x->relay_timer = kNoTimer;
  release_if_idle(id);
  metrics().on_regional_multicast(self(), id, host_.now());
  host_.multicast_region(
      proto::Message{proto::RegionalRepair{d.id, std::move(d.payload), self()}});
}

// ------------------------------------------------------------ stability ----

proto::History Endpoint::build_history() const {
  proto::History h;
  h.member = self();
  for (const auto& [source, tr] : trackers_) {
    h.sources.push_back(tr.history(source, kHistoryBitmapWords));
  }
  return h;
}

void Endpoint::history_tick() {
  history_timer_ = kNoTimer;
  proto::History h = build_history();
  if (!h.sources.empty()) {
    // Fold our own report in before multicasting so stable_below counts us.
    for (const proto::SourceHistory& sh : h.sources) {
      stability_.update(self(), sh);
    }
    recompute_stability();
    host_.multicast_region(proto::Message{std::move(h)});
  }
  history_timer_ = schedule(cfg_.history_interval, [this] { history_tick(); });
}

void Endpoint::digest_tick() {
  digest_timer_ = kNoTimer;
  // Departed members must stop counting as replica holders or keepers:
  // prune their advertisements against the current view, bounding the
  // staleness of any dead digest at one period.
  store_->retain_digests(host_.local_view().members());
  // Alive-but-severed members (a partition) survive the view prune; their
  // advertisements age out instead once no refresh arrives for a few
  // periods. A connected peer refreshes every period, so its counter
  // oscillates between 0 and 1 and aging never fires in fault-free runs.
  store_->age_digests(cfg_.buffer_coordination.max_missed_digests);
  // Advertise even when empty: a zero bytes_in_use digest is exactly what
  // makes this member the least-loaded shed target.
  proto::BufferDigest d = store_->build_digest();
  d.view_gen = view_gen_;
  if (cfg_.flow.enabled) d.window_outstanding = flow_.outstanding();
  host_.multicast_region(proto::Message{std::move(d)});
  digest_timer_ = schedule(cfg_.buffer_coordination.digest_interval,
                           [this] { digest_tick(); });
}

std::vector<proto::ReceiveCursor> Endpoint::cursor_snapshot() const {
  std::vector<proto::ReceiveCursor> cursors;
  for (const auto& [source, tr] : trackers_) {
    if (source == host_.self()) continue;  // a sender grants itself no credit
    cursors.push_back(proto::ReceiveCursor{source, tr.next_expected() - 1});
  }
  return cursors;  // trackers_ is an ordered map: deterministic order
}

const std::vector<MemberId>& Endpoint::flow_peers() const {
  const std::vector<MemberId>& view = host_.local_view().members();
  if (flow_unreachable_.empty()) return view;
  flow_peers_scratch_.clear();
  for (MemberId m : view) {
    if (!flow_unreachable(m)) flow_peers_scratch_.push_back(m);
  }
  return flow_peers_scratch_;
}

bool Endpoint::flow_unreachable(MemberId m) const {
  return !flow_unreachable_.empty() &&
         std::binary_search(flow_unreachable_.begin(), flow_unreachable_.end(),
                            m);
}

void Endpoint::sync_flow_peers() {
  const std::vector<MemberId>& now = flow_peers();
  if (now == flow_view_) return;
  // Members in the reachable set but not the last snapshot genuinely joined
  // (or just became reachable again at a partition heal): seed their cursor
  // at the current floor so their first (necessarily stale) acks cannot
  // drag the floor back through frames the crowd already acknowledged.
  // Members that were merely quiet stay unseeded — their first real ack is
  // allowed to lower the floor.
  for (MemberId m : now) {
    if (m == self()) continue;
    if (!std::binary_search(flow_view_.begin(), flow_view_.end(), m)) {
      flow_.on_peer_joined(m);
    }
  }
  flow_view_ = now;
}

void Endpoint::on_view_change() {
  if (!active_ || !cfg_.flow.enabled) return;
  // Reconcile credit state NOW, not at the next credit tick: a departed
  // slowest peer otherwise wedges every sender's floor for up to one ack
  // interval (and handle_credit_ack's membership check keeps an in-flight
  // stale ack from re-installing it).
  flow_.retain_peers(flow_peers());
  sync_flow_peers();
  // Dropping the slowest cursor may have freed credit immediately.
  drain_send_queue();
}

void Endpoint::on_partition_change(std::vector<MemberId> unreachable,
                                   std::uint64_t generation) {
  if (!active_) return;
  std::sort(unreachable.begin(), unreachable.end());
  flow_unreachable_ = std::move(unreachable);
  view_gen_ = generation;
  if (!cfg_.flow.enabled) return;
  // Piggyback suppression keys on the advertised cursor set, which a
  // generation bump does not change — force the next credit tick to
  // multicast a fresh, correctly-stamped ack anyway.
  advertised_any_ = false;
  quiet_ticks_ = 0;
  // Partition: release credit bindings to peers we can no longer reach —
  // their frozen cursors must not wedge the window at floor + window for
  // the partition's lifetime. Heal: the other side re-enters flow_peers()
  // and sync_flow_peers seeds it at the current floor, so its first
  // post-heal acks (stamped with the new generation) cannot drag the floor
  // back through the partition-era stream.
  flow_.retain_peers(flow_peers());
  sync_flow_peers();
  drain_send_queue();
}

void Endpoint::credit_tick() {
  credit_timer_ = kNoTimer;
  const membership::RegionView& view = host_.local_view();
  // A departed peer's last cursor must not wedge the window floor, and its
  // occupancy must not pin phantom back-pressure. (on_view_change does this
  // eagerly on hosts that report view changes; the tick remains the
  // transport-independent fallback.)
  flow_.retain_peers(flow_peers());
  sync_flow_peers();
  if (view.size() > 1) {
    proto::CreditAck ack;
    ack.member = self();
    ack.bytes_in_use = store_->bytes();
    ack.budget_bytes = cfg_.buffer_budget.max_bytes;
    ack.cursors = cursor_snapshot();
    ack.view_gen = view_gen_;
    // With piggybacking, the periodic ack is a fallback for quiet
    // receivers: suppress it while our piggybacked frames already carry
    // exactly these cursors, but refresh every few ticks anyway — the
    // frames carrying the last advertisement may have been lost.
    bool suppress = cfg_.flow.piggyback && advertised_any_ &&
                    ack.cursors == advertised_cursors_ &&
                    quiet_ticks_ + 1 < kQuietAckRefreshTicks;
    if (suppress) {
      ++quiet_ticks_;
      metrics().on_credit_ack_suppressed(self(), host_.now());
    } else {
      advertised_cursors_ = ack.cursors;
      advertised_any_ = true;
      quiet_ticks_ = 0;
      metrics().on_credit_ack_sent(self(), host_.now());
      host_.multicast_region(proto::Message{std::move(ack)});
    }
    // A flow-controlled sender keeps its own unacknowledged frames alive:
    // touching them each tick holds them active (never idle-discarded,
    // last in LRU eviction order), so a receiver stuck on a lost frame can
    // always repair from the source and its cursor — and with it our
    // window — can always advance. Without this, one frame evicted
    // region-wide wedges the window forever.
    for (std::uint64_t s = flow_.window_floor() + 1; s <= flow_.send_seq();
         ++s) {
      store_->on_request_seen(MessageId{self(), s});
    }
    // Frames the whole region has acknowledged need no retransmission copy.
    while (!flow_unacked_.empty() &&
           flow_unacked_.front().id.seq <= flow_.window_floor()) {
      flow_unacked_.pop_front();
    }
    // Sender-driven retransmission: when the floor sits still for several
    // ticks with frames outstanding, some receiver is stuck on the frame
    // just past it — usually because its own recovery gave up while copies
    // were scarce (the shared buffer may have evicted every copy, including
    // ours). The retransmission deque still holds it: re-multicast;
    // duplicates are ignored and the stuck cursors advance. The wedging
    // frame is normally at the front, but a floor that moved backward (a
    // peer's first report arriving after faster peers') leaves newer frames
    // ahead of it — search the deque instead of trusting front().
    // Consecutive re-multicasts of the same stall back off exponentially
    // (stall_streak_): a receiver that cannot be unwedged by duplicates —
    // e.g. one behind a partition — should not eat a full multicast every
    // few ticks for as long as the partition lasts.
    if (flow_.outstanding() > 0 && flow_.window_floor() == stall_floor_) {
      if (++stall_ticks_ >= (kStallRetransmitTicks
                             << std::min(stall_streak_, kMaxStallBackoffShift))) {
        stall_ticks_ = 0;
        if (flow_.release_stalled_peers()) {
          // Every floor-holding cursor was a seeded binding ahead of its
          // peer's genuine reports: the peer is backfilling history below
          // the floor (a rejoined member whose pre-crash state was
          // evicted region-wide may never finish), so re-multicasting
          // the frame at the floor could not unwedge it. Not a loss
          // signal — no receiver missed this frame.
          metrics().on_flow_stall_release(self(), host_.now());
          drain_send_queue();
        } else {
          auto wedged = std::find_if(
              flow_unacked_.begin(), flow_unacked_.end(),
              [this](const proto::Data& f) {
                return f.id.seq == stall_floor_ + 1;
              });
          if (wedged != flow_unacked_.end()) {
            metrics().on_flow_stall_remcast(self(), wedged->id, host_.now());
            host_.ip_multicast(proto::Message{*wedged});
            // A stall is the AIMD loss signal: some receiver missed a
            // frame and its recovery did not close the gap in time.
            flow_.on_loss();
            aimd_loss_in_round_ = true;
            ++stall_streak_;
          }
        }
      }
    } else {
      stall_floor_ = flow_.window_floor();
      stall_ticks_ = 0;
      stall_streak_ = 0;
    }
  }
  // AIMD probe round: one additive step per clean round. The round must
  // outlast the slowest peer's feedback loop, so it is the larger of the
  // ack interval and the measured RTT (the topology estimate until
  // measure_rtt has samples).
  if (cfg_.flow.adaptive) {
    Duration rtt = host_.rtt_estimate(self());
    if (cfg_.measure_rtt) rtt = rtt_.max_srtt(rtt);
    Duration round = std::max(cfg_.flow.ack_interval, rtt);
    if (host_.now() - aimd_round_start_ >= round) {
      if (!aimd_loss_in_round_ && flow_.window_floor() > aimd_round_floor_) {
        flow_.on_clean_round();
      }
      aimd_round_start_ = host_.now();
      aimd_round_floor_ = flow_.window_floor();
      aimd_loss_in_round_ = false;
    }
  }
  // Pruning departed peers (or the view shrinking to just us) may have
  // freed credit even without new acks.
  drain_send_queue();
  credit_timer_ = schedule(cfg_.flow.ack_interval, [this] { credit_tick(); });
}

void Endpoint::anti_entropy_tick() {
  anti_entropy_timer_ = kNoTimer;
  // One digest to one uniformly random neighbor per round ([3]).
  MemberId q = host_.local_view().pick_random(host_.rng(), self());
  if (q != kInvalidMember) {
    proto::History h = build_history();
    if (!h.sources.empty()) host_.send(q, proto::Message{std::move(h)});
  }
  anti_entropy_timer_ =
      schedule(cfg_.anti_entropy_interval, [this] { anti_entropy_tick(); });
}

void Endpoint::pull_from_digest(const proto::History& digest, MemberId from) {
  std::uint32_t pulls = 0;
  for (const proto::SourceHistory& sh : digest.sources) {
    SequenceTracker& tr = tracker(sh.source);
    auto sender_has = [&sh](std::uint64_t seq) {
      if (seq < sh.next_expected) return true;
      std::uint64_t off = seq - sh.next_expected;
      std::size_t w = static_cast<std::size_t>(off / 64);
      if (w >= sh.bitmap.size()) return false;
      return ((sh.bitmap[w] >> (off % 64)) & 1) != 0;
    };
    std::uint64_t sender_max =
        sh.next_expected - 1 + 64 * static_cast<std::uint64_t>(sh.bitmap.size());
    for (std::uint64_t seq = std::max<std::uint64_t>(1, tr.next_expected());
         seq <= sender_max && pulls < cfg_.anti_entropy_max_pulls; ++seq) {
      if (tr.has(seq) || !sender_has(seq)) continue;
      // Record that the sequence exists (no gap-driven task is spawned when
      // that engine is off) and pull it straight from the digest's sender.
      (void)tr.observe_hint(seq);
      ++pulls;
      MessageId id{sh.source, seq};
      metrics().on_request_sent(self(), id, /*remote=*/false, host_.now());
      host_.send(from, proto::Message{proto::LocalRequest{id, self()}});
    }
  }
}

void Endpoint::recompute_stability() {
  auto* stab = dynamic_cast<buffer::StabilityPolicy*>(&store_->policy());
  if (stab == nullptr) return;
  const std::vector<MemberId>& expected = host_.local_view().members();
  for (const auto& [source, tr] : trackers_) {
    std::uint64_t stable = stability_.stable_below(source, expected);
    if (stable > 0) stab->mark_stable_below(source, stable);
  }
}

// -------------------------------------------------------------- helpers ----

bool Endpoint::has_received(const MessageId& id) const {
  auto it = trackers_.find(id.source);
  return it != trackers_.end() && it->second.has(id.seq);
}

std::uint64_t Endpoint::received_count() const {
  std::uint64_t total = 0;
  for (const auto& [source, tr] : trackers_) total += tr.received_count();
  return total;
}

std::vector<std::uint64_t> Endpoint::missing_from(MemberId source) const {
  auto it = trackers_.find(source);
  if (it == trackers_.end()) return {};
  return it->second.missing();
}

TimerHandle Endpoint::schedule(Duration d, sim::Callback fn) {
  // halt() cancels every timer scheduled before it and runs only once, so a
  // halted endpoint must not leave a new one behind.
  if (!active_) return kNoTimer;
  return host_.schedule(d, std::move(fn));
}

void Endpoint::cancel(TimerHandle& t) {
  if (t != kNoTimer) {
    host_.cancel(t);
    t = kNoTimer;
  }
}

Duration Endpoint::request_timeout(MemberId peer) const {
  Duration base = host_.rtt_estimate(peer);
  if (cfg_.measure_rtt) base = rtt_.rto(peer, base);
  return base.scaled(cfg_.timeout_factor);
}

}  // namespace rrmp
