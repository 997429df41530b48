// RRMP protocol endpoint: one per group member.
//
// Implements the paper end to end:
//  - loss detection from sequence gaps and session messages (§2.1),
//  - concurrent local + remote recovery phases (§2.2):
//      local: request from a uniformly random region neighbor, retry on an
//             RTT timer;
//      remote: request from a random parent-region member with probability
//              lambda/|region| per attempt (timer armed regardless),
//  - waiter forwarding: a member asked for a message it never received
//    records the requester and relays on receipt (§2.2),
//  - regional multicast of remote repairs, with randomized back-off to
//    suppress duplicates (§2.2),
//  - buffer management by a BufferStore (owned by the endpoint, budgeted
//    via Config::buffer_budget) driven by a pluggable RetentionPolicy;
//    retransmission requests feed the two-phase policy's idle detection
//    (§3.1),
//  - random search for a bufferer of a discarded message (§3.3), terminated
//    by an "I have the message" regional multicast,
//  - long-term buffer handoff on voluntary leave (§3.2),
//  - optional cooperative region-wide budgets: periodic BufferDigest gossip
//    advertising the held id set + bytes in use, replica-aware eviction, and
//    shed handoffs pushing sole-copy entries to the least-loaded neighbor
//    under budget pressure (Config::buffer_coordination),
//  - optional deterministic hash-direct lookup instead of randomized
//    search, reproducing the authors' earlier scheme [11] (§3.4),
//  - optional history exchange driving the stability-detection baseline,
//  - optional hierarchical repair trees (Config::hierarchy): each region's
//    rendezvous-elected representative aggregates the region's NAKs —
//    members direct their first local request at it, non-representatives
//    skip the remote phase entirely, and only representatives escalate a
//    miss (one Escalate frame) to the parent region's representative; the
//    root region's representative falls back to the original sender.
//    Hierarchy-mode retries back off exponentially so retry traffic stays
//    bounded at million-member scale.
//
// The endpoint is transport-agnostic: it talks only to an IHost, so the same
// code runs on the discrete-event simulator and on loopback UDP sockets.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "buffer/hash_based.h"
#include "buffer/policy.h"
#include "common/flat_map.h"
#include "buffer/stability.h"
#include "buffer/store.h"
#include "rrmp/config.h"
#include "rrmp/flow_control.h"
#include "rrmp/gossip_fd.h"
#include "rrmp/host.h"
#include "rrmp/metrics.h"
#include "rrmp/rtt_estimator.h"
#include "rrmp/sequence_tracker.h"

namespace rrmp {

class Endpoint {
 public:
  /// `metrics` may be nullptr. The policy must be unbound; the endpoint
  /// builds a BufferStore around it (budgeted by config.buffer_budget) and
  /// binds the pair to its own PolicyEnv.
  Endpoint(IHost& host, Config config,
           std::unique_ptr<buffer::RetentionPolicy> policy,
           MetricsSink* metrics = nullptr);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- application interface -----------------------------------------

  /// Multicast a new message to the whole group (this member is the
  /// sender). Returns the assigned id. With flow control enabled
  /// (Config::flow), a frame that exceeds the send window is queued and
  /// transmitted — in id order — as peer credit arrives; the id is
  /// assigned immediately either way.
  MessageId multicast(std::vector<std::uint8_t> payload);

  /// Called once for each distinct message received (any order).
  void set_delivery_handler(std::function<void(const proto::Data&)> fn) {
    delivery_handler_ = std::move(fn);
  }

  /// Gracefully leave the group: hand the long-term buffer to randomly
  /// selected region members (§3.2) and stop all activity.
  void leave();

  /// Stop without handoff (crash in tests; also used on shutdown). Cancels
  /// every timer the endpoint and its buffer policy scheduled and refuses
  /// new ones, so no callback can reach a halted or destroyed endpoint.
  void halt();

  // --- transport interface --------------------------------------------

  /// Feed an incoming message (the host's receive path calls this).
  void handle_message(const proto::Message& msg, MemberId from);

  /// The region view changed (join/leave/crash). Flow-control credit state
  /// is reconciled *now* rather than at the next credit tick: departed
  /// peers' cursors stop wedging the window floor immediately, and a
  /// joiner's cursor is seeded at the current floor so its first (empty)
  /// acks cannot drag the floor back to 0. No-op when flow is off.
  void on_view_change();

  /// Connectivity changed (fault injection: a partition formed or healed).
  /// `unreachable` lists the region peers that are alive-but-severed from
  /// this member; `generation` is the cluster's connectivity generation,
  /// stamped on outgoing CreditAcks/BufferDigests and checked on receipt so
  /// credit state that crossed a partition boundary is rejected wholesale.
  /// Credit bindings to newly unreachable peers are released immediately —
  /// a severed peer must not wedge the window floor for the partition's
  /// lifetime — and at heal the other side re-seeds at the current floor,
  /// exactly like genuine joiners. Never called in fault-free runs.
  void on_partition_change(std::vector<MemberId> unreachable,
                           std::uint64_t generation);

  // --- introspection ----------------------------------------------------

  MemberId self() const { return host_.self(); }
  bool active() const { return active_; }
  const buffer::BufferStore& buffer() const { return *store_; }
  buffer::BufferStore& buffer() { return *store_; }

  bool has_received(const MessageId& id) const;
  std::uint64_t received_count() const;
  std::size_t active_recoveries() const;
  std::size_t active_searches() const;
  /// Message ids with any per-message state (open work or unexpired cache
  /// stamps); bounded by the live set, not by run length.
  std::size_t tracked_messages() const { return messages_.size(); }
  std::uint64_t highest_sent() const { return send_seq_; }

  /// Flow-control window state (meaningful when config.flow.enabled).
  const FlowController& flow() const { return flow_; }
  /// Connectivity generation last reported by on_partition_change (0 in
  /// fault-free runs).
  std::uint64_t view_generation() const { return view_gen_; }
  /// Frames admitted by multicast() but not yet transmitted (window full).
  std::size_t queued_sends() const { return send_queue_.size(); }

  /// Missing sequence numbers currently known for `source`.
  std::vector<std::uint64_t> missing_from(MemberId source) const;

  /// Start the gossip failure detector (optional; suspicion is reported to
  /// on_suspect so the host can filter its views).
  void enable_gossip_fd(GossipConfig config,
                        std::function<void(MemberId, bool)> on_suspect);

  /// Measured-RTT state (populated when config.measure_rtt is set).
  const RttEstimator& rtt_estimator() const { return rtt_; }

 private:
  // PolicyEnv implementation handed to the buffer policy.
  class Env final : public buffer::PolicyEnv {
   public:
    explicit Env(Endpoint& ep) : ep_(ep) {}
    TimePoint now() const override;
    std::uint64_t schedule(Duration d, sim::Callback fn) override;
    void cancel(std::uint64_t timer) override;
    RandomEngine& rng() override;
    std::size_t region_size() const override;
    const std::vector<MemberId>& region_members() const override;
    MemberId self() const override;
    buffer::BudgetState budget() const override;

   private:
    Endpoint& ep_;
  };

  /// The rare part of a message's state, allocated on first use.
  struct MessageExtras {
    /// Requesters to serve on receipt (§2.2 waiters).
    std::vector<MemberId> waiters;
    /// Local probes of the open recovery, for RTT sampling: when we FIRST
    /// probed each target, which avoids Karn's retransmission ambiguity.
    std::map<MemberId, TimePoint> probes;
    /// Random search for a bufferer (§3.3), open while `searching`. `carry`:
    /// requesters carried in outgoing SearchRequests (front is forwarded).
    /// `own`: requesters that contacted *this* member directly; when another
    /// chain finds the holder, they are forwarded to it, never left unserved.
    bool searching = false;
    std::uint32_t search_attempts = 0;
    TimerHandle search_timer = kNoTimer;
    std::vector<MemberId> carry;
    std::vector<MemberId> own;
    /// Pending regional relay of a remote repair (§2.2 back-off).
    std::optional<proto::Data> relay;
    TimerHandle relay_timer = kNoTimer;
    /// kMulticastQuery strategy: a bufferer's delayed "I have it" reply.
    bool replying = false;
    MemberId reply_to = kInvalidMember;
    TimerHandle reply_timer = kNoTimer;
    /// Cache stamps: a search located `holder` (fresh for search_cache_ttl);
    /// we last multicast SearchFound (fresh for one intra-region RTT); our
    /// search exhausted max_attempts (fresh for search_cache_ttl) — without
    /// it, other searchers' probes would resurrect a futile search forever.
    MemberId holder = kInvalidMember;
    std::optional<TimePoint> holder_at;
    std::optional<TimePoint> announced_at;
    std::optional<TimePoint> given_up_at;
  };

  /// Everything this member tracks about one message id. The recovery
  /// fields (§2.2) are hot and inline, open while `recovering`.
  struct MessageState {
    TimePoint started;
    TimerHandle local_timer = kNoTimer;
    TimerHandle remote_timer = kNoTimer;
    std::uint32_t local_attempts = 0;
    std::uint32_t remote_attempts = 0;
    /// Hierarchy mode: escalation levels already climbed to reach us. 0 for
    /// a gap we detected ourselves; an escalation-triggered recovery carries
    /// the incoming hop + 1, so a cyclic (misconfigured) topology trips the
    /// max_hops guard instead of forwarding forever.
    std::uint32_t escalate_hop = 0;
    bool recovering = false;
    std::unique_ptr<MessageExtras> extras;
  };

  // Message handlers, one overload per wire type.
  void handle(const proto::Data& d, MemberId from);
  void handle(const proto::Session& s, MemberId from);
  void handle(const proto::LocalRequest& r, MemberId from);
  void handle(const proto::RemoteRequest& r, MemberId from);
  void handle(const proto::Repair& r, MemberId from);
  void handle(const proto::RegionalRepair& r, MemberId from);
  void handle(const proto::SearchRequest& r, MemberId from);
  void handle(const proto::SearchFound& r, MemberId from);
  void handle(const proto::Handoff& h, MemberId from);
  void handle(const proto::Gossip& g, MemberId from);
  void handle(const proto::History& h, MemberId from);
  void handle(const proto::BufferDigest& d, MemberId from);
  void handle(const proto::Shed& s, MemberId from);
  void handle(const proto::CreditAck& a, MemberId from);
  void handle(const proto::Escalate& e, MemberId from);

  // Reception path shared by data/repair/regional-repair/handoff.
  // Returns true if the message was new.
  bool accept(const proto::Data& d);

  // Per-message state table. state() and extras() insert, which may
  // rehash: never hold a MessageState& across a call that can insert
  // another id.
  MessageState* find_state(const MessageId& id);
  MessageExtras* find_extras(const MessageId& id);
  MessageState& state(const MessageId& id);
  MessageExtras& extras(const MessageId& id);
  /// True when nothing in `st` is live: no open recovery or search, no
  /// pending relay or reply, no waiter, and every cache stamp expired.
  bool idle(const MessageState& st) const;
  /// Erase the entry for `id` if it is idle. Entries holding only stamps are
  /// reclaimed by the sweep in state() once their stamps expire.
  void release_if_idle(const MessageId& id);
  /// Record a requester for a message we never received and recover it.
  void wait_and_recover(const MessageId& id, MemberId requester);
  /// RemoteRequest/Escalate cases 1 and 2 (§3.3): repair `requester` from
  /// our buffer, or wait for a message we never received. False when we
  /// received it and discarded it since.
  bool answer_or_wait(const MessageId& id, MemberId requester);

  // Recovery.
  void start_recovery(const MessageId& id);
  void local_attempt(const MessageId& id);
  void remote_attempt(const MessageId& id);
  MemberId pick_request_target(const MessageId& id, std::uint32_t attempts);

  // Hierarchical repair (cfg_.hierarchy). Representatives are recomputed
  // lazily whenever the host's view epoch or the connectivity generation
  // moved; election excludes partition-severed peers so an unreachable
  // representative never blackholes the region's NAK funnel.
  void refresh_representatives();
  MemberId region_representative();
  MemberId parent_representative();
  bool is_representative() { return region_representative() == self(); }
  /// Hierarchy-mode retry pacing: `base` doubled per prior attempt, capped
  /// at base << hierarchy.max_backoff_shift. Identity outside hierarchy mode.
  Duration retry_backoff(Duration base, std::uint32_t attempts) const;

  // Search (§3.3). `direct`: the requester contacted us itself (it joins
  // `own` as well as `carry`).
  void start_search(const MessageId& id, MemberId requester, bool direct);
  void search_attempt(const MessageId& id);
  void end_search(const MessageId& id, MemberId holder);
  void close_search(MessageExtras& x);
  void schedule_query_reply(const MessageId& id, MemberId requester);
  void fire_query_reply(const MessageId& id);
  /// Point `requester` at the holder a recent search located, if that is
  /// still fresh; false when there is none.
  bool redirect_to_holder(const MessageId& id, MemberId requester);
  MessageExtras& remember_holder(const MessageId& id, MemberId holder);
  /// A search for `id` recently exhausted max_attempts here.
  bool search_abandoned(const MessageId& id);
  /// Multicast "I have the message" unless we already announced it within
  /// the last intra-region RTT (straggler probes must not cause a storm of
  /// re-announcements).
  void announce_found(const MessageId& id);

  // Regional relay of remote repairs.
  void schedule_regional_relay(const proto::Data& d);
  void fire_regional_relay(const MessageId& id);

  // Stability baseline support.
  void history_tick();
  void recompute_stability();

  // Anti-entropy engine (Bimodal Multicast [3]).
  void anti_entropy_tick();
  void pull_from_digest(const proto::History& digest, MemberId from);
  proto::History build_history() const;

  // Session messages (sender only).
  void session_tick();

  // Cooperative budget coordination: periodic regional digest multicast.
  void digest_tick();

  // Flow control (Config::flow): periodic CreditAck multicast + queue drain.
  void credit_tick();
  /// True when the window admits a frame of `bytes` right now (always true
  /// when alone in the region: there is no peer to grant credit).
  bool flow_admits(std::size_t bytes) const;
  /// Assign the wire sequence, deliver locally, and transmit one frame.
  void transmit_frame(proto::Data d);
  /// Transmit queued frames while credit allows.
  void drain_send_queue();
  /// This member's per-source receive cursors — the payload of a CreditAck
  /// and of the piggyback block on outgoing Data/Session frames.
  std::vector<proto::ReceiveCursor> cursor_snapshot() const;
  /// Apply a piggybacked cursor block from a region peer's Data/Session
  /// frame (same credit semantics as a CreditAck's cursor list).
  void handle_piggyback(const std::vector<proto::ReceiveCursor>& cursors,
                        MemberId from);
  /// Diff the current reachable peer set against flow_view_ and seed
  /// cursors for members that genuinely joined — or just became reachable
  /// again at a partition heal (churn-safe credit state).
  void sync_flow_peers();
  /// The live view minus currently-unreachable peers (flow control's peer
  /// universe). Returns the view itself when no partition is active.
  const std::vector<MemberId>& flow_peers() const;
  /// True when an active partition severs us from `m`.
  bool flow_unreachable(MemberId m) const;

  // Helpers.
  TimerHandle schedule(Duration d, sim::Callback fn);
  void cancel(TimerHandle& t);
  Duration request_timeout(MemberId peer) const;
  MetricsSink& metrics() { return *metrics_; }
  SequenceTracker& tracker(MemberId source) { return trackers_[source]; }

  IHost& host_;
  Config cfg_;
  Env env_;
  std::unique_ptr<buffer::BufferStore> store_;
  NullSink null_sink_;
  MetricsSink* metrics_;
  std::function<void(const proto::Data&)> delivery_handler_;

  bool active_ = true;
  std::uint64_t send_seq_ = 0;  // last sequence sent (this member as sender)
  /// Last sequence *assigned* by multicast(). With flow control off this
  /// always equals send_seq_; with it on, ids in (send_seq_, next_app_seq_]
  /// sit in send_queue_ awaiting credit. Session messages announce only
  /// send_seq_ — an unsent frame must not be reported as a loss.
  std::uint64_t next_app_seq_ = 0;
  TimerHandle session_timer_ = kNoTimer;
  TimerHandle history_timer_ = kNoTimer;
  TimerHandle anti_entropy_timer_ = kNoTimer;
  TimerHandle digest_timer_ = kNoTimer;
  TimerHandle credit_timer_ = kNoTimer;

  // Flow control state (inert when cfg_.flow.enabled is false).
  FlowController flow_;
  std::deque<proto::Data> send_queue_;  // admitted, not yet transmitted
  /// Stall detection for sender-driven retransmission: the window floor as
  /// of the last credit tick, and how many ticks it has sat still with
  /// frames outstanding. Receiver-side recovery can give up (max_attempts)
  /// while our pinned copy of the blocking frame still exists — without a
  /// sender retransmit that one frame wedges the window forever.
  std::uint64_t stall_floor_ = 0;
  std::uint32_t stall_ticks_ = 0;
  static constexpr std::uint32_t kStallRetransmitTicks = 3;
  /// Consecutive stall re-multicasts of the same wedged floor: each one
  /// doubles the tick threshold before the next (up to
  /// kStallRetransmitTicks << kMaxStallBackoffShift), so a receiver that is
  /// genuinely gone stops drawing a region-wide re-multicast every few
  /// ticks. Reset the moment the floor advances.
  std::uint32_t stall_streak_ = 0;
  static constexpr std::uint32_t kMaxStallBackoffShift = 3;
  /// Transmitted frames not yet below the window floor, oldest first. The
  /// sender is the retransmission source of last resort for its own window:
  /// the BufferStore may evict these copies under budget pressure (they
  /// compete with every other sender's frames), but the window cannot move
  /// past a frame some receiver never got. Bounded by the window size plus
  /// any transient floor drop, i.e. a handful of frames.
  std::deque<proto::Data> flow_unacked_;
  /// Region membership as of the last flow reconciliation; diffed against
  /// the live view to tell genuine joiners (seed their cursor at the floor)
  /// from peers that merely have not acked yet (who must keep their right
  /// to drag the floor back when their first real ack arrives).
  std::vector<MemberId> flow_view_;
  /// Fault injection: region peers severed from us by an active partition
  /// (sorted; empty in fault-free runs) and the cluster's connectivity
  /// generation, stamped on outgoing credit state and matched on receipt.
  std::vector<MemberId> flow_unreachable_;
  std::uint64_t view_gen_ = 0;
  mutable std::vector<MemberId> flow_peers_scratch_;

  // AIMD probe-round state (cfg_.flow.adaptive). A round is the larger of
  // ack_interval and the measured RTT of the slowest peer; a round in which
  // the floor advanced with no stall grows the window by one.
  TimePoint aimd_round_start_{};
  std::uint64_t aimd_round_floor_ = 0;
  bool aimd_loss_in_round_ = false;

  // Cursor piggybacking (cfg_.flow.piggyback): the cursor set most recently
  // advertised on any channel (piggybacked frame or CreditAck). The credit
  // tick suppresses its CreditAck while the live snapshot still equals this
  // — but refreshes at least every kQuietAckRefreshTicks ticks, because a
  // lost piggybacked frame would otherwise leave peers stale indefinitely.
  std::vector<proto::ReceiveCursor> advertised_cursors_;
  bool advertised_any_ = false;
  std::uint32_t quiet_ticks_ = 0;
  static constexpr std::uint32_t kQuietAckRefreshTicks = 8;

  // Hierarchical-repair representative cache (cfg_.hierarchy.enabled);
  // rep_epoch_ mirrors host_.view_epoch() and rep_generation_ mirrors
  // view_gen_ as of the last election.
  MemberId local_rep_ = kInvalidMember;
  MemberId parent_rep_ = kInvalidMember;
  bool rep_cache_valid_ = false;
  std::uint64_t rep_epoch_ = 0;
  std::uint64_t rep_generation_ = 0;
  std::vector<MemberId> rep_scratch_;

  std::map<MemberId, SequenceTracker> trackers_;
  RttEstimator rtt_;
  // All per-message state, in one flat open-addressing table: at
  // million-member scale the recovery churn outgrows unordered_map's node
  // traffic. sweep_mark_ is the table size after the last idle sweep; the
  // next one runs when the table has doubled since.
  common::FlatMap<MessageId, MessageState> messages_;
  static constexpr std::size_t kMinSweepMark = 8;
  std::size_t sweep_mark_ = kMinSweepMark;

  // Stability baseline state.
  buffer::StabilityTracker stability_;
  bool history_enabled_ = false;

  // Scratch for hash-direct bufferer lookups (reused, no per-call allocs).
  buffer::BuffererSelector selector_;
  std::vector<MemberId> bufferer_scratch_;

  std::unique_ptr<GossipFailureDetector> gossip_fd_;
};

}  // namespace rrmp
