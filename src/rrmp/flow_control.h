// Windowed send admission with credit-based feedback (flow control).
//
// The paper's buffer optimizations assume senders are paced; without
// admission control a flash crowd of senders overruns every per-member and
// region budget simultaneously and the coordination loop can only shuffle
// losses around. This module adds the missing pacing, adapting two proven
// designs:
//
//   - Derecho's SST multicast window: a sender may have at most
//     `window_size` Data frames outstanding (sent but not yet acknowledged
//     by every region peer). Receivers advertise per-source receive cursors
//     (the highest contiguously received sequence, the analogue of
//     Derecho's num_received counters) in periodic CreditAck frames; the
//     minimum cursor across peers is the window floor, and each cursor
//     advance releases credits.
//   - DFI's BufferWriterMulticast target budgets: an optional cap on the
//     outstanding *bytes* in flight, so a slow receiver throttles only its
//     sender's stream, never the region.
//
// Region-aware back-pressure: peers advertise buffer occupancy (bytes in
// use vs budget) in both CreditAck frames and the BufferDigest gossip. When
// any peer is at or past the pressure watermark, the sender halves its
// effective window — shedding credit from the senders *before* eviction
// pressure hits the receiver's buffer.
//
// FlowController is pure state (no host, no timers, no RNG): the Endpoint
// feeds it acks/digests and asks may_send() before transmitting; deferred
// frames wait in the endpoint's FIFO queue. Everything is inert unless
// FlowControlParams::enabled is set — the disabled protocol is bit-identical
// to the unpaced one.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace rrmp {

struct FlowControlParams {
  /// Master switch; everything below is inert when false.
  bool enabled = false;

  /// Maximum outstanding (sent, not yet peer-acknowledged) Data frames per
  /// sender — the slot-ring size. Sanitized to >= 1.
  std::uint32_t window_size = 32;

  /// Cap on outstanding wire bytes per sender (DFI-style target budget);
  /// 0 = frames-only windowing. A frame is always admitted when nothing is
  /// outstanding, so one oversized frame can never wedge the stream.
  std::size_t target_budget_bytes = 0;

  /// Period of the receiver-side CreditAck multicast (receive cursors +
  /// buffer occupancy). Keep at or below the RTT for a responsive window.
  Duration ack_interval = Duration::millis(10);

  /// Region-aware back-pressure: halve the effective window while any peer
  /// advertises occupancy at or past `pressure_watermark` of its budget.
  bool backpressure = true;
  double pressure_watermark = 0.75;

  /// AIMD window sizing. When on, the live window starts at `min_window`
  /// and grows by one frame per *clean credit round* (a probe period — the
  /// larger of ack_interval and the measured RTT — in which the floor
  /// advanced with no stall), and halves on an observed loss/stall, bounded
  /// to [min_window, window_size]. Off (the default): the window is the
  /// static `window_size`.
  bool adaptive = false;
  std::uint32_t min_window = 2;

  /// Piggyback this member's receive cursors on its outgoing Data/Session
  /// frames and suppress the periodic CreditAck multicast while those
  /// piggybacked cursors are fresh — CreditAck becomes a fallback for quiet
  /// receivers (plus a periodic refresh in case frames were lost).
  bool piggyback = false;

  friend bool operator==(const FlowControlParams&,
                         const FlowControlParams&) = default;
};

/// Per-sender window state: outstanding frames/bytes against the minimum
/// peer receive cursor, plus the region occupancy view driving back-pressure.
/// All containers are ordered maps so every decision is deterministic across
/// runs and shard counts.
class FlowController {
 public:
  FlowController() : FlowController(FlowControlParams{}, 0) {}
  /// `self_budget_bytes` is the fallback budget used to judge a peer's
  /// advertised occupancy when the peer has not reported its own budget
  /// (BufferDigest carries bytes only); 0 = unlimited, never pressured.
  FlowController(FlowControlParams params, std::size_t self_budget_bytes);

  // --- sender side --------------------------------------------------------

  /// May a frame of `frame_bytes` wire bytes be transmitted now?
  bool may_send(std::size_t frame_bytes) const;

  /// Record a transmitted frame. `seq` must be exactly send_seq() + 1 —
  /// frames enter the wire in sequence order, which is what keeps the
  /// cumulative-bytes ring covering [floor, send_seq].
  void on_frame_sent(std::uint64_t seq, std::size_t frame_bytes);

  /// Record a deferred admission (frame queued instead of sent).
  void note_deferred() { ++frames_deferred_; }

  // --- feedback -----------------------------------------------------------

  /// A peer acknowledged contiguous receipt of our stream through `cursor`
  /// (0 = nothing yet). Monotone: stale acks never retract credit.
  void on_cursor(MemberId peer, std::uint64_t cursor);

  /// Peer occupancy from a CreditAck (carries the peer's own budget).
  void on_peer_budget(MemberId peer, std::uint64_t bytes_in_use,
                      std::uint64_t budget_bytes);

  /// Peer occupancy from the BufferDigest gossip: buffer bytes (judged
  /// against the peer's last reported budget, else self_budget_bytes) plus
  /// the peer's own advertised window occupancy — the crowd signal that
  /// splits the pressured window across concurrent senders.
  void on_peer_occupancy(MemberId peer, std::uint64_t bytes_in_use,
                         std::uint64_t window_outstanding);

  /// Drop state for peers no longer in `alive` (departed members must not
  /// wedge the window floor or pin phantom pressure). Sorted view expected.
  void retain_peers(const std::vector<MemberId>& alive);

  /// A member joined the region mid-stream: seed its cursor at the current
  /// window floor instead of letting its first ack (necessarily 0 — it has
  /// received nothing contiguously) drag the floor back to 0 and inflate
  /// outstanding() past the window. on_cursor's monotonicity then holds the
  /// seed until the joiner genuinely catches up; the joiner backfills the
  /// older frames through the recovery path, not the flow window.
  void on_peer_joined(MemberId peer);

  /// Liveness escape hatch for a window wedged on *seeded* cursors: a peer
  /// whose binding sits at the floor but who never genuinely reported that
  /// high is still backfilling history *below* the floor (a rejoined member
  /// whose pre-crash state was evicted region-wide may never finish), so
  /// re-multicasting the frame at the floor cannot unwedge it. When every
  /// floor-holding peer is in that state, advance their bindings one frame
  /// and return true; reliability for the skipped history stays with the
  /// recovery layer. If any floor holder honestly reported the floor this
  /// returns false and changes nothing — that stall belongs to the
  /// re-multicast path. Never fires in churn-free runs: without seeding,
  /// bindings equal reports by construction.
  bool release_stalled_peers();

  // --- AIMD (adaptive window sizing) --------------------------------------

  /// A clean probe round elapsed (floor advanced, no stall observed):
  /// additive increase by one frame, capped at params().window_size. No-op
  /// unless params().adaptive.
  void on_clean_round();

  /// Loss/stall observed on our stream (a stall re-multicast fired):
  /// multiplicative decrease — halve, floored at min_window. No-op unless
  /// params().adaptive.
  void on_loss();

  // --- introspection ------------------------------------------------------

  std::uint64_t send_seq() const { return send_seq_; }
  /// Minimum receive cursor over reporting peers (0 until anyone reports).
  std::uint64_t window_floor() const;
  /// True backlog: may exceed window_size transiently when a late-joining
  /// peer first reports a cursor of 0 (its recovery of the earlier frames
  /// catches the cursor up; until then the window stays closed).
  std::uint64_t outstanding() const { return send_seq_ - window_floor(); }
  /// Bytes of the unacknowledged tail, clamped to the newest frames the
  /// cumulative ring covers (window_size; see outstanding()).
  std::uint64_t outstanding_bytes() const;
  /// Credits available right now: effective_window() - outstanding(),
  /// clamped at 0. Never exceeds current_window() by construction.
  std::uint64_t credits() const;
  /// The AIMD-governed base window: cwnd when adaptive, else the static
  /// window_size knob.
  std::uint32_t current_window() const {
    return params_.adaptive ? cwnd_ : params_.window_size;
  }
  /// current_window() while the region is unpressured. Under pressure (any
  /// peer at or past the occupancy watermark): halved, then split evenly
  /// across the senders currently advertising outstanding frames in the
  /// digest gossip (min 1) — a lone sender backs off a little, a flash crowd
  /// backs off to a trickle that the receivers' budgets can actually absorb.
  std::uint32_t effective_window() const;
  bool pressured() const;

  // Exact goodput accounting (asserted by the property tests).
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t bytes_sent() const { return cum_bytes_total_; }
  std::uint64_t frames_deferred() const { return frames_deferred_; }

  const FlowControlParams& params() const { return params_; }

 private:
  std::uint64_t cum_bytes_at(std::uint64_t seq) const;
  /// How far behind send_seq_ the cumulative ring reaches (= ring size - 1).
  std::uint64_t ring_span() const { return cum_ring_.size() - 1; }

  FlowControlParams params_;
  std::size_t self_budget_bytes_ = 0;
  /// AIMD congestion window; meaningful only when params_.adaptive.
  std::uint32_t cwnd_ = 1;

  std::uint64_t send_seq_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_deferred_ = 0;
  std::uint64_t cum_bytes_total_ = 0;

  /// Ring of cumulative byte counts: ring_[s % (window_size+1)] holds the
  /// total bytes through sequence s, for every s in [send_seq - window_size,
  /// send_seq] — the floor can never lag further than the window allows, so
  /// outstanding_bytes() is always covered.
  std::vector<std::uint64_t> cum_ring_;

  /// peer -> highest acknowledged contiguous sequence of our stream.
  std::map<MemberId, std::uint64_t> cursors_;

  /// peer -> highest cursor the peer *itself* ever reported this
  /// incarnation (monotone; erased with cursors_ on departure). Diverges
  /// from cursors_ only when on_peer_joined seeded the binding above the
  /// joiner's truth — the signal release_stalled_peers keys on.
  std::map<MemberId, std::uint64_t> reported_;

  struct PeerLoad {
    std::uint64_t bytes_in_use = 0;
    std::uint64_t budget_bytes = 0;  // 0 = not reported / unlimited
    /// The peer's advertised sender-window occupancy (BufferDigest gossip):
    /// nonzero marks it a concurrent sender for the crowd split.
    std::uint64_t window_outstanding = 0;
  };
  std::map<MemberId, PeerLoad> loads_;
};

/// Clamp nonsensical knob values (window 0, non-positive ack period,
/// watermark outside (0, 1], min_window of 0 or above window_size) to
/// safe ones; mirrors Config sanitizing.
FlowControlParams sanitized(FlowControlParams p);

}  // namespace rrmp
