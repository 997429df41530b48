#include "rrmp/flow_control.h"

#include <algorithm>
#include <cassert>

namespace rrmp {

FlowControlParams sanitized(FlowControlParams p) {
  if (p.window_size == 0) p.window_size = 1;
  if (p.ack_interval <= Duration::zero()) p.ack_interval = Duration::micros(1);
  if (!(p.pressure_watermark > 0.0) || p.pressure_watermark > 1.0) {
    p.pressure_watermark = 0.75;
  }
  // AIMD bounds: min_window at least one frame and never above the
  // ceiling, window_size (itself at least 1).
  if (p.min_window == 0) p.min_window = 1;
  if (p.min_window > p.window_size) p.min_window = p.window_size;
  return p;
}

FlowController::FlowController(FlowControlParams params,
                               std::size_t self_budget_bytes)
    : params_(sanitized(params)), self_budget_bytes_(self_budget_bytes) {
  // Slot s % (W+1) covers sequence s for s in [send_seq - W, send_seq];
  // slot 0 doubles as the cum(0) = 0 anchor until sequence W+1 reuses it —
  // by which time the floor has necessarily advanced past 0. W is
  // window_size, the largest the window (static or AIMD) can ever reach.
  cum_ring_.assign(std::uint64_t{params_.window_size} + 1, 0);
  cwnd_ = params_.min_window;  // slow start from the floor; AIMD grows it
}

std::uint64_t FlowController::window_floor() const {
  std::uint64_t floor = 0;
  bool first = true;
  for (const auto& [peer, cursor] : cursors_) {
    if (first || cursor < floor) floor = cursor;
    first = false;
  }
  return floor;
}

std::uint64_t FlowController::cum_bytes_at(std::uint64_t seq) const {
  assert(seq + ring_span() >= send_seq_);
  return cum_ring_[seq % cum_ring_.size()];
}

std::uint64_t FlowController::outstanding_bytes() const {
  // A peer that first reports after we already sent (cursor 0, late
  // reporter) can drop the floor further behind send_seq than the
  // cumulative ring covers. Clamp to the covered range: the byte figure
  // then counts the newest ring_span() frames, and the frame-count gate has
  // long since closed the window anyway.
  std::uint64_t floor = window_floor();
  std::uint64_t oldest_covered =
      send_seq_ > ring_span() ? send_seq_ - ring_span() : 0;
  return cum_bytes_total_ - cum_bytes_at(std::max(floor, oldest_covered));
}

bool FlowController::pressured() const {
  if (!params_.backpressure) return false;
  for (const auto& [peer, load] : loads_) {
    std::uint64_t budget =
        load.budget_bytes != 0 ? load.budget_bytes : self_budget_bytes_;
    if (budget == 0) continue;  // unlimited: occupancy carries no pressure
    if (static_cast<double>(load.bytes_in_use) >=
        params_.pressure_watermark * static_cast<double>(budget)) {
      return true;
    }
  }
  return false;
}

std::uint32_t FlowController::effective_window() const {
  std::uint32_t base = current_window();
  if (!pressured()) return base;
  // Multiplicative back-off, crowd-aware: halve, then split what remains
  // across the senders currently advertising outstanding frames. Per-sender
  // windows alone cannot adapt to how many windows are open at once — eight
  // senders at W/2 still aggregate to 4W of in-flight frames, which is
  // exactly the overload the pressure signal is reporting.
  std::uint64_t crowd = 1;  // self
  for (const auto& [peer, load] : loads_) {
    if (load.window_outstanding > 0) ++crowd;
  }
  std::uint64_t halved = std::max<std::uint64_t>(1, base / 2);
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(1, halved / crowd));
}

std::uint64_t FlowController::credits() const {
  std::uint64_t window = effective_window();
  std::uint64_t out = outstanding();
  return out >= window ? 0 : window - out;
}

bool FlowController::may_send(std::size_t frame_bytes) const {
  if (!params_.enabled) return true;  // inert: the unpaced protocol
  std::uint64_t out = outstanding();
  if (out >= effective_window()) return false;
  if (params_.target_budget_bytes != 0 && out > 0 &&
      outstanding_bytes() + frame_bytes > params_.target_budget_bytes) {
    return false;  // byte budget full — but never wedge an idle stream
  }
  return true;
}

void FlowController::on_frame_sent(std::uint64_t seq, std::size_t frame_bytes) {
  assert(seq == send_seq_ + 1 && "frames must enter the wire in order");
  send_seq_ = seq;
  ++frames_sent_;
  cum_bytes_total_ += frame_bytes;
  cum_ring_[seq % cum_ring_.size()] = cum_bytes_total_;
}

void FlowController::on_cursor(MemberId peer, std::uint64_t cursor) {
  // A peer cannot have received past what we sent; a corrupt or reordered
  // ack must not fabricate credit.
  cursor = std::min(cursor, send_seq_);
  auto [rit, rinserted] = reported_.try_emplace(peer, cursor);
  if (!rinserted && cursor > rit->second) rit->second = cursor;
  auto [it, inserted] = cursors_.try_emplace(peer, cursor);
  if (!inserted && cursor > it->second) it->second = cursor;
}

void FlowController::on_peer_budget(MemberId peer, std::uint64_t bytes_in_use,
                                    std::uint64_t budget_bytes) {
  PeerLoad& load = loads_[peer];
  load.bytes_in_use = bytes_in_use;
  load.budget_bytes = budget_bytes;
}

void FlowController::on_peer_occupancy(MemberId peer,
                                       std::uint64_t bytes_in_use,
                                       std::uint64_t window_outstanding) {
  PeerLoad& load = loads_[peer];  // keeps any known budget
  load.bytes_in_use = bytes_in_use;
  load.window_outstanding = window_outstanding;
}

void FlowController::on_peer_joined(MemberId peer) {
  // Seed at the current floor (never above send_seq_ — cursors are clamped
  // on entry, so the min over them can't exceed it either). try_emplace:
  // if the peer somehow reported before the view change delivered, keep the
  // real cursor. on_cursor's monotone update then ignores the joiner's
  // genuine "I have nothing" acks until it catches up past the seed.
  cursors_.try_emplace(peer, window_floor());
}

bool FlowController::release_stalled_peers() {
  if (cursors_.empty()) return false;
  std::uint64_t floor = window_floor();
  if (floor >= send_seq_) return false;  // nothing outstanding to release
  for (const auto& [peer, cursor] : cursors_) {
    if (cursor != floor) continue;
    auto rit = reported_.find(peer);
    std::uint64_t reported = rit == reported_.end() ? 0 : rit->second;
    // An honest floor-holder (its own report reached the binding) is stuck
    // on the frame just past the floor; releasing it would fabricate
    // credit the re-multicast can still earn for real.
    if (reported >= cursor) return false;
  }
  for (auto& [peer, cursor] : cursors_) {
    if (cursor == floor) cursor = floor + 1;
  }
  return true;
}

void FlowController::on_clean_round() {
  if (!params_.adaptive) return;
  if (cwnd_ < params_.window_size) ++cwnd_;
}

void FlowController::on_loss() {
  if (!params_.adaptive) return;
  cwnd_ = std::max(params_.min_window, cwnd_ / 2);
}

void FlowController::retain_peers(const std::vector<MemberId>& alive) {
  auto keep = [&alive](MemberId m) {
    return std::binary_search(alive.begin(), alive.end(), m);
  };
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    it = keep(it->first) ? std::next(it) : cursors_.erase(it);
  }
  for (auto it = reported_.begin(); it != reported_.end();) {
    it = keep(it->first) ? std::next(it) : reported_.erase(it);
  }
  for (auto it = loads_.begin(); it != loads_.end();) {
    it = keep(it->first) ? std::next(it) : loads_.erase(it);
  }
}

}  // namespace rrmp
