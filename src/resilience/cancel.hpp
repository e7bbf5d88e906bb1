#pragma once
// Cooperative cancellation for long-running simulations.
//
// A CancelToken is a tiny shared flag that hot loops (Machine's event
// loop, BankArray service, ThreadPool::parallel_for, SweepRunner) poll
// at safe stopping points. It can trip three ways:
//   * cancel()         — explicit, or from a SIGINT/SIGTERM handler
//                        (ScopedSignalCancel); cause kSignal/kCancelled;
//   * set_deadline()   — wall-clock budget (--deadline=SECONDS) expires;
//                        cause kDeadline;
//   * set_stall()      — the gap between two progress beacons
//                        (heartbeat()) exceeds the stall window (a wedged
//                        event loop, --stall-timeout=S); cause kStalled.
// Deadline and stall window are both checked when the token is polled
// (expired()), and the stall window also when it is beaten, so no
// thread watches the clock on the token's behalf. Whichever fires first
// wins; the cause is latched so the structured Interrupted outcome can
// say why. All operations are lock-free atomics; cancel() is
// async-signal-safe.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "resilience/error.hpp"

namespace dxbsp::resilience {

/// Why a token tripped.
enum class CancelCause : int {
  kNone = 0,
  kCancelled,  ///< explicit cancel() call
  kSignal,     ///< SIGINT/SIGTERM via ScopedSignalCancel
  kDeadline,   ///< wall-clock deadline expired
  kStalled,    ///< no heartbeat within the stall window
};

[[nodiscard]] const char* cancel_cause_name(CancelCause cause) noexcept;

/// Wall-clock budget: expires `seconds` after construction.
/// A non-positive budget means "no deadline" (never expires).
class Deadline {
 public:
  Deadline() = default;
  explicit Deadline(double seconds);

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] bool expired() const noexcept;

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Shared cancellation flag. Copyable handles are not provided: share by
/// pointer/reference (SweepRunner owns one; Machine et al. observe it).
class CancelToken {
 public:
  CancelToken() = default;

  /// Trips the token (first cause wins). Async-signal-safe.
  void cancel(CancelCause cause = CancelCause::kCancelled) noexcept {
    trip(cause);
  }

  /// Attaches a wall-clock deadline; replaces any previous one.
  void set_deadline(const Deadline& deadline) noexcept { deadline_ = deadline; }
  [[nodiscard]] const Deadline& deadline() const noexcept { return deadline_; }

  /// Arms the stall window: from now on, a gap longer than `seconds`
  /// between two heartbeat() calls — or between the last one and a poll
  /// — trips the token with kStalled. A non-positive window disarms it,
  /// as a non-positive budget does for the deadline. Like set_deadline,
  /// call it before the loops that beat and poll the token start.
  void set_stall(double seconds) noexcept {
    stall_ns_ = seconds > 0.0 ? static_cast<std::int64_t>(seconds * 1e9) : 0;
    last_beat_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  /// True iff cancelled, past the deadline, or stalled. The deadline
  /// and stall checks read the clock, so hot loops should poll every
  /// ~2^k iterations, not every iteration.
  [[nodiscard]] bool expired() const noexcept {
    if (state_.load(std::memory_order_acquire) !=
        static_cast<int>(CancelCause::kNone))
      return true;
    // Latch so cause() reports the clock that ran out even if cancel()
    // races later.
    if (deadline_.expired()) {
      trip(CancelCause::kDeadline);
      return true;
    }
    if (stall_ns_ > 0 &&
        now_ns() - last_beat_ns_.load(std::memory_order_relaxed) > stall_ns_) {
      trip(CancelCause::kStalled);
      return true;
    }
    return false;
  }

  [[nodiscard]] CancelCause cause() const noexcept {
    return static_cast<CancelCause>(state_.load(std::memory_order_acquire));
  }

  /// Re-arms a tripped token: clears the latched cause, the heartbeat
  /// counter, any attached deadline and the stall window, returning the
  /// token to its freshly-constructed state. For reuse across
  /// *sequential* runs (a worker loop calling SweepRunner::run
  /// repeatedly); must not be called while any loop or signal handler
  /// can still observe the token — those would race the un-latch and see
  /// a phantom reset.
  void reset() noexcept {
    state_.store(static_cast<int>(CancelCause::kNone),
                 std::memory_order_release);
    progress_.store(0, std::memory_order_relaxed);
    deadline_ = Deadline{};
    stall_ns_ = 0;
  }

  /// Throws Error{kInterrupted} when expired; `where` names the loop.
  void raise_if_expired(const char* where) const {
    if (expired())
      raise(ErrorCode::kInterrupted,
            std::string(where) + " interrupted (" +
                cancel_cause_name(cause()) + ")");
  }

  /// Progress beacon: hot loops call this at the same cadence they poll
  /// expired(). With a stall window armed it also restarts the window,
  /// tripping the token when the gap since the previous beat already
  /// exceeded it; without one it is a single relaxed increment.
  void heartbeat() const noexcept {
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (stall_ns_ > 0) {
      const std::int64_t now = now_ns();
      if (now - last_beat_ns_.exchange(now, std::memory_order_relaxed) >
          stall_ns_)
        trip(CancelCause::kStalled);
    }
  }
  [[nodiscard]] std::uint64_t heartbeats() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void trip(CancelCause cause) const noexcept {
    int expected = static_cast<int>(CancelCause::kNone);
    state_.compare_exchange_strong(expected, static_cast<int>(cause),
                                   std::memory_order_acq_rel);
  }

  mutable std::atomic<int> state_{static_cast<int>(CancelCause::kNone)};
  mutable std::atomic<std::uint64_t> progress_{0};
  mutable std::atomic<std::int64_t> last_beat_ns_{0};
  Deadline deadline_{};
  std::int64_t stall_ns_ = 0;  ///< 0 = no stall window
};

/// Routes SIGINT/SIGTERM to token.cancel(kSignal) for its lifetime; the
/// previous handlers are restored on destruction. At most one instance
/// may be live at a time (enforced; second construction throws kConfig).
class ScopedSignalCancel {
 public:
  explicit ScopedSignalCancel(CancelToken& token);
  ~ScopedSignalCancel();

  ScopedSignalCancel(const ScopedSignalCancel&) = delete;
  ScopedSignalCancel& operator=(const ScopedSignalCancel&) = delete;

 private:
  void (*prev_int_)(int) = nullptr;
  void (*prev_term_)(int) = nullptr;
};

}  // namespace dxbsp::resilience
