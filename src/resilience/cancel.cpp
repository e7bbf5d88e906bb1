#include "resilience/cancel.hpp"

#include <csignal>

namespace dxbsp::resilience {

const char* cancel_cause_name(CancelCause cause) noexcept {
  switch (cause) {
    case CancelCause::kNone: return "none";
    case CancelCause::kCancelled: return "cancelled";
    case CancelCause::kSignal: return "signal";
    case CancelCause::kDeadline: return "deadline";
    case CancelCause::kStalled: return "stalled";
  }
  return "unknown";
}

Deadline::Deadline(double seconds) {
  if (seconds <= 0.0) return;
  active_ = true;
  at_ = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
}

bool Deadline::expired() const noexcept {
  return active_ && std::chrono::steady_clock::now() >= at_;
}

namespace {
// The signal handler can only touch lock-free atomics; it reaches the
// active token through this pointer (one ScopedSignalCancel at a time).
std::atomic<CancelToken*> g_signal_token{nullptr};

extern "C" void dxbsp_signal_handler(int) {
  CancelToken* token = g_signal_token.load(std::memory_order_acquire);
  if (token != nullptr) token->cancel(CancelCause::kSignal);
}
}  // namespace

ScopedSignalCancel::ScopedSignalCancel(CancelToken& token) {
  CancelToken* expected = nullptr;
  if (!g_signal_token.compare_exchange_strong(expected, &token,
                                              std::memory_order_acq_rel))
    raise(ErrorCode::kConfig,
          "ScopedSignalCancel: another instance is already installed");
  prev_int_ = std::signal(SIGINT, dxbsp_signal_handler);
  prev_term_ = std::signal(SIGTERM, dxbsp_signal_handler);
}

ScopedSignalCancel::~ScopedSignalCancel() {
  std::signal(SIGINT, prev_int_ == SIG_ERR ? SIG_DFL : prev_int_);
  std::signal(SIGTERM, prev_term_ == SIG_ERR ? SIG_DFL : prev_term_);
  g_signal_token.store(nullptr, std::memory_order_release);
}

}  // namespace dxbsp::resilience
