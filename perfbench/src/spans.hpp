#pragma once
// In-memory span recorder for the traced benchmark run. Spans are taken
// in the driver around each call into a simulator layer; they share one
// id per op, carry their parent span's id, and are written out only when
// the run ends (Chrome trace_event JSON plus a per-layer self-time
// table). Closing a span also folds its duration and item count into a
// per-name total, from which the per-layer metrics are derived.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< enclosing span, 0 for a root
  std::uint64_t op = 0;      ///< shared by every span of one op
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;  ///< elements or requests the call processed
};

/// Accumulated time and work under one span name.
struct LayerTotal {
  double ns = 0.0;
  std::uint64_t items = 0;
  std::uint64_t calls = 0;

  [[nodiscard]] double ns_per_item() const noexcept {
    return items > 0 ? ns / static_cast<double>(items) : 0.0;
  }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_ns_(now_ns()) {}

  [[nodiscard]] std::uint64_t open(std::string name, std::uint64_t op,
                                   std::uint64_t parent);
  /// Ends span `id`, renaming it when `name` is non-empty (a layer whose
  /// key is known only after the call, such as the engine that ran).
  /// Returns the span's duration in nanoseconds.
  std::int64_t close(std::uint64_t id, std::uint64_t items,
                     const std::string& name = {});

  /// Adds to a named total without a span (a quantity derived from spans).
  void add_total(const std::string& name, double ns, std::uint64_t items);
  [[nodiscard]] LayerTotal total(const std::string& name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per span name: each span's duration minus the durations
  /// of its direct children (spans nest on one thread, so children never
  /// overlap).
  [[nodiscard]] std::map<std::string, LayerTotal> self_times() const;

  void write_chrome_json(std::ostream& os) const;
  void print_self_time_table(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, LayerTotal> totals_;
  std::int64_t origin_ns_;
};

/// RAII span; a null recorder makes every call a no-op, so the untraced
/// run pays one branch per boundary.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string name, std::uint64_t op,
        std::uint64_t parent)
      : rec_(rec), id_(rec != nullptr ? rec->open(std::move(name), op, parent)
                                      : 0) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void set_items(std::uint64_t n) noexcept { items_ = n; }
  void rename(std::string name) { name_ = std::move(name); }

  /// Ends the span (idempotent); returns its duration, 0 when untraced.
  std::int64_t close() {
    if (rec_ == nullptr || closed_) return 0;
    closed_ = true;
    return rec_->close(id_, items_, name_);
  }

 private:
  SpanRecorder* rec_;
  std::uint64_t id_;
  std::uint64_t items_ = 0;
  std::string name_;
  bool closed_ = false;
};

}  // namespace perfbench
