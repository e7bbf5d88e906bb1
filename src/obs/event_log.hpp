#pragma once
// Host-time Chrome-trace event log (docs/observability.md §fleet).
//
// The cycle-level Tracer (obs/trace.hpp) records *simulated* time and is
// deterministic by contract; fleet orchestration — lease grants,
// heartbeat lag, strikes, backoff, revocations, the merge — happens in
// *wall-clock* time and is host-dependent by nature. EventLog is the
// wall-clock twin: a tiny append-only log of spans/instants/counters
// stamped in µs since a caller-chosen monotonic epoch, written out as
// Chrome trace_event JSON (loadable in Perfetto, like the Tracer's).
//
// The sweep coordinator keeps the one log of a fleet: its own
// orchestration events plus, on one named lane per lease attempt, that
// worker's flight ring shifted onto the coordinator's clock
// (obs/flight.hpp append_flight_lane), written as fleet.trace.json.
//
// Thread-safety: appends take a mutex; timestamps are caller-provided
// so a span's start can predate its append.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dxbsp::obs {

class EventLog {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// `process_name` labels the trace's single process (pid 0) via a
  /// Chrome "M" metadata event; `epoch` anchors every timestamp.
  explicit EventLog(
      std::string process_name,
      std::chrono::steady_clock::time_point epoch =
          std::chrono::steady_clock::now())
      : process_name_(std::move(process_name)), epoch_(epoch) {}

  /// µs since the epoch — the clock every record is stamped with.
  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Complete span ("X"): [ts_us, ts_us + dur_us) on lane `tid`.
  void span(std::string name, std::uint64_t ts_us, std::uint64_t dur_us,
            std::uint64_t tid, Args args = {});

  /// Instant ("i", thread-scoped) on lane `tid`.
  void instant(std::string name, std::uint64_t ts_us, std::uint64_t tid,
               Args args = {});

  /// Counter sample ("C"): one numeric series per (name, tid).
  void counter(std::string name, std::uint64_t ts_us, std::uint64_t tid,
               std::uint64_t value);

  /// Names lane `tid` (a Chrome "thread_name" metadata event).
  void name_lane(std::uint64_t tid, std::string name);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& process_name() const noexcept {
    return process_name_;
  }

  /// Chrome trace_event JSON (object form): the process_name and lane
  /// name metadata events, then every record in append order, all under
  /// pid 0.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Event {
    char ph = 'i';
    std::string name;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint64_t tid = 0;
    std::uint64_t value = 0;  // counters only
    Args args;
  };

  std::string process_name_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::uint64_t, std::string>> lanes_;
  std::vector<Event> events_;
};

}  // namespace dxbsp::obs
