#include "obs/event_log.hpp"

#include "obs/json.hpp"

namespace dxbsp::obs {

void EventLog::span(std::string name, std::uint64_t ts_us,
                    std::uint64_t dur_us, std::uint64_t tid, Args args) {
  Event ev;
  ev.ph = 'X';
  ev.name = std::move(name);
  ev.ts = ts_us;
  ev.dur = dur_us;
  ev.tid = tid;
  ev.args = std::move(args);
  std::lock_guard lock(mu_);
  events_.push_back(std::move(ev));
}

void EventLog::instant(std::string name, std::uint64_t ts_us,
                       std::uint64_t tid, Args args) {
  Event ev;
  ev.ph = 'i';
  ev.name = std::move(name);
  ev.ts = ts_us;
  ev.tid = tid;
  ev.args = std::move(args);
  std::lock_guard lock(mu_);
  events_.push_back(std::move(ev));
}

void EventLog::counter(std::string name, std::uint64_t ts_us,
                       std::uint64_t tid, std::uint64_t value) {
  Event ev;
  ev.ph = 'C';
  ev.name = std::move(name);
  ev.ts = ts_us;
  ev.tid = tid;
  ev.value = value;
  std::lock_guard lock(mu_);
  events_.push_back(std::move(ev));
}

void EventLog::name_lane(std::uint64_t tid, std::string name) {
  std::lock_guard lock(mu_);
  lanes_.emplace_back(tid, std::move(name));
}

std::size_t EventLog::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

void EventLog::write_chrome_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  os << "{\n\"traceEvents\": [\n";
  os << R"({"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":")"
     << json_escape(process_name_) << "\"}}";
  for (const auto& [tid, name] : lanes_)
    os << ",\n" << R"({"ph":"M","name":"thread_name","pid":0,"tid":)" << tid
       << R"(,"args":{"name":")" << json_escape(name) << "\"}}";
  for (const Event& ev : events_) {
    os << ",\n{\"name\":\"" << json_escape(ev.name) << "\",\"ph\":\"" << ev.ph
       << "\",\"pid\":0,\"tid\":" << ev.tid << ",\"ts\":" << ev.ts;
    if (ev.ph == 'X') os << ",\"dur\":" << ev.dur;
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    if (ev.ph == 'C') {
      os << ",\"args\":{\"value\":" << ev.value << "}";
    } else if (!ev.args.empty()) {
      os << ",\"args\":{";
      bool first = true;
      for (const auto& [k, v] : ev.args) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
        "{\"generator\": \"dxbsp\", \"time_unit\": \"us\", \"events\": "
     << events_.size() << "}\n}\n";
}

}  // namespace dxbsp::obs
