#include "spans.hpp"

#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace perfbench {

std::uint64_t SpanRecorder::open(std::string name, std::uint64_t op,
                                 std::uint64_t parent) {
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::int64_t SpanRecorder::close(std::uint64_t id, std::uint64_t items,
                                 const std::string& name) {
  if (id == 0 || id > spans_.size())
    throw std::logic_error("SpanRecorder::close: unknown span");
  Span& s = spans_[id - 1];
  s.end_ns = now_ns();
  s.items = items;
  if (!name.empty()) s.name = name;
  const std::int64_t dur = s.end_ns - s.start_ns;
  add_total(s.name, static_cast<double>(dur), items);
  return dur;
}

void SpanRecorder::add_total(const std::string& name, double ns,
                             std::uint64_t items) {
  LayerTotal& t = totals_[name];
  t.ns += ns;
  t.items += items;
  ++t.calls;
}

LayerTotal SpanRecorder::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it != totals_.end() ? it->second : LayerTotal{};
}

std::map<std::string, LayerTotal> SpanRecorder::self_times() const {
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0)
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, LayerTotal> out;
  for (const Span& s : spans_) {
    LayerTotal& t = out[s.name];
    t.ns += static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
    t.items += s.items;
    ++t.calls;
  }
  return out;
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  // Span names are driver-chosen identifiers ([a-z0-9._]), so they need
  // no JSON escaping.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << std::fixed << std::setprecision(3);
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\""
       << ",\"ts\":" << static_cast<double>(s.start_ns - origin_ns_) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"pid\":1,\"tid\":1,\"args\":{\"op_id\":" << s.op
       << ",\"span_id\":" << s.id << ",\"parent_id\":" << s.parent
       << ",\"items\":" << s.items << "}}";
  }
  os << "\n]}\n";
}

void SpanRecorder::print_self_time_table(std::ostream& os) const {
  const auto self = self_times();
  double all = 0.0;
  for (const auto& [name, t] : self) all += t.ns;
  os << std::left << std::setw(44) << "span" << std::right << std::setw(9)
     << "calls" << std::setw(14) << "self_ms" << std::setw(9) << "share"
     << std::setw(14) << "ns/item" << "\n";
  for (const auto& [name, t] : self) {
    os << std::left << std::setw(44) << name << std::right << std::setw(9)
       << t.calls << std::setw(14) << std::fixed << std::setprecision(3)
       << t.ns / 1e6 << std::setw(8) << std::setprecision(1)
       << (all > 0.0 ? 100.0 * t.ns / all : 0.0) << "%" << std::setw(14)
       << std::setprecision(2) << t.ns_per_item() << "\n";
  }
  os.unsetf(std::ios::floatfield);
}

}  // namespace perfbench
