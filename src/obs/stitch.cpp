#include "obs/stitch.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "resilience/framed_file.hpp"

namespace dxbsp::obs {

namespace {

/// One merged event, args pre-rendered to raw JSON text so arbitrary
/// input args round-trip without a generic document writer.
struct OutEvent {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t tid = 0;
  std::uint64_t pid = 0;
  bool has_dur = false;
  std::string name;
  std::string ph;
  std::string scope;      // "s" member for instants ("" = omit)
  std::string args_json;  // rendered args object ("" = omit)
};

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string resolve(const std::string& base_dir, const std::string& path) {
  if (path.empty() || path.front() == '/' || base_dir.empty()) return path;
  return base_dir + "/" + path;
}

/// Re-renders a parsed JSON value as compact JSON text (args passthrough).
void render_json(const JsonValue& v, std::ostream& os) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: os << "null"; return;
    case JsonValue::Kind::kBool: os << (v.as_bool() ? "true" : "false");
      return;
    case JsonValue::Kind::kNumber: os << v.raw_number(); return;
    case JsonValue::Kind::kString:
      os << '"' << json_escape(v.as_string()) << '"';
      return;
    case JsonValue::Kind::kArray: {
      os << '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) os << ',';
        first = false;
        render_json(item, os);
      }
      os << ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, m] : v.members()) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(k) << "\":";
        render_json(m, os);
      }
      os << '}';
      return;
    }
  }
}

std::uint64_t num_or(const JsonValue* v, std::uint64_t fallback) {
  return (v != nullptr && v->is_number()) ? v->as_u64() : fallback;
}

}  // namespace

StitchSummary stitch_traces(const std::string& manifest_path,
                            std::ostream& os) {
  const auto text = resilience::read_file(manifest_path);
  if (!text)
    raise(ErrorCode::kIo, manifest_path + ": cannot open stitch manifest");
  auto parsed =
      JsonValue::parse(resilience::text_view(text.value()), manifest_path);
  if (!parsed.ok())
    raise(ErrorCode::kCorruptInput, parsed.error().what());
  const JsonValue doc = std::move(parsed).value();
  if (!doc.is_object())
    raise(ErrorCode::kCorruptInput, manifest_path + ": not a JSON object");
  if (num_or(doc.find("stitch_version"), 0) != kStitchVersion)
    raise(ErrorCode::kCorruptInput,
          manifest_path + ": unsupported stitch_version");
  const JsonValue* procs = doc.find("processes");
  if (procs == nullptr || !procs->is_array())
    raise(ErrorCode::kCorruptInput,
          manifest_path + ": missing \"processes\" array");

  const std::string base_dir = dir_of(manifest_path);
  StitchSummary summary;
  std::vector<std::string> labels;
  std::vector<OutEvent> events;

  for (const JsonValue& entry : procs->items()) {
    if (!entry.is_object())
      raise(ErrorCode::kCorruptInput,
            manifest_path + ": process entry is not an object");
    const std::uint64_t pid = labels.size();
    const JsonValue* label = entry.find("label");
    labels.push_back(label != nullptr && label->is_string()
                         ? label->as_string()
                         : "process " + std::to_string(pid));
    const std::uint64_t offset = num_or(entry.find("offset_us"), 0);

    const JsonValue* trace = entry.find("trace");
    bool have_trace = false;
    if (trace != nullptr && trace->is_string() &&
        !trace->as_string().empty()) {
      const std::string path = resolve(base_dir, trace->as_string());
      const auto body = resilience::read_file(path);
      if (body) {
        auto tdoc = JsonValue::parse(resilience::text_view(body.value()), path);
        const JsonValue* tevents =
            tdoc.ok() ? tdoc.value().find("traceEvents") : nullptr;
        if (tevents != nullptr && tevents->is_array()) {
          have_trace = true;
          for (const JsonValue& ev : tevents->items()) {
            if (!ev.is_object()) continue;
            const JsonValue* ph = ev.find("ph");
            const std::string phase =
                ph != nullptr && ph->is_string() ? ph->as_string() : "X";
            if (phase == "M") continue;  // we emit our own metadata
            OutEvent out;
            out.pid = pid;
            out.ph = phase;
            const JsonValue* name = ev.find("name");
            out.name = name != nullptr && name->is_string()
                           ? name->as_string()
                           : "";
            out.ts = num_or(ev.find("ts"), 0) + offset;
            out.tid = num_or(ev.find("tid"), 0);
            if (const JsonValue* dur = ev.find("dur");
                dur != nullptr && dur->is_number()) {
              out.has_dur = true;
              out.dur = dur->as_u64();
            }
            if (const JsonValue* s = ev.find("s");
                s != nullptr && s->is_string())
              out.scope = s->as_string();
            if (const JsonValue* args = ev.find("args")) {
              std::ostringstream rendered;
              render_json(*args, rendered);
              out.args_json = std::move(rendered).str();
            }
            events.push_back(std::move(out));
            ++summary.events;
          }
        }
      }
    }

    if (!have_trace) {
      ++summary.skipped_traces;
      // Dead attempt: no trace was ever written, but the crash-safe
      // flight ring may still tell the story — render it as instants.
      const JsonValue* flight = entry.find("flight");
      if (flight != nullptr && flight->is_string() &&
          !flight->as_string().empty()) {
        auto tail = flight_read(resolve(base_dir, flight->as_string()));
        if (tail.ok()) {
          for (const FlightRecord& r : tail.value().records) {
            OutEvent out;
            out.pid = pid;
            out.ph = "i";
            out.scope = "t";
            out.name = std::string(flight_kind_name(r.kind)) + " " +
                       flight_record_name(r);
            out.ts = r.t_us + offset;
            out.tid = 0;
            std::ostringstream args;
            args << "{\"seq\":" << r.seq << ",\"detail\":\""
                 << json_escape(flight_describe(r)) << "\"}";
            out.args_json = std::move(args).str();
            events.push_back(std::move(out));
            ++summary.events;
            ++summary.flight_events;
          }
        }
      }
    }
  }
  summary.processes = labels.size();

  std::stable_sort(events.begin(), events.end(),
                   [](const OutEvent& x, const OutEvent& y) {
                     if (x.ts != y.ts) return x.ts < y.ts;
                     if (x.pid != y.pid) return x.pid < y.pid;
                     return x.tid < y.tid;
                   });

  os << "{\n\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t pid = 0; pid < labels.size(); ++pid) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"ph":"M","name":"process_name","pid":)" << pid
       << R"(,"tid":0,"args":{"name":")" << json_escape(labels[pid])
       << "\"}},\n";
    os << R"({"ph":"M","name":"process_sort_index","pid":)" << pid
       << R"(,"tid":0,"args":{"sort_index":)" << pid << "}}";
  }
  for (const OutEvent& ev : events) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"ph\":\""
       << json_escape(ev.ph) << "\",\"pid\":" << ev.pid
       << ",\"tid\":" << ev.tid << ",\"ts\":" << ev.ts;
    if (ev.has_dur) os << ",\"dur\":" << ev.dur;
    if (!ev.scope.empty()) os << ",\"s\":\"" << json_escape(ev.scope) << '"';
    if (!ev.args_json.empty()) os << ",\"args\":" << ev.args_json;
    os << '}';
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
        "{\"generator\": \"dxbsp trace_stitch\", \"time_unit\": \"us\", "
        "\"processes\": "
     << summary.processes << ", \"events\": " << summary.events << "}\n}\n";
  return summary;
}

}  // namespace dxbsp::obs
