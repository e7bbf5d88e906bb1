// flight_reader: standalone decoder for crash-safe flight-recorder rings
// (obs/flight.hpp, docs/observability.md §fleet).
//
//   ./flight_reader RING.flight [RING.flight ...]
//
// Prints each ring's header (writer pid, slot count) and every valid
// record oldest-first in the same one-line rendering each record's
// `detail` carries on the fleet timeline (fleet.trace.json), so an
// operator staring at a dead worker's ring and one browsing the
// timeline read the same text. Torn slots (CRC failures from a record half-written at
// the instant of death) are counted, never fatal.
//
// Exit codes: 0 when every ring decoded (torn slots included — they are
// evidence, not errors); 74 (EX_IOERR) for a missing file; 65
// (EX_DATAERR) for bad magic/version/geometry.

#include <iostream>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "resilience/error.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  std::vector<std::string> paths(argv + 1, argv + argc);
  if (paths.empty()) {
    std::cerr << "usage: flight_reader RING.flight [RING.flight ...]\n";
    return exit_code(ErrorCode::kConfig);
  }
  try {
    for (const std::string& path : paths) {
      const obs::FlightTail tail = obs::flight_read(path).value();
      std::cout << "=== " << path << " ===\n"
                << "pid=" << tail.pid << " slots=" << tail.slots
                << " valid=" << tail.valid << " torn=" << tail.torn << "\n";
      for (const obs::FlightRecord& r : tail.records)
        std::cout << "  seq=" << r.seq << " t_us=" << r.t_us << "  "
                  << obs::flight_describe(r) << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}
