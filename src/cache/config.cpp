#include "cache/config.hpp"

#include <string>

#include "resilience/error.hpp"
#include "util/bits.hpp"

namespace dxbsp::cache {

void CacheConfig::validate() const {
  // Zero periods/sizes are rejected even with the tier disabled — the
  // same "always a configuration error" rule MachineConfig applies to
  // section_period and friends.
  if (line_words == 0)
    raise(ErrorCode::kConfig, "MachineConfig: cache-line must be >= 1");
  if (hit_latency == 0)
    raise(ErrorCode::kConfig, "MachineConfig: cache-latency must be >= 1");
  if (capacity == 0) {
    // Disabled tier: a policy that only makes sense with capacity is an
    // explicit contradiction, not a silent no-op.
    if (write == WritePolicy::kBack)
      raise(ErrorCode::kConfig,
            "MachineConfig: cache-write=back requires cache capacity >= 1");
    return;
  }
  if (!util::is_pow2(capacity))
    raise(ErrorCode::kConfig,
          "MachineConfig: cache capacity must be a power of two (got " +
              std::to_string(capacity) + ")");
  if (assoc > capacity)
    raise(ErrorCode::kConfig,
          "MachineConfig: cache-assoc must not exceed cache capacity (" +
              std::to_string(assoc) + " > " + std::to_string(capacity) + ")");
  if (assoc != 0 && !util::is_pow2(assoc))
    raise(ErrorCode::kConfig,
          "MachineConfig: cache-assoc must be a power of two (got " +
              std::to_string(assoc) + ")");
}

}  // namespace dxbsp::cache
