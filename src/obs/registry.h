// A registry of named counter sources, replacing hard-coded client/server
// counter fields in collectors and reports: NICs, links, and switch ports
// register once, and any consumer (collector tick, time-series sampler,
// bench JSON writer) reads all of them uniformly — the design scales from
// two endpoints to a fleet.
//
// Each entity exposes a fixed, ordered list of counter names plus a
// provider returning the current values in that order; samples are plain
// value vectors (no per-sample strings), so per-tick sampling of hundreds
// of entities stays cheap. Entities are reported in registration order,
// which the topology builder keeps deterministic.
//
// Lives in src/obs: it is pure observation plumbing shared by the trace and
// time-series layers.

#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

class CounterRegistry {
 public:
  using Provider = std::function<std::vector<uint64_t>()>;

  // One sample of every entity: values[i][j] is entity i's counter j.
  using Values = std::vector<std::vector<uint64_t>>;

  // Per-Delta bookkeeping: counters are nominally monotonic, but an entity
  // can legitimately regress mid-run — an endpoint restarting with zeroed
  // counters after a crash/reconnect is the canonical case. Raw `cur - prev`
  // would underflow uint64_t into a ~2^64 delta; Delta() clamps those cells
  // to 0 and reports them here instead.
  struct DeltaStats {
    uint64_t regressed_cells = 0;  // Cells where cur < prev (clamped to 0).
    bool regressed() const { return regressed_cells > 0; }
  };

  // Registers `entity` exposing `counter_names` (fixed order). The provider
  // must return exactly counter_names.size() values per call.
  void Register(std::string entity, std::vector<std::string> counter_names, Provider provider);

  size_t num_entities() const { return entities_.size(); }
  const std::string& entity_name(size_t i) const { return entities_[i].name; }
  const std::vector<std::string>& counter_names(size_t i) const {
    return entities_[i].counter_names;
  }

  // Reads every entity's current values.
  Values Sample() const;

  // Element-wise `cur - prev` (the counter deltas over a window). Both
  // samples must come from the same registry state. Cells that regressed
  // (cur < prev) are clamped to 0; pass `stats` to learn whether and how
  // often that happened.
  static Values Delta(const Values& prev, const Values& cur, DeltaStats* stats = nullptr);

 private:
  struct Entity {
    std::string name;
    std::vector<std::string> counter_names;
    Provider provider;
  };
  std::vector<Entity> entities_;
};

}  // namespace e2e

#endif  // SRC_OBS_REGISTRY_H_
