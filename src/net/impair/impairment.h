// Composable packet-impairment pipeline.
//
// An `ImpairmentChain` installs between a Link and the receiving NIC via the
// existing `PacketSink` interface:
//
//   link.SetSink(&chain);  chain.SetSink(&nic);
//
// Stages are instantiated from a declarative `ImpairmentConfig` and compose
// in a fixed order (mirroring netem's internal ordering):
//
//   Gilbert-Elliott loss -> i.i.d. loss -> corruption -> duplication
//     -> reordering -> jitter
//
// Determinism contract: every stage owns an `Rng` forked from one base
// generator in stage order, and consumes a state-independent number of draws
// per packet, so a given (config, seed) pair replays byte-identically. All
// deferred deliveries go through the simulator's event queue — no wall-clock
// or unordered containers anywhere in the pipeline.
//
// Each stage counts packets in/out plus its own impairment events
// (dropped / corrupted / duplicated / reordered); chains snapshot all stage
// counters for the testbed collector and bench reports.

#ifndef SRC_NET_IMPAIR_IMPAIRMENT_H_
#define SRC_NET_IMPAIR_IMPAIRMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/net/impair/link_schedule.h"
#include "src/net/impair/loss_model.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/ring.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace e2e {

struct ImpairmentCounters {
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;

  ImpairmentCounters operator-(const ImpairmentCounters& o) const {
    ImpairmentCounters d;
    d.packets_in = packets_in - o.packets_in;
    d.packets_out = packets_out - o.packets_out;
    d.dropped = dropped - o.dropped;
    d.corrupted = corrupted - o.corrupted;
    d.duplicated = duplicated - o.duplicated;
    d.reordered = reordered - o.reordered;
    return d;
  }
};

// A named per-stage counter snapshot, e.g. {"ge_loss", {...}}.
using ImpairmentSnapshot = std::vector<std::pair<std::string, ImpairmentCounters>>;

struct ReorderConfig {
  // Chance that a packet is held back so later packets overtake it.
  double probability = 0.0;
  // The held packet is re-injected after this many packets pass it.
  int gap = 3;
  // Safety valve: a held packet is released after this long even when too
  // little traffic follows it (so a trailing packet cannot be parked
  // forever on an idling connection).
  Duration max_hold = Duration::Millis(1);
};

struct JitterConfig {
  enum class Dist {
    kUniform,      // Uniform in [0, 2*mean): mean extra delay = `mean`.
    kExponential,  // Exponential with the given mean.
    kNormal,       // Normal(mean, stddev), clamped at zero.
  };
  Dist dist = Dist::kUniform;
  Duration mean = Duration::Micros(10);
  Duration stddev = Duration::Zero();  // kNormal only.
  // Clamp release times to be monotone so jitter alone never reorders
  // (models a FIFO queue whose residence time varies). Disable to let large
  // draws overtake small ones.
  bool preserve_order = true;
};

// Declarative spec for one direction of a path. Unset/zero members
// instantiate no stage, so a default config is a transparent wire.
struct ImpairmentConfig {
  double iid_loss = 0.0;
  std::optional<GilbertElliottConfig> gilbert_elliott;
  double corrupt_probability = 0.0;
  double duplicate_probability = 0.0;
  std::optional<ReorderConfig> reorder;
  std::optional<JitterConfig> jitter;
  // Scripted parameter rewrites for this direction's link (applied by the
  // topology builder, not by the chain: the schedule mutates the Link).
  LinkSchedule schedule;

  // True when at least one packet-path stage would be instantiated.
  bool AnyStage() const {
    return iid_loss > 0 || gilbert_elliott.has_value() || corrupt_probability > 0 ||
           duplicate_probability > 0 || reorder.has_value() || jitter.has_value();
  }
  bool Any() const { return AnyStage() || !schedule.empty(); }
};

// Base class: a PacketSink that forwards to the next stage in the chain.
class ImpairmentStage : public PacketSink {
 public:
  ImpairmentStage(Simulator* sim, Rng rng) : sim_(sim), rng_(rng) {}
  ~ImpairmentStage() override = default;

  virtual const char* kind() const = 0;

  void SetNext(PacketSink* next) { next_ = next; }
  const ImpairmentCounters& counters() const { return counters_; }

 protected:
  void Forward(Packet packet) {
    ++counters_.packets_out;
    if (next_ != nullptr) {
      next_->DeliverPacket(std::move(packet));
    }
  }

  Simulator* sim_;
  Rng rng_;
  ImpairmentCounters counters_;

 private:
  PacketSink* next_ = nullptr;
};

class GilbertElliottLossStage : public ImpairmentStage {
 public:
  GilbertElliottLossStage(Simulator* sim, Rng rng, const GilbertElliottConfig& config)
      : ImpairmentStage(sim, rng), model_(config) {}
  const char* kind() const override { return "ge_loss"; }
  void DeliverPacket(Packet packet) override;
  const GilbertElliottModel& model() const { return model_; }

 private:
  GilbertElliottModel model_;
};

class IidLossStage : public ImpairmentStage {
 public:
  IidLossStage(Simulator* sim, Rng rng, double probability)
      : ImpairmentStage(sim, rng), model_(probability) {}
  const char* kind() const override { return "iid_loss"; }
  void DeliverPacket(Packet packet) override;

 private:
  IidLossModel model_;
};

// Flips `Packet::corrupted`; the receiving NIC's checksum validation drops
// the packet after it has consumed wire and arrival resources.
class CorruptStage : public ImpairmentStage {
 public:
  CorruptStage(Simulator* sim, Rng rng, double probability)
      : ImpairmentStage(sim, rng), probability_(probability) {}
  const char* kind() const override { return "corrupt"; }
  void DeliverPacket(Packet packet) override;

 private:
  double probability_;
};

// Emits a second copy immediately behind the original (payload is shared;
// the TCP receiver treats the copy as a duplicate segment and re-acks).
class DuplicateStage : public ImpairmentStage {
 public:
  DuplicateStage(Simulator* sim, Rng rng, double probability)
      : ImpairmentStage(sim, rng), probability_(probability) {}
  const char* kind() const override { return "duplicate"; }
  void DeliverPacket(Packet packet) override;

 private:
  double probability_;
};

// Holds selected packets until `gap` later packets have overtaken them (or
// `max_hold` expires), then re-injects. Held packets release in hold order,
// so the stage cannot invert two held packets against each other.
class ReorderStage : public ImpairmentStage {
 public:
  ReorderStage(Simulator* sim, Rng rng, const ReorderConfig& config);
  const char* kind() const override { return "reorder"; }
  void DeliverPacket(Packet packet) override;

  size_t held() const { return held_.size(); }

 private:
  struct Held {
    uint64_t token;
    Packet packet;
    int passed = 0;
    EventId timeout = kInvalidEventId;
  };
  void ReleaseFront(bool overtaken);
  void ReleaseByToken(uint64_t token);

  ReorderConfig config_;
  Ring<Held> held_;
  uint64_t next_token_ = 1;
};

// Adds a random extra delay; with preserve_order (default) release times are
// clamped monotone so the stage is a pure delay-variation element.
class JitterStage : public ImpairmentStage {
 public:
  JitterStage(Simulator* sim, Rng rng, const JitterConfig& config)
      : ImpairmentStage(sim, rng), config_(config) {}
  const char* kind() const override { return "jitter"; }
  void DeliverPacket(Packet packet) override;

 private:
  Duration DrawDelay();

  JitterConfig config_;
  TimePoint last_release_;
};

// The composed pipeline. Transparent (zero overhead beyond a virtual call)
// when the config instantiates no stage.
class ImpairmentChain : public PacketSink {
 public:
  // `rng` seeds the whole chain; each stage gets an independent fork, in
  // stage order, so adding a stage never perturbs the draws of another.
  ImpairmentChain(Simulator* sim, const ImpairmentConfig& config, Rng rng, std::string name);

  // The downstream receiver (normally the peer host's NIC).
  void SetSink(PacketSink* sink);

  void DeliverPacket(Packet packet) override;

  size_t num_stages() const { return stages_.size(); }
  const ImpairmentStage& stage(size_t i) const { return *stages_[i]; }
  const std::string& name() const { return name_; }

  // Per-stage named counters, in chain order.
  ImpairmentSnapshot Snapshot() const;

  // Sums one field across stages (convenience for reports).
  uint64_t TotalDropped() const;
  uint64_t TotalReordered() const;
  uint64_t TotalDuplicated() const;
  uint64_t TotalCorrupted() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<ImpairmentStage>> stages_;
  PacketSink* sink_ = nullptr;  // Used directly when the chain is empty.
};

}  // namespace e2e

#endif  // SRC_NET_IMPAIR_IMPAIRMENT_H_
