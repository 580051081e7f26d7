#include "src/net/impair/impairment.h"

#include <algorithm>
#include <cassert>

#include "src/sim/logging.h"

namespace e2e {

void GilbertElliottLossStage::DeliverPacket(Packet packet) {
  ++counters_.packets_in;
  if (model_.ShouldDrop(rng_)) {
    ++counters_.dropped;
    E2E_DEBUG(sim_->Now(), "impair", "ge_loss: dropped packet %lu",
              static_cast<unsigned long>(packet.id));
    return;
  }
  Forward(std::move(packet));
}

void IidLossStage::DeliverPacket(Packet packet) {
  ++counters_.packets_in;
  if (model_.ShouldDrop(rng_)) {
    ++counters_.dropped;
    return;
  }
  Forward(std::move(packet));
}

void CorruptStage::DeliverPacket(Packet packet) {
  ++counters_.packets_in;
  if (rng_.Bernoulli(probability_)) {
    packet.corrupted = true;
    ++counters_.corrupted;
  }
  Forward(std::move(packet));
}

void DuplicateStage::DeliverPacket(Packet packet) {
  ++counters_.packets_in;
  const bool dup = rng_.Bernoulli(probability_);
  if (dup) {
    ++counters_.duplicated;
    Packet copy = packet;  // Payload is shared_ptr-owned; the copy aliases it.
    Forward(std::move(packet));
    Forward(std::move(copy));
    return;
  }
  Forward(std::move(packet));
}

ReorderStage::ReorderStage(Simulator* sim, Rng rng, const ReorderConfig& config)
    : ImpairmentStage(sim, rng), config_(config) {
  assert(config_.probability >= 0 && config_.probability < 1);
  assert(config_.gap >= 1);
  assert(config_.max_hold > Duration::Zero());
}

void ReorderStage::DeliverPacket(Packet packet) {
  ++counters_.packets_in;
  if (rng_.Bernoulli(config_.probability)) {
    held_.push_back(Held{next_token_, std::move(packet), 0, kInvalidEventId});
    const uint64_t token = next_token_++;
    held_.back().timeout = sim_->Schedule(config_.max_hold, [this, token] {
      ReleaseByToken(token);
    });
    return;
  }
  Forward(std::move(packet));
  // The packet that just passed overtakes every held packet; release (in
  // hold order) the ones whose gap is now satisfied.
  for (size_t i = 0; i < held_.size(); ++i) {
    ++held_[i].passed;
  }
  while (!held_.empty() && held_.front().passed >= config_.gap) {
    ReleaseFront(/*overtaken=*/true);
  }
}

void ReorderStage::ReleaseFront(bool overtaken) {
  Held h = std::move(held_.front());
  held_.pop_front();
  if (h.timeout != kInvalidEventId) {
    sim_->Cancel(h.timeout);
  }
  if (overtaken || h.passed > 0) {
    ++counters_.reordered;  // At least one packet actually got ahead of it.
  }
  Forward(std::move(h.packet));
}

void ReorderStage::ReleaseByToken(uint64_t token) {
  // Timeout release: FIFO among held packets, so everything held before the
  // timed-out packet goes out first. ReleaseFront cancels each entry's
  // timeout; for the entry whose timeout is firing right now the cancel is
  // a harmless no-op.
  while (!held_.empty() && held_.front().token <= token) {
    ReleaseFront(/*overtaken=*/false);
  }
}

Duration JitterStage::DrawDelay() {
  switch (config_.dist) {
    case JitterConfig::Dist::kUniform:
      return Duration::SecondsF(rng_.Uniform(0.0, 2.0 * config_.mean.ToSeconds()));
    case JitterConfig::Dist::kExponential:
      return Duration::SecondsF(rng_.Exponential(config_.mean.ToSeconds()));
    case JitterConfig::Dist::kNormal: {
      const double d = rng_.Normal(config_.mean.ToSeconds(), config_.stddev.ToSeconds());
      return Duration::SecondsF(std::max(0.0, d));
    }
  }
  return Duration::Zero();
}

void JitterStage::DeliverPacket(Packet packet) {
  ++counters_.packets_in;
  TimePoint release = sim_->Now() + DrawDelay();
  if (config_.preserve_order && release < last_release_) {
    release = last_release_;
  }
  last_release_ = release;
  sim_->ScheduleAt(release, [this, packet = std::move(packet)]() mutable {
    Forward(std::move(packet));
  });
}

ImpairmentChain::ImpairmentChain(Simulator* sim, const ImpairmentConfig& config, Rng rng,
                                 std::string name)
    : name_(std::move(name)) {
  assert(sim != nullptr);
  // Fixed stage order; each stage forks its own generator in this order.
  if (config.gilbert_elliott.has_value()) {
    stages_.push_back(
        std::make_unique<GilbertElliottLossStage>(sim, rng.Fork(), *config.gilbert_elliott));
  }
  if (config.iid_loss > 0) {
    stages_.push_back(std::make_unique<IidLossStage>(sim, rng.Fork(), config.iid_loss));
  }
  if (config.corrupt_probability > 0) {
    stages_.push_back(std::make_unique<CorruptStage>(sim, rng.Fork(), config.corrupt_probability));
  }
  if (config.duplicate_probability > 0) {
    stages_.push_back(
        std::make_unique<DuplicateStage>(sim, rng.Fork(), config.duplicate_probability));
  }
  if (config.reorder.has_value()) {
    stages_.push_back(std::make_unique<ReorderStage>(sim, rng.Fork(), *config.reorder));
  }
  if (config.jitter.has_value()) {
    stages_.push_back(std::make_unique<JitterStage>(sim, rng.Fork(), *config.jitter));
  }
  for (size_t i = 0; i + 1 < stages_.size(); ++i) {
    stages_[i]->SetNext(stages_[i + 1].get());
  }
}

void ImpairmentChain::SetSink(PacketSink* sink) {
  sink_ = sink;
  if (!stages_.empty()) {
    stages_.back()->SetNext(sink);
  }
}

void ImpairmentChain::DeliverPacket(Packet packet) {
  if (!stages_.empty()) {
    stages_.front()->DeliverPacket(std::move(packet));
    return;
  }
  if (sink_ != nullptr) {
    sink_->DeliverPacket(std::move(packet));
  }
}

ImpairmentSnapshot ImpairmentChain::Snapshot() const {
  ImpairmentSnapshot snapshot;
  snapshot.reserve(stages_.size());
  for (const auto& stage : stages_) {
    snapshot.emplace_back(stage->kind(), stage->counters());
  }
  return snapshot;
}

uint64_t ImpairmentChain::TotalDropped() const {
  uint64_t total = 0;
  for (const auto& stage : stages_) {
    total += stage->counters().dropped;
  }
  return total;
}

uint64_t ImpairmentChain::TotalReordered() const {
  uint64_t total = 0;
  for (const auto& stage : stages_) {
    total += stage->counters().reordered;
  }
  return total;
}

uint64_t ImpairmentChain::TotalDuplicated() const {
  uint64_t total = 0;
  for (const auto& stage : stages_) {
    total += stage->counters().duplicated;
  }
  return total;
}

uint64_t ImpairmentChain::TotalCorrupted() const {
  uint64_t total = 0;
  for (const auto& stage : stages_) {
    total += stage->counters().corrupted;
  }
  return total;
}

}  // namespace e2e
