#include "src/tcp/cc/congestion_control.h"

#include <algorithm>

#include "src/tcp/cc/cubic.h"
#include "src/tcp/cc/dctcp.h"
#include "src/tcp/cc/reno.h"

namespace e2e {

const char* CcAlgorithmName(CcAlgorithm algorithm) {
  switch (algorithm) {
    case CcAlgorithm::kReno:
      return "reno";
    case CcAlgorithm::kCubic:
      return "cubic";
    case CcAlgorithm::kDctcp:
      return "dctcp";
  }
  return "?";
}

CongestionControlAlgorithm::CongestionControlAlgorithm(const CcConfig& config)
    : config_(config),
      cwnd_(static_cast<uint64_t>(config.initial_window_segments) * config.mss),
      ssthresh_(config.max_window_bytes) {}

void CongestionControlAlgorithm::OnEcnEcho(uint64_t acked_bytes, TimePoint now) {
  (void)acked_bytes;
  (void)now;
}

void CongestionControlAlgorithm::OnRttSample(Duration rtt, TimePoint now) {
  (void)now;
  if (rtt <= Duration::Zero()) {
    return;
  }
  // RFC 6298-style smoothing; the algorithms only need an RTT-sized window,
  // not the full RTO machinery (that stays in rtt.h).
  srtt_ = srtt_ == Duration::Zero() ? rtt : srtt_ * 7 / 8 + rtt / 8;
}

CcState CongestionControlAlgorithm::state(TimePoint now) const {
  if (now > TimePoint::Zero() && now < cwr_until_) {
    return CcState::kCwr;
  }
  if (in_slow_start()) {
    return CcState::kSlowStart;
  }
  return CcState::kAvoidance;
}

uint64_t CongestionControlAlgorithm::ClampWindow(uint64_t bytes) const {
  return std::min(std::max<uint64_t>(bytes, config_.mss), config_.max_window_bytes);
}

Duration CongestionControlAlgorithm::ReactionWindow() const {
  return srtt_ > Duration::Zero() ? srtt_ : config_.fallback_rtt;
}

std::unique_ptr<CongestionControlAlgorithm> MakeCongestionControl(const CcConfig& config) {
  switch (config.algorithm) {
    case CcAlgorithm::kCubic:
      return std::make_unique<CubicCongestionControl>(config);
    case CcAlgorithm::kDctcp:
      return std::make_unique<DctcpCongestionControl>(config);
    case CcAlgorithm::kReno:
      break;
  }
  return std::make_unique<RenoCongestionControl>(config);
}

}  // namespace e2e
