// Micro-timings of single layer calls, each timed from outside through the
// layer's public functions and reported as the median of several repeats.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>

namespace perfbench {

// sim: EventQueue schedule + pop with `depth` events pending, ns per pair.
double QueuePushPopNs(size_t depth);
// sim: EventQueue schedule, schedule, cancel, pop (a timer re-arm) with
// `depth` events pending, ns per iteration.
double QueueCancelNs(size_t depth);
// sim: one cross-domain handoff through Simulator::ScheduleCrossAt, with
// the barrier epoch that delivers it, on a two-domain simulator; ns each.
double CrossMessageNs();
// net: Switch::EcmpRouteFor on a leaf with two spine uplinks, ns per lookup.
double EcmpRouteNs();
// tcp: EncodeSegmentHeader + DecodeSegmentHeader round trip over segments
// carrying timestamps + SACK blocks or the e2e exchange option, ns each.
double CodecNs();
// core: QueueState::Track, ns per call.
double TrackNs();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
