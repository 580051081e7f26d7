// A Redis-like key-value server application running on a simulated host.
//
// Event-loop model: a readable socket schedules one work item on the app
// core; the work drains all complete requests with one recv(), pays the
// per-request processing costs, then issues one send() per response —
// exactly the syscall pattern whose interaction with Nagle the paper
// studies. Whether those sends become one wire packet or many is decided by
// the TCP layer (Nagle on/off/cork-limit).

#ifndef SRC_APPS_REDIS_SERVER_H_
#define SRC_APPS_REDIS_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/cost_profile.h"
#include "src/apps/kv_store.h"
#include "src/apps/messages.h"
#include "src/sim/ring.h"
#include "src/sim/simulator.h"
#include "src/tcp/endpoint.h"

namespace e2e {

class RedisServerApp {
 public:
  struct Config {
    AppCosts costs = RedisServerCosts();
    // Bytes read per event-loop iteration (Redis reads bounded chunks, so
    // under backlog bytes stay in the kernel receive queue — which is what
    // lets the unread queue reflect application-induced queueing).
    uint64_t recv_chunk_bytes = 32768;
  };

  RedisServerApp(Simulator* sim, TcpEndpoint* socket, const Config& config);

  const VirtualKvStore& store() const { return store_; }
  // Direct store access, e.g. to prefill keys before a GET-bearing run.
  VirtualKvStore& mutable_store() { return store_; }

  struct Stats {
    uint64_t wakeups = 0;
    uint64_t requests = 0;
    uint64_t sets = 0;
    uint64_t gets = 0;
    uint64_t responses = 0;
    uint64_t max_batch = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void ScheduleWork();
  void PumpRequests();

  Simulator* sim_;
  TcpEndpoint* socket_;
  Config config_;
  VirtualKvStore store_;
  bool work_pending_ = false;
  bool request_work_active_ = false;
  std::vector<AppRequestPtr> batch_;
  Ring<AppRequestPtr> pending_requests_;
  Stats stats_;
};

}  // namespace e2e

#endif  // SRC_APPS_REDIS_SERVER_H_
