#include "src/testbed/sweep/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

void SweepExecutor::Run(size_t num_cells, const std::function<void(size_t)>& body,
                        const std::function<void(size_t)>& commit) const {
  if (jobs_ <= 1 || num_cells <= 1) {
    for (size_t i = 0; i < num_cells; ++i) {
      body(i);
      commit(i);
    }
    return;
  }

  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<char> done(num_cells, 0);
  std::atomic<size_t> next{0};

  const size_t workers = std::min(static_cast<size_t>(jobs_), num_cells);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= num_cells) {
          return;
        }
        body(i);
        {
          std::lock_guard<std::mutex> lock(mu);
          done[i] = 1;
        }
        done_cv.notify_one();
      }
    });
  }

  // Commit strictly in cell order, each as soon as its body finishes; the
  // pool keeps running ahead on later cells meanwhile.
  for (size_t i = 0; i < num_cells; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      done_cv.wait(lock, [&] { return done[i] != 0; });
    }
    commit(i);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

}  // namespace e2e
