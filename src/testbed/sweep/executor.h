// Parallel sweep executor: run independent experiment cells on a worker
// pool, committing results in strict cell-index order (DESIGN.md §12).
//
// Every sweep bench is a grid of independent, deterministic simulation
// cells: each cell builds its own Simulator, derives its random streams
// from a keyed seed (never from global state), and only its *reporting*
// touches shared output. That makes the parallelism contract simple:
//
//   * `body(i)` runs cell i — possibly concurrently with other cells, on a
//     worker thread — and must only write caller-owned per-cell state (its
//     result slot). No stdout/JSON, no shared mutable state.
//   * `commit(i)` runs on the calling thread, strictly in order i = 0, 1,
//     ..., n-1, as soon as cell i's body has finished. All printing,
//     scoring against earlier cells, and JSON assembly belongs here.
//
// Under that contract the sweep's stdout and JSON output are byte-identical
// between jobs=1 and jobs=N (CI compares them), because every output byte is
// produced serially in cell order from deterministic per-cell results.
//
// Tracing composes: the trace-recorder binding is thread-local
// (src/obs/trace.h), so a body that wants its cell traced binds a
// ScopedTrace around its own run and records only that cell regardless of
// what the other workers are doing.

#ifndef SRC_TESTBED_SWEEP_EXECUTOR_H_
#define SRC_TESTBED_SWEEP_EXECUTOR_H_

#include <cstddef>
#include <functional>

namespace e2e {

class SweepExecutor {
 public:
  // `jobs` is the worker-pool size; <= 1 means fully serial execution in
  // the calling thread (no threads are created at all — the reference
  // behavior the parallel path must reproduce byte-for-byte).
  explicit SweepExecutor(int jobs) : jobs_(jobs) {}

  // Runs body(0..n-1) on the pool and commit(0..n-1) in order on the
  // calling thread (see the contract above). Returns after every body and
  // commit has finished.
  void Run(size_t num_cells, const std::function<void(size_t)>& body,
           const std::function<void(size_t)>& commit) const;

 private:
  int jobs_;
};

}  // namespace e2e

#endif  // SRC_TESTBED_SWEEP_EXECUTOR_H_
