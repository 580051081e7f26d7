#ifndef SRC_SIM_ARENA_H_
#define SRC_SIM_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

namespace e2e {

// Chunked bump allocator behind the std::pmr interface: allocations carve
// from geometrically growing chunks, deallocate is a no-op, and everything is
// released when the resource is destroyed. One instance per simulator domain
// backs that domain's EventQueue slot store and cross-domain outbox, so a
// domain's hot-path state lives in a few contiguous chunks owned by the
// domain (touched only by the worker that runs it) instead of being
// interleaved with every other domain's on the global heap.
//
// The trade-off is deliberate: pmr vectors that grow leave their old buffers
// dead in the arena (bounded by the usual doubling series, ~2x the steady
// state), in exchange for zero malloc/free traffic and no allocator-lock
// contention once queues reach steady capacity. Not thread-safe — per-domain
// ownership is the synchronization.
class ArenaMemoryResource : public std::pmr::memory_resource {
 public:
  explicit ArenaMemoryResource(size_t first_chunk_bytes = 1024)
      : next_chunk_bytes_(first_chunk_bytes) {}
  ArenaMemoryResource(const ArenaMemoryResource&) = delete;
  ArenaMemoryResource& operator=(const ArenaMemoryResource&) = delete;

  // Bytes handed out to containers (live + dead generations).
  size_t bytes_allocated() const { return bytes_allocated_; }
  // Bytes reserved from the upstream heap.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr size_t kMaxChunkBytes = size_t{1} << 20;

  void* do_allocate(size_t bytes, size_t alignment) override {
    size_t offset = (offset_ + alignment - 1) & ~(alignment - 1);
    if (chunks_.empty() || offset + bytes > chunks_.back().size) {
      size_t chunk = next_chunk_bytes_;
      while (chunk < bytes + alignment) {
        chunk *= 2;
      }
      chunks_.push_back(Chunk{std::make_unique<unsigned char[]>(chunk), chunk});
      bytes_reserved_ += chunk;
      next_chunk_bytes_ = std::min(kMaxChunkBytes, next_chunk_bytes_ * 2);
      uintptr_t base = reinterpret_cast<uintptr_t>(chunks_.back().data.get());
      offset = ((base + alignment - 1) & ~(alignment - 1)) - base;
    }
    void* p = chunks_.back().data.get() + offset;
    offset_ = offset + bytes;
    bytes_allocated_ += bytes;
    return p;
  }

  void do_deallocate(void* /*p*/, size_t /*bytes*/, size_t /*alignment*/) override {
    // Bump allocator: individual frees are no-ops; chunks die with the arena.
  }

  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t size;
  };
  std::vector<Chunk> chunks_;
  size_t offset_ = 0;  // Into chunks_.back().
  size_t next_chunk_bytes_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace e2e

#endif  // SRC_SIM_ARENA_H_
