// Move-only type-erased R() callable with a large inline buffer.
//
// The event-loop hot path schedules millions of closures per simulated
// second; `std::function`'s small-buffer optimization (16 bytes in
// libstdc++) spills every capture that includes a `Packet` (~72 bytes with
// the `this` pointer) onto the heap. `InlineCallback` keeps captures up to
// `kInlineBytes` in the slot itself, so EventQueue's slot store owns the
// callback inline and Push/Pop never allocate for simulator-sized closures.
// Oversized or over-aligned callables still fall back to the heap, and
// move-only captures (which `std::function` rejects outright) are allowed.
//
// `InlineCallback` is the void() form the event queue stores;
// `BasicInlineCallback<R>` returns R (CpuCore's start functions return
// their processing cost).

#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace e2e {

template <typename R>
class BasicInlineCallback {
 public:
  // Sized so sizeof(InlineCallback) == 112: room for a lambda capturing
  // `this` plus a full Packet (64 bytes) with headroom for a couple of
  // extra words, while an EventQueue slot (callback + generation tag)
  // stays within two cache lines.
  static constexpr size_t kInlineBytes = 104;

  BasicInlineCallback() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, BasicInlineCallback> &&
                                        std::is_invocable_r_v<R, D&>>>
  BasicInlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &kHeapOps<D>;
    }
  }

  BasicInlineCallback(BasicInlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  BasicInlineCallback& operator=(BasicInlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  BasicInlineCallback(const BasicInlineCallback&) = delete;
  BasicInlineCallback& operator=(const BasicInlineCallback&) = delete;

  ~BasicInlineCallback() { Reset(); }

  R operator()() { return ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    R (*invoke)(void* storage);
    // Move the callable from `from` storage into `to` storage and destroy
    // the source. Both point at `buf_`-sized buffers.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  // Calls `f`, discarding its result when R is void (a void() callback may
  // wrap a callable that returns something).
  template <typename D>
  static R Invoke(D& f) {
    if constexpr (std::is_void_v<R>) {
      f();
    } else {
      return f();
    }
  }

  template <typename D>
  static D* HeapPtr(void* storage) {
    D* p;
    std::memcpy(&p, storage, sizeof(p));
    return p;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) -> R { return Invoke(*std::launder(reinterpret_cast<D*>(s))); },
      [](void* from, void* to) {
        D* f = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) -> R { return Invoke(*HeapPtr<D>(s)); },
      [](void* from, void* to) { std::memcpy(to, from, sizeof(D*)); },
      [](void* s) { delete HeapPtr<D>(s); },
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

using InlineCallback = BasicInlineCallback<void>;

}  // namespace e2e

#endif  // SRC_SIM_CALLBACK_H_
