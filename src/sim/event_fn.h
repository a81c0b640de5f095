#ifndef NATTO_SIM_EVENT_FN_H_
#define NATTO_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace natto::sim {

/// Move-only callable with small-buffer optimization, tuned for the event
/// kernel's hot path: scheduling an event must not allocate.
///
/// std::function was the wrong tool here twice over: libstdc++ only inlines
/// captures up to 16 bytes (almost every protocol closure in this repo is
/// bigger, so each Schedule paid a malloc/free pair), and it insists on
/// copyability, forcing shared_ptr detours for move-only captures.
///
/// `EventFn` (below) is the `void()` instance every event, message delivery
/// and raft completion carries. Its inline capacity is sized from the real
/// closures on the delivery hot path, measured in sim_kernel_test.cc
/// (DESIGN.md §4.8 lists the numbers): the largest is a coordinator
/// HandleBegin delivery capturing a wire transaction plus its participant
/// list (~144 bytes). Closures above the capacity still work — they fall
/// back to a single heap allocation, the same cost std::function paid for
/// nearly everything.
template <typename Signature, std::size_t Capacity>
class InlineFn;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= kStorageAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &InlineInvoke<Fn>;
      manage_ = &InlineManage<Fn>;
    } else {
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &HeapInvoke<Fn>;
      manage_ = &HeapManage<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  /// Destroys the held callable (no-op when empty).
  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, this, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  R operator()(Args... args) {
    return invoke_(this, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  static constexpr std::size_t kStorageAlign = alignof(void*);

  enum class Op { kDestroy, kMoveTo };

  using InvokeFn = R (*)(InlineFn*, Args&&...);
  using ManageFn = void (*)(Op, InlineFn*, InlineFn*);

  template <typename Fn>
  static R InlineInvoke(InlineFn* self, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(self->storage_)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void InlineManage(Op op, InlineFn* self, InlineFn* dst) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(self->storage_));
    if (op == Op::kMoveTo) {
      ::new (static_cast<void*>(dst->storage_)) Fn(std::move(*f));
    }
    f->~Fn();
  }

  template <typename Fn>
  static R HeapInvoke(InlineFn* self, Args&&... args) {
    return (**std::launder(reinterpret_cast<Fn**>(self->storage_)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void HeapManage(Op op, InlineFn* self, InlineFn* dst) {
    Fn** slot = std::launder(reinterpret_cast<Fn**>(self->storage_));
    if (op == Op::kMoveTo) {
      ::new (static_cast<void*>(dst->storage_)) Fn*(*slot);
    } else {
      delete *slot;
    }
  }

  void MoveFrom(InlineFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveTo, &other, this);
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  alignas(kStorageAlign) unsigned char storage_[kInlineCapacity];
};

/// The kernel's callback type: events, message deliveries, raft commit
/// completions. Passed by rvalue reference end to end and fired in place
/// in its event node, so a closure is constructed once and moved once
/// (into its node or envelope).
using EventFn = InlineFn<void(), 152>;

}  // namespace natto::sim

#endif  // NATTO_SIM_EVENT_FN_H_
