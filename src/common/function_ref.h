// Non-owning reference to a callable: two pointers, no allocation.
//
// The thread pool and the conjugate-gradient solver take their callables
// through this type, so a fan-out or an inner solve never builds a
// std::function (whose type-erased copy of a capture-heavy lambda would
// allocate on every call).  The referenced callable must outlive every
// invocation -- true for the usual pattern of passing a lambda straight
// into the call that runs it.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace doseopt {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace doseopt
