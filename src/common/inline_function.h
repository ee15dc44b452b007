/**
 * @file
 * Small-buffer-optimized callables for the simulator's hot paths.
 *
 * std::function costs a heap allocation whenever the callable exceeds
 * the implementation's tiny inline buffer (16 bytes on libstdc++) and
 * its copyability forces every capture-by-copy of a callback chain to
 * duplicate that allocation. Every simulated memory request used to pay
 * for this several times: once in the controller's waiter record, once
 * per completion lambda scheduled on the event queue, once per flash
 * callback.
 *
 * InlineFunction<Sig, Bytes> removes that traffic: a move-only
 * std::function replacement with a Bytes-sized inline buffer. Moving
 * relocates the callable (via its move constructor) instead of cloning
 * it. A callable that does not fit the buffer does not construct: the
 * size is checked at compile time, so no callback ever allocates.
 * Event-queue records emplace() each scheduled lambda straight into
 * their member InlineFunction, so that callable is never moved at all.
 *
 * It is deliberately not copyable: a callback is consumed exactly once
 * in this codebase, and cloning is the cost being removed.
 */

#ifndef SKYBYTE_COMMON_INLINE_FUNCTION_H
#define SKYBYTE_COMMON_INLINE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace skybyte {

template <typename Sig, std::size_t Bytes = 48>
class InlineFunction; // primary; only the R(Args...) form exists

/** @p Fn fits an InlineFunction buffer of @p Bytes. */
template <typename Fn, std::size_t Bytes>
concept FitsInline = sizeof(Fn) <= Bytes
                     && alignof(Fn) <= alignof(std::max_align_t);

/**
 * Move-only type-erased callable with a Bytes-sized inline buffer.
 */
template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes>
{
  public:
    static constexpr std::size_t kInlineBytes = Bytes;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineFunction>
                 && std::is_invocable_r_v<R, std::decay_t<F> &, Args...>
                 && FitsInline<std::decay_t<F>, Bytes>)
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    ~InlineFunction() { reset(); }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

    /** Destroy the current target and construct @p fn in place. */
    template <typename F>
        requires FitsInline<std::decay_t<F>, Bytes>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        invoke_ = [](void *buf, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(buf)))(
                std::forward<Args>(args)...);
        };
        manage_ = [](Op op, void *self, void *dst) {
            Fn *fn_p = std::launder(reinterpret_cast<Fn *>(self));
            if (op == Op::MoveTo)
                ::new (dst) Fn(std::move(*fn_p));
            fn_p->~Fn();
        };
    }

  private:
    enum class Op { MoveTo, Destroy };
    using Invoke = R (*)(void *, Args &&...);
    using Manage = void (*)(Op, void *, void *);

    void
    reset()
    {
        if (manage_ != nullptr)
            manage_(Op::Destroy, buf_, nullptr);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    void
    moveFrom(InlineFunction &other)
    {
        if (other.manage_ != nullptr) {
            other.manage_(Op::MoveTo, other.buf_, buf_);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Bytes];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

} // namespace skybyte

#endif // SKYBYTE_COMMON_INLINE_FUNCTION_H
