//===- support/Compiler.h - Portable compiler annotations ------*- C++ -*-===//
///
/// \file
/// Small set of compiler-portability macros used throughout the library.
/// Fast-path locking code is extremely sensitive to inlining decisions, so
/// the thin-lock fast paths are annotated explicitly (the paper's §3.5
/// "Inline" vs "FnCall" experiment is built directly on these attributes).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_COMPILER_H
#define THINLOCKS_SUPPORT_COMPILER_H

#if defined(__GNUC__) || defined(__clang__)
#define TL_ALWAYS_INLINE inline __attribute__((always_inline))
#define TL_NOINLINE __attribute__((noinline))
#define TL_LIKELY(X) __builtin_expect(!!(X), 1)
#define TL_UNLIKELY(X) __builtin_expect(!!(X), 0)
#define TL_PREFETCH(Addr, ForWrite) __builtin_prefetch((Addr), (ForWrite))
#else
#define TL_ALWAYS_INLINE inline
#define TL_NOINLINE
#define TL_LIKELY(X) (X)
#define TL_UNLIKELY(X) (X)
#define TL_PREFETCH(Addr, ForWrite) ((void)(Addr))
#endif

namespace thinlocks {

/// Marks a point in the program that is known to be unreachable.  In debug
/// builds this aborts loudly; in release builds it is an optimizer hint.
[[noreturn]] inline void tlUnreachable(const char *Msg) {
#ifndef NDEBUG
  __builtin_trap();
  (void)Msg;
#else
  (void)Msg;
  __builtin_unreachable();
#endif
}

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_COMPILER_H
