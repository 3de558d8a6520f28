// Runtime SIMD dispatch for the batch kernels.
//
// The SoA lanes from PRs 4-5 (gain rows, ziggurat batch streams, power-
// control dB lanes) are consumed by vectorized kernels in src/sim/kernels.*,
// src/common/refmath.cpp and src/common/ziggurat.cpp.  This header owns the
// ONE decision those kernels share: which instruction set to run.  The
// level is resolved once (CPUID probe + WCDMA_SIMD override) and cached;
// every kernel entry point switches on active_simd_level().
//
// Contract (docs/ACCURACY.md "dispatch levels"): every level of every
// kernel is ELEMENT-WISE IDENTICAL to the scalar implementation -- same IEEE
// operations in the same order, no FMA contraction, no reassociation -- so
// the level is a pure throughput knob.  Every provider's trajectory is
// byte-identical under scalar and AVX2 dispatch (pinned by
// tests/test_kernels.cpp); the exact path's gain lane runs refmath's exp2
// and log2 lanes, whose every level is the scalar refmath function
// (tests/test_refmath.cpp).
//
// Resolution order for the startup level:
//   1. WCDMA_SIMD environment variable  (auto | scalar | avx2)
//   2. auto == the best level the host supports.
// Requests above the host's capability clamp down to the supported maximum,
// so WCDMA_SIMD=avx2 on a host without AVX2 degrades instead of faulting.
#pragma once

#include <cstdlib>
#include <cstring>

namespace wcdma::common {

/// Kernel instruction-set tiers, ordered so numeric comparison == capability
/// comparison.  kScalar is the portable fallback and the reference semantics
/// for every kernel.
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

inline const char* simd_level_name(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

/// Best level this host can execute (one-time CPUID probe on x86).
inline SimdLevel max_supported_simd_level() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

/// Parses "auto" / "scalar" / "avx2" ("auto" resolves to the host maximum).
/// Returns false, leaving *out untouched, on anything else.
inline bool parse_simd_level(const char* text, SimdLevel* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "auto") == 0) {
    *out = max_supported_simd_level();
    return true;
  }
  if (std::strcmp(text, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
    return true;
  }
  return false;
}

namespace detail {

inline SimdLevel clamp_to_supported(SimdLevel level) {
  const SimdLevel max = max_supported_simd_level();
  return static_cast<int>(level) > static_cast<int>(max) ? max : level;
}

/// Startup resolution: env override, then auto.  Reads the environment
/// exactly once (the result is cached in simd_level_slot), so the level
/// cannot drift mid-run.
inline SimdLevel resolve_startup_simd_level() {
  SimdLevel level = SimdLevel::kScalar;
  if (parse_simd_level(std::getenv("WCDMA_SIMD"), &level)) {
    return clamp_to_supported(level);
  }
  return max_supported_simd_level();
}

/// The cached dispatch level.  A function-local static (not a global) so the
/// CPUID/env probe runs on first kernel use, after main() has the
/// environment it wants to present.  Deterministic by construction: levels
/// only select between element-wise identical kernels, so this cache cannot
/// influence results -- see lint_rules.md (DET-STATIC-LOCAL allowlist).
inline SimdLevel& simd_level_slot() {
  static SimdLevel level = resolve_startup_simd_level();
  return level;
}

}  // namespace detail

/// The level every kernel dispatches on (resolved + cached on first call).
inline SimdLevel active_simd_level() { return detail::simd_level_slot(); }

/// Test hook: forces the dispatch level (tests/test_kernels.cpp runs every
/// kernel under every level the host supports).  Returns false -- leaving the
/// level unchanged -- when the host cannot execute `level`.
inline bool set_simd_level(SimdLevel level) {
  if (static_cast<int>(level) > static_cast<int>(max_supported_simd_level())) {
    return false;
  }
  detail::simd_level_slot() = level;
  return true;
}

}  // namespace wcdma::common
