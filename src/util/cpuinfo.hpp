// Runtime CPU-feature detection and the kernel-tier dispatch contract.
//
// Every hot kernel in src/sparse/ and src/tensor/ exists at up to two
// tiers:
//
//   kScalar — portable C++ loops (whatever the compiler autovectorizes;
//             the bitwise reference semantics).
//   kAvx2   — hand-written AVX2(+FMA) intrinsic bodies, compiled with
//             `__attribute__((target("avx2,fma")))` so the binary still
//             runs on pre-AVX2 x86 (the tier is simply never selected
//             there).
//
// Dispatch is data-independent: a kernel call resolves its tier once
// (request -> active() -> clamped to detected()) and the chosen body
// computes the identical per-output accumulation order, so fp32 results
// are bitwise identical across tiers (pinned by
// tests/sparse/simd_tier_test.cpp and the differential harness's tier
// axis). Quantised bodies carry only the QuantPlane error contract and
// are free to reassociate per tier.
//
// Selection precedence (strongest first):
//   1. force() — tests and the bench's tier sweeps.
//   2. NDSNN_KERNEL_TIER=scalar|avx2 env var, read once.
//   3. detected() — cpuid probe (AVX2 && FMA -> kAvx2, else kScalar).
// Requests above detected() clamp down (forcing "avx2" on a non-AVX2
// box runs kScalar instead of SIGILLing); kAuto means "no opinion".
#pragma once

#include <string_view>

namespace ndsnn::util::simd {

/// Kernel tier. kAuto is a request value only ("use active()");
/// detected()/active()/resolve() never return it.
enum class Tier { kAuto = 0, kScalar = 1, kAvx2 = 2 };

/// Best tier this CPU can execute (cached cpuid probe; never kAuto).
Tier detected();

/// Tier a kAuto request resolves to right now: force() override if set,
/// else the NDSNN_KERNEL_TIER env var, else detected(). Always clamped
/// to detected().
Tier active();

/// Resolve an explicit request: kAuto -> active(), anything else is
/// clamped to detected() so an impossible request degrades instead of
/// faulting.
Tier resolve(Tier request);

/// Process-wide override for tests and tier-sweep benches. kAuto clears
/// the override. Not meant to race with in-flight kernels (callers
/// force around a measured region); the store itself is atomic.
void force(Tier tier);

/// "auto" | "scalar" | "avx2".
const char* name(Tier tier);

/// Parse a tier name (as accepted by NDSNN_KERNEL_TIER and the
/// serve_sparse --kernel-tier flag). Returns false on unknown input.
bool parse(std::string_view text, Tier* out);

}  // namespace ndsnn::util::simd
