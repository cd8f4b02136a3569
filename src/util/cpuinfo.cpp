#include "util/cpuinfo.hpp"

#include <atomic>
#include <cstdlib>

namespace ndsnn::util::simd {

namespace {

Tier probe() {
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  // The AVX2 bodies use FMA for the quantised kernels, so both bits
  // must be present before the tier is offered.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Tier::kAvx2;
  }
#endif
  return Tier::kScalar;
}

Tier clamp(Tier t, Tier ceiling) { return t > ceiling ? ceiling : t; }

Tier env_tier() {
  const char* v = std::getenv("NDSNN_KERNEL_TIER");
  Tier t = Tier::kAuto;
  if (v != nullptr) parse(v, &t);  // unknown values fall through to kAuto
  return t;
}

std::atomic<Tier> g_forced{Tier::kAuto};

}  // namespace

Tier detected() {
  static const Tier tier = probe();
  return tier;
}

Tier active() {
  const Tier forced = g_forced.load(std::memory_order_relaxed);
  if (forced != Tier::kAuto) return clamp(forced, detected());
  static const Tier env = env_tier();
  if (env != Tier::kAuto) return clamp(env, detected());
  return detected();
}

Tier resolve(Tier request) {
  if (request == Tier::kAuto) return active();
  return clamp(request, detected());
}

void force(Tier tier) { g_forced.store(tier, std::memory_order_relaxed); }

const char* name(Tier tier) {
  switch (tier) {
    case Tier::kAuto: return "auto";
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  return "?";
}

bool parse(std::string_view text, Tier* out) {
  if (text == "auto") *out = Tier::kAuto;
  else if (text == "scalar") *out = Tier::kScalar;
  else if (text == "avx2") *out = Tier::kAvx2;
  else return false;
  return true;
}

}  // namespace ndsnn::util::simd
