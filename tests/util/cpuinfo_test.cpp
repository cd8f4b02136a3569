#include "util/cpuinfo.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ndsnn::util::simd {
namespace {

TEST(CpuinfoTest, DetectedIsConcrete) {
  const Tier t = detected();
  EXPECT_NE(t, Tier::kAuto);
  EXPECT_GE(static_cast<int>(t), static_cast<int>(Tier::kScalar));
  EXPECT_LE(static_cast<int>(t), static_cast<int>(Tier::kAvx2));
  // Stable across calls (cached probe).
  EXPECT_EQ(detected(), t);
}

TEST(CpuinfoTest, NamesRoundTrip) {
  for (const Tier t : {Tier::kAuto, Tier::kScalar, Tier::kAvx2}) {
    Tier parsed = Tier::kScalar;
    ASSERT_TRUE(parse(name(t), &parsed)) << name(t);
    EXPECT_EQ(parsed, t);
  }
  Tier out;
  EXPECT_FALSE(parse("avx512", &out));
  EXPECT_FALSE(parse("vector", &out));
  EXPECT_FALSE(parse("", &out));
}

TEST(CpuinfoTest, ResolveClampsToDetected) {
  EXPECT_EQ(resolve(Tier::kAuto), active());
  EXPECT_EQ(resolve(Tier::kScalar), Tier::kScalar);
  // An explicit request never exceeds the hardware.
  EXPECT_LE(static_cast<int>(resolve(Tier::kAvx2)), static_cast<int>(detected()));
  EXPECT_NE(resolve(Tier::kAvx2), Tier::kAuto);
}

TEST(CpuinfoTest, ForceOverridesAndClears) {
  force(Tier::kScalar);
  EXPECT_EQ(active(), Tier::kScalar);
  EXPECT_EQ(resolve(Tier::kAuto), Tier::kScalar);
  // Explicit requests ignore force() — it only redefines kAuto.
  EXPECT_LE(static_cast<int>(resolve(Tier::kAvx2)), static_cast<int>(detected()));
  force(Tier::kAvx2);  // clamped on non-AVX2 hardware
  EXPECT_LE(static_cast<int>(active()), static_cast<int>(detected()));
  force(Tier::kAuto);  // clear
  EXPECT_LE(static_cast<int>(active()), static_cast<int>(detected()));
}

// CI dispatch smoke: when the runner exports NDSNN_EXPECT_TIER, assert
// the probe actually detected that tier — catches a build or detection
// regression that would silently demote every kernel to a slower tier.
TEST(CpuinfoTest, DetectedMatchesExpectTierEnv) {
  const char* expect = std::getenv("NDSNN_EXPECT_TIER");
  if (expect == nullptr) GTEST_SKIP() << "NDSNN_EXPECT_TIER not set";
  Tier want = Tier::kAuto;
  ASSERT_TRUE(parse(expect, &want)) << "bad NDSNN_EXPECT_TIER: " << expect;
  EXPECT_EQ(detected(), want);
}

}  // namespace
}  // namespace ndsnn::util::simd
