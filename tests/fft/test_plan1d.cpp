// Correctness of the 1D engine against the naive reference DFT, across an
// exhaustive small-size sweep plus mixed-radix composites and Bluestein
// primes, in both directions.
#include "fft/plan1d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include <complex>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "fft/dft_ref.hpp"

namespace {

using fx::core::Rng;
using fx::fft::cplx;
using fx::fft::Direction;
using fx::fft::dft_reference;
using fx::fft::Fft1d;

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

double max_abs_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// Absolute tolerance scaled with transform size; unnormalized outputs grow
/// like sqrt(n) for unit-variance inputs.
double tolerance(std::size_t n) {
  return 1e-11 * (1.0 + std::sqrt(static_cast<double>(n)) * 10.0);
}

class Plan1dSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1dSweep, ForwardMatchesReference) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 100 + n);
  std::vector<cplx> want(n);
  std::vector<cplx> got(n);
  dft_reference(x, want, Direction::Forward);
  Fft1d plan(n, Direction::Forward);
  plan.execute(x.data(), got.data());
  EXPECT_LT(max_abs_err(want, got), tolerance(n)) << "n=" << n;
}

TEST_P(Plan1dSweep, BackwardMatchesReference) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 200 + n);
  std::vector<cplx> want(n);
  std::vector<cplx> got(n);
  dft_reference(x, want, Direction::Backward);
  Fft1d plan(n, Direction::Backward);
  plan.execute(x.data(), got.data());
  EXPECT_LT(max_abs_err(want, got), tolerance(n)) << "n=" << n;
}

TEST_P(Plan1dSweep, RoundTripIsScaledIdentity) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 300 + n);
  std::vector<cplx> mid(n);
  std::vector<cplx> back(n);
  Fft1d fwd(n, Direction::Forward);
  Fft1d bwd(n, Direction::Backward);
  fwd.execute(x.data(), mid.data());
  bwd.execute(mid.data(), back.data());
  const double scale = static_cast<double>(n);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(back[i] / scale - x[i]));
  }
  EXPECT_LT(err, tolerance(n)) << "n=" << n;
}

TEST_P(Plan1dSweep, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 400 + n);
  std::vector<cplx> X(n);
  Fft1d plan(n, Direction::Forward);
  plan.execute(x.data(), X.data());
  double ein = 0.0;
  double eout = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ein += std::norm(x[i]);
    eout += std::norm(X[i]);
  }
  EXPECT_NEAR(eout, ein * static_cast<double>(n),
              1e-10 * (1.0 + ein * static_cast<double>(n)))
      << "n=" << n;
}

TEST_P(Plan1dSweep, LinearityHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 500 + n);
  const auto y = random_signal(n, 600 + n);
  const cplx alpha{0.7, -1.3};
  std::vector<cplx> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = x[i] + alpha * y[i];

  Fft1d plan(n, Direction::Forward);
  std::vector<cplx> X(n);
  std::vector<cplx> Y(n);
  std::vector<cplx> C(n);
  plan.execute(x.data(), X.data());
  plan.execute(y.data(), Y.data());
  plan.execute(combo.data(), C.data());
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(C[i] - (X[i] + alpha * Y[i])));
  }
  EXPECT_LT(err, tolerance(n)) << "n=" << n;
}

TEST_P(Plan1dSweep, ImpulseTransformsToConstant) {
  const std::size_t n = GetParam();
  std::vector<cplx> x(n, cplx{0.0, 0.0});
  x[0] = cplx{1.0, 0.0};
  std::vector<cplx> X(n);
  Fft1d plan(n, Direction::Forward);
  plan.execute(x.data(), X.data());
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_NEAR(X[k].real(), 1.0, 1e-12) << "n=" << n << " k=" << k;
    ASSERT_NEAR(X[k].imag(), 0.0, 1e-12) << "n=" << n << " k=" << k;
  }
}

TEST_P(Plan1dSweep, InPlaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 700 + n);
  std::vector<cplx> want(n);
  Fft1d plan(n, Direction::Forward);
  plan.execute(x.data(), want.data());
  plan.execute(x.data(), x.data());  // in place
  EXPECT_LT(max_abs_err(want, x), 1e-12) << "n=" << n;
}

// Every length 1..40 (covers all leaf radices and many mixed products).
INSTANTIATE_TEST_SUITE_P(AllSmallSizes, Plan1dSweep,
                         ::testing::Range<std::size_t>(1, 41));

// Mixed-radix composites, powers, and QE-typical grid dimensions.
INSTANTIATE_TEST_SUITE_P(
    Composites, Plan1dSweep,
    ::testing::Values(48, 60, 64, 72, 90, 100, 105, 120, 128, 144, 180, 210,
                      240, 243, 256, 360, 500, 512, 625, 729, 1000, 1024,
                      // radix-7 leaves and combines, alone and mixed
                      14, 21, 35, 49, 175, 245));

// Prime sizes exercising the Bluestein fallback.
INSTANTIATE_TEST_SUITE_P(BluesteinPrimes, Plan1dSweep,
                         ::testing::Values(17, 19, 23, 29, 31, 37, 41, 53, 61,
                                           97, 101, 127, 211, 251, 509));

// Composites with a large prime factor (Bluestein through factor paths).
INSTANTIATE_TEST_SUITE_P(BluesteinComposites, Plan1dSweep,
                         ::testing::Values(34, 38, 46, 94, 2 * 17 * 3, 5 * 19));

TEST(Plan1d, BluesteinSelection) {
  EXPECT_FALSE(Fft1d(120, Direction::Forward).uses_bluestein());
  EXPECT_FALSE(Fft1d(13 * 11, Direction::Forward).uses_bluestein());
  EXPECT_TRUE(Fft1d(17, Direction::Forward).uses_bluestein());
  EXPECT_TRUE(Fft1d(2 * 17, Direction::Forward).uses_bluestein());
}

TEST(Plan1d, LengthOneIsIdentity) {
  const cplx x{2.5, -1.5};
  cplx y{};
  Fft1d plan(1, Direction::Forward);
  plan.execute(&x, &y);
  EXPECT_EQ(y, x);
}

TEST(Plan1d, RejectsZeroLength) {
  EXPECT_THROW(Fft1d(0, Direction::Forward), fx::core::Error);
}

TEST(Plan1d, ConcurrentExecutionOnSharedPlanIsSafe) {
  constexpr std::size_t kN = 240;
  Fft1d plan(kN, Direction::Forward);
  const auto x = random_signal(kN, 42);
  std::vector<cplx> want(kN);
  plan.execute(x.data(), want.data());

  constexpr int kThreads = 4;
  std::vector<double> errs(kThreads, 1.0);
  {
    std::vector<std::jthread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<cplx> got(kN);
        for (int iter = 0; iter < 50; ++iter) {
          plan.execute(x.data(), got.data());
        }
        errs[static_cast<std::size_t>(t)] = max_abs_err(want, got);
      });
    }
  }
  for (double e : errs) EXPECT_LT(e, 1e-12);
}

}  // namespace
