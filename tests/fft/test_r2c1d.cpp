// Batched r2c/c2r transforms vs. the reference DFT on real input, and
// every ISA tier bit for bit against the baseline tier.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "fft/dft_ref.hpp"
#include "fft/plan3d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/r2c1d.hpp"

namespace {

using fx::core::Rng;
using fx::fft::BatchKernel;
using fx::fft::BatchPlanR2c1d;
using fx::fft::cplx;
using fx::fft::Direction;
using fx::fft::TileIsa;
using fx::fft::Workspace;

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

// Reference r2c: full complex DFT of the real signal, first n/2+1 kept.
std::vector<cplx> reference_half_spectrum(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> in(n);
  for (std::size_t j = 0; j < n; ++j) in[j] = cplx{x[j], 0.0};
  std::vector<cplx> full(n);
  fx::fft::dft_reference(in, full, Direction::Forward);
  full.resize(n / 2 + 1);
  return full;
}

// Odd and even lengths, smooth and Bluestein sizes (17, 31, 97 are prime;
// 46 = 2*23 sends the packed path's half-length plan through Bluestein).
class R2cSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(R2cSweep, ForwardMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 7 * n + 1);
  const auto want = reference_half_spectrum(x);

  BatchPlanR2c1d plan(n, Direction::Forward);
  EXPECT_EQ(plan.half_spectrum(), n / 2 + 1);
  Workspace ws;
  std::vector<cplx> got(plan.half_spectrum());
  plan.execute(x, got, ws);
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_NEAR(std::abs(got[k] - want[k]), 0.0, 1e-10)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(R2cSweep, RoundTripScalesByN) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 9 * n + 2);

  BatchPlanR2c1d fwd(n, Direction::Forward);
  BatchPlanR2c1d bwd(n, Direction::Backward);
  Workspace ws;
  std::vector<cplx> half(fwd.half_spectrum());
  fwd.execute(x, half, ws);
  std::vector<double> back(n);
  bwd.execute(half, back, ws);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(back[j], static_cast<double>(n) * x[j], 1e-9 * n) << "j=" << j;
  }
}

TEST_P(R2cSweep, ScalarOracleAgreesWithSimdPath) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 11 * n + 3);

  BatchPlanR2c1d simd(n, Direction::Forward, BatchKernel::Simd);
  BatchPlanR2c1d scalar(n, Direction::Forward, BatchKernel::Scalar);
  EXPECT_FALSE(scalar.packed_active());
  Workspace ws;
  std::vector<cplx> a(simd.half_spectrum());
  std::vector<cplx> b(simd.half_spectrum());
  simd.execute(x, a, ws);
  scalar.execute(x, b, ws);
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_NEAR(std::abs(a[k] - b[k]), 0.0, 1e-10) << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, R2cSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 17, 31, 46,
                                           60, 97, 120, 128));

// Batch sweep across layouts: every batch size from tiny to several SIMD
// tiles, contiguous and transposed, against the per-signal reference.
class R2cBatchSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(R2cBatchSweep, ContiguousBatchesMatchReference) {
  const std::size_t howmany = GetParam();
  const std::size_t n = 24;
  const std::size_t nh = n / 2 + 1;
  const auto x = random_real(howmany * n, 100 + howmany);

  BatchPlanR2c1d plan(n, Direction::Forward);
  Workspace ws;
  std::vector<cplx> got(howmany * nh);
  plan.execute_many(howmany, x.data(), 1, n, got.data(), 1, nh, ws);
  for (std::size_t b = 0; b < howmany; ++b) {
    const std::vector<double> xb(x.begin() + static_cast<long>(b * n),
                                 x.begin() + static_cast<long>((b + 1) * n));
    const auto want = reference_half_spectrum(xb);
    for (std::size_t k = 0; k < nh; ++k) {
      ASSERT_NEAR(std::abs(got[b * nh + k] - want[k]), 0.0, 1e-10)
          << "b=" << b << " k=" << k;
    }
  }
}

TEST_P(R2cBatchSweep, TransposedLayoutRoundTrips) {
  const std::size_t howmany = GetParam();
  const std::size_t n = 20;
  const std::size_t nh = n / 2 + 1;
  // Transposed: signal b's element j lives at [j*howmany + b].
  const auto x = random_real(howmany * n, 200 + howmany);

  BatchPlanR2c1d fwd(n, Direction::Forward);
  BatchPlanR2c1d bwd(n, Direction::Backward);
  Workspace ws;
  std::vector<cplx> half(howmany * nh);
  fwd.execute_many(howmany, x.data(), howmany, 1, half.data(), howmany, 1,
                   ws);
  std::vector<double> back(howmany * n);
  bwd.execute_many(howmany, half.data(), howmany, 1, back.data(), howmany, 1,
                   ws);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], static_cast<double>(n) * x[i], 1e-10 * n)
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, R2cBatchSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 16, 33, 64));

// --- ISA tiers ---------------------------------------------------------
//
// The packed path's half-length transform runs on the plan's tier, so every
// tier must reproduce the baseline tier's output bit for bit.  The scalar
// kernel runs a different algorithm (a full-length complex transform of
// the zero-extended signal), so it agrees to round-off, not bitwise; the
// complex tile's bitwise agreement with the scalar engine is pinned in
// test_batch1d.cpp.

struct R2cTierCase {
  std::size_t n;
  Direction dir;
  bool transposed;
};

class R2cTierBitIdentity : public ::testing::TestWithParam<R2cTierCase> {};

TEST_P(R2cTierBitIdentity, EveryTierMatchesBaselineBitForBit) {
  const auto [n, dir, transposed] = GetParam();
  constexpr std::size_t kBatch = 67;
  const std::size_t nh = n / 2 + 1;
  const bool fwd = dir == Direction::Forward;
  // Forward maps n reals to nh coefficients; backward the reverse.
  const std::size_t in_len = fwd ? n : nh;
  const std::size_t out_len = fwd ? nh : n;
  const std::size_t istride = transposed ? kBatch : 1;
  const std::size_t idist = transposed ? 1 : in_len;
  const std::size_t ostride = transposed ? kBatch : 1;
  const std::size_t odist = transposed ? 1 : out_len;
  const auto real_in = random_real(n * kBatch, 900 + n);
  std::vector<cplx> cplx_in(nh * kBatch);
  for (std::size_t i = 0; i < cplx_in.size(); ++i) {
    cplx_in[i] = cplx{real_in[i % real_in.size()],
                      real_in[(i * 7 + 3) % real_in.size()]};
  }
  Workspace ws;
  // Raw bits of one plan's output, whichever direction it runs.
  auto run = [&](const BatchPlanR2c1d& plan) {
    std::vector<std::uint64_t> bits;
    if (fwd) {
      std::vector<cplx> out(nh * kBatch);
      plan.execute_many(kBatch, real_in.data(), istride, idist, out.data(),
                        ostride, odist, ws);
      for (const cplx& c : out) {
        bits.push_back(std::bit_cast<std::uint64_t>(c.real()));
        bits.push_back(std::bit_cast<std::uint64_t>(c.imag()));
      }
    } else {
      std::vector<double> out(n * kBatch);
      plan.execute_many(kBatch, cplx_in.data(), istride, idist, out.data(),
                        ostride, odist, ws);
      for (const double x : out) bits.push_back(std::bit_cast<std::uint64_t>(x));
    }
    return bits;
  };

  const BatchPlanR2c1d baseline(n, dir, BatchKernel::Simd, TileIsa::Baseline);
  ASSERT_TRUE(baseline.packed_active());
  const auto want = run(baseline);
  for (const TileIsa isa : {TileIsa::Baseline, TileIsa::X86_64_V4}) {
    if (!fx::fft::tile_isa_available(isa)) continue;
    const auto got = run(BatchPlanR2c1d(n, dir, BatchKernel::Simd, isa));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << fx::fft::to_string(isa) << ": word " << i;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

std::vector<R2cTierCase> r2c_tier_cases() {
  std::vector<R2cTierCase> cases;
  // 14 and 42 run radix-7 half-length transforms (7 and 21).
  for (std::size_t n : {10UL, 14UL, 20UL, 30UL, 42UL, 60UL, 64UL, 120UL, 720UL}) {
    for (const Direction dir : {Direction::Forward, Direction::Backward}) {
      cases.push_back({n, dir, false});
      cases.push_back({n, dir, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, R2cTierBitIdentity, ::testing::ValuesIn(r2c_tier_cases()),
    [](const ::testing::TestParamInfo<R2cTierCase>& info) {
      return "n" + std::to_string(info.param.n) +
             (info.param.dir == Direction::Forward ? "_r2c" : "_c2r") +
             (info.param.transposed ? "_transposed" : "_contiguous");
    });

TEST(R2c, RejectsWrongDirection) {
  BatchPlanR2c1d fwd(8, Direction::Forward);
  BatchPlanR2c1d bwd(8, Direction::Backward);
  Workspace ws;
  std::vector<double> x(8, 0.0);
  std::vector<cplx> h(5);
  EXPECT_THROW(bwd.execute(std::span<const double>(x),
                           std::span<cplx>(h), ws),
               fx::core::Error);
  EXPECT_THROW(fwd.execute(std::span<const cplx>(h),
                           std::span<double>(x), ws),
               fx::core::Error);
}

TEST(R2c, ExpandHalfSpectrumIsHermitian) {
  const std::size_t n = 12;
  const auto x = random_real(n, 42);
  BatchPlanR2c1d plan(n, Direction::Forward);
  Workspace ws;
  std::vector<cplx> half(plan.half_spectrum());
  plan.execute(x, half, ws);
  std::vector<cplx> full(n);
  fx::fft::expand_half_spectrum(half, full);

  std::vector<cplx> in(n);
  for (std::size_t j = 0; j < n; ++j) in[j] = cplx{x[j], 0.0};
  std::vector<cplx> want(n);
  fx::fft::dft_reference(in, want, Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_NEAR(std::abs(full[k] - want[k]), 0.0, 1e-10) << "k=" << k;
  }
}

TEST(R2c2d3d, HalfPlaneMatchesFullComplexTransform) {
  const std::size_t nx = 12, ny = 10;
  const std::size_t nhx = nx / 2 + 1;
  const auto x = random_real(nx * ny, 77);

  fx::fft::Fft2dR2c r2c(nx, ny, Direction::Forward);
  Workspace ws;
  std::vector<cplx> half(nhx * ny);
  r2c.execute(x.data(), half.data(), ws);

  std::vector<cplx> grid(nx * ny);
  for (std::size_t i = 0; i < x.size(); ++i) grid[i] = cplx{x[i], 0.0};
  fx::fft::Fft2d full(nx, ny, Direction::Forward);
  full.execute(grid.data(), grid.data(), ws);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t kx = 0; kx < nhx; ++kx) {
      ASSERT_NEAR(std::abs(half[kx + nhx * iy] - grid[kx + nx * iy]), 0.0,
                  1e-9)
          << "kx=" << kx << " iy=" << iy;
    }
  }

  fx::fft::Fft2dR2c c2r(nx, ny, Direction::Backward);
  std::vector<double> back(nx * ny);
  c2r.execute(half.data(), back.data(), ws);
  const double vol = static_cast<double>(nx * ny);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], vol * x[i], 1e-8) << "i=" << i;
  }
}

TEST(R2c2d3d, HalfGridMatchesFullComplexTransform) {
  const std::size_t nx = 8, ny = 6, nz = 5;
  const std::size_t nhx = nx / 2 + 1;
  const auto x = random_real(nx * ny * nz, 78);

  fx::fft::Fft3dR2c r2c(nx, ny, nz, Direction::Forward);
  EXPECT_EQ(r2c.half_volume(), nhx * ny * nz);
  Workspace ws;
  std::vector<cplx> half(r2c.half_volume());
  r2c.execute(x.data(), half.data(), ws);

  std::vector<cplx> grid(nx * ny * nz);
  for (std::size_t i = 0; i < x.size(); ++i) grid[i] = cplx{x[i], 0.0};
  fx::fft::Fft3d full(nx, ny, nz, Direction::Forward);
  full.execute(grid.data(), grid.data(), ws);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t kx = 0; kx < nhx; ++kx) {
        ASSERT_NEAR(std::abs(half[kx + nhx * (iy + ny * iz)] -
                             grid[kx + nx * (iy + ny * iz)]),
                    0.0, 1e-9)
            << "kx=" << kx << " iy=" << iy << " iz=" << iz;
      }
    }
  }

  fx::fft::Fft3dR2c c2r(nx, ny, nz, Direction::Backward);
  std::vector<double> back(nx * ny * nz);
  c2r.execute(half.data(), back.data(), ws);
  const double vol = static_cast<double>(r2c.volume());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], vol * x[i], 1e-7) << "i=" << i;
  }
}

TEST(R2cPlanCache, SharesInstancesAndKeysOnKernel) {
  fx::fft::PlanCache cache;
  const auto p1 = cache.r2c1d(64, Direction::Forward, BatchKernel::Simd);
  const auto p2 = cache.r2c1d(64, Direction::Forward, BatchKernel::Simd);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_NE(p1.get(),
            cache.r2c1d(64, Direction::Backward, BatchKernel::Simd).get());
  EXPECT_NE(p1.get(),
            cache.r2c1d(64, Direction::Forward, BatchKernel::Scalar).get());
  EXPECT_EQ(cache.size(), 3U);
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  // The cleared-out plan stays usable.
  Workspace ws;
  std::vector<double> x(64, 1.0);
  std::vector<cplx> h(33);
  p1->execute(x, h, ws);
  EXPECT_NEAR(h[0].real(), 64.0, 1e-10);
}

}  // namespace
