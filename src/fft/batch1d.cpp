#include "fft/batch1d.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/format.hpp"

namespace fx::fft {

namespace {

constexpr std::size_t kW = BatchPlan1d::kSimdWidth;
constexpr std::size_t kPack = detail::kTilePack;

/// Tile scratch budget.  A tile transforms kW lanes through 3 ping-pong
/// buffers of n packs (gather, output, recursion scratch) = 384*n bytes;
/// keeping that under one KNL L2 slice (512 KiB per core of the shared
/// 1 MiB tile cache) is what makes the gather/scatter transposes pay for
/// themselves.  Longer transforms fall back to the scalar path.
constexpr std::size_t kL2TileBytes = 512 * 1024;

}  // namespace

BatchKernel default_batch_kernel() {
  static const BatchKernel kernel = [] {
    bool scalar = false;
    core::env_flag("FFTX_FFT_SCALAR", scalar, "fft");
    return scalar ? BatchKernel::Scalar : BatchKernel::Simd;
  }();
  return kernel;
}

const char* to_string(TileIsa isa) {
  return isa == TileIsa::X86_64_V4 ? "x86-64-v4" : "baseline";
}

TileIsa cpu_best_tile_isa() {
#ifdef FX_FFT_TILE_V4
  __builtin_cpu_init();  // may run before the CPU model's own constructor
  if (__builtin_cpu_supports("x86-64-v4")) return TileIsa::X86_64_V4;
#endif
  return TileIsa::Baseline;
}

bool tile_isa_available(TileIsa isa) {
  if (isa == TileIsa::Baseline) return true;
#ifdef FX_FFT_TILE_V4
  return cpu_best_tile_isa() == TileIsa::X86_64_V4;
#else
  return false;
#endif
}

TileIsa default_tile_isa() {
  static const TileIsa isa = tile_isa_available(TileIsa::X86_64_V4)
                                 ? TileIsa::X86_64_V4
                                 : TileIsa::Baseline;
  return isa;
}

namespace {

detail::TileFn tile_for(TileIsa isa) {
  FX_CHECK(tile_isa_available(isa),
           core::cat("tile ISA ", to_string(isa),
                     " is not available in this build on this CPU"));
#ifdef FX_FFT_TILE_V4
  if (isa == TileIsa::X86_64_V4) return &detail::tile_x86_64_v4;
#endif
  return &detail::tile_baseline;
}

}  // namespace

BatchPlan1d::BatchPlan1d(std::size_t n, Direction dir, BatchKernel kernel,
                         TileIsa isa)
    : base_(n, dir), kernel_(kernel), isa_(isa), tile_(tile_for(isa)) {
  const std::size_t tile_bytes = 3 * n * kPack * sizeof(double);
  simd_ok_ = kernel_ == BatchKernel::Simd && n >= 2 &&
             !base_.uses_bluestein() && tile_bytes <= kL2TileBytes;
}

void BatchPlan1d::execute_many(std::size_t howmany, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist, Workspace& ws) const {
  if (howmany == 0) return;
  detail::check_batch_aliasing(base_.size(), howmany, in, istride, idist, out,
                               ostride, odist);
  if (!simd_ok_) {
    base_.execute_many(howmany, in, istride, idist, out, ostride, odist, ws);
    return;
  }
  std::size_t b = 0;
  while (b < howmany) {
    const std::size_t lanes = std::min(kW, howmany - b);
    if (lanes == 1) {
      // A lone tail transform: the pack transposes would cost more than
      // they vectorize, so run it through the scalar engine.
      base_.execute_strided(in + b * idist, istride, out + b * odist, ostride,
                            ws);
    } else {
      execute_tile(lanes, in + b * idist, istride, idist, out + b * odist,
                   ostride, odist, ws);
    }
    b += lanes;
  }
}

void BatchPlan1d::execute_many(std::size_t howmany, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist) const {
  execute_many(howmany, in, istride, idist, out, ostride, odist,
               thread_workspace());
}

void BatchPlan1d::execute_tile(std::size_t lanes, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist, Workspace& ws) const {
  const std::size_t n = base_.size();
  // One lease carved into the 3 tile buffers; cvec storage is 64-byte
  // aligned and each buffer spans n*kPack doubles (a multiple of 64
  // bytes), so every pack is aligned.  [complex.numbers.general]
  // guarantees the double-array reinterpretation of cplx storage.
  Workspace::Buffer lease(ws, 3 * n * kW);
  const detail::TileView view{n, base_.factors_.data(),
                              reinterpret_cast<const double*>(
                                  base_.twiddle_.data()),
                              sign_of(base_.direction())};
  tile_(view, {lanes, reinterpret_cast<const double*>(in), istride, idist,
               reinterpret_cast<double*>(out), ostride, odist,
               reinterpret_cast<double*>(lease.data())});
}

}  // namespace fx::fft
