// Tile body of the batched FFT engine (see tile_kernel.hpp).
//
// Included only by the per-tier tile TUs, each of which wraps run_tile in
// its own exported entry point.  Everything here sits in an anonymous
// namespace: every includer gets a private copy compiled with its own
// flags, and the linker never merges an AVX-512 copy into the baseline
// path.
//
// The arithmetic is the scalar engine's (Fft1d::recurse / small_dft),
// operation for operation and in the same order, with each +-* widened to
// the 8 lanes of a pack (an omp-simd loop or lane-wise vector values).
// The closed-form radix-5 and radix-7 butterflies take their constants
// from radix_consts.hpp, as the scalar ones do.  With contraction off that
// makes every tier's output bit-identical to the scalar oracle's, so a
// change to a butterfly here must be made in plan1d.cpp too.
#pragma once

#include <cstddef>

#include "fft/radix_consts.hpp"
#include "fft/tile_kernel.hpp"

namespace fx::fft::detail {
namespace {

constexpr std::size_t kW = kTileLanes;
constexpr std::size_t kPack = kTilePack;

/// A pack half split into the target's native vectors (GNU vector
/// extension).  Arithmetic on them is lane-wise IEEE arithmetic, the same
/// operations as the 8-lane loops, but small arrays of them live in
/// registers.  Packs are 64-byte aligned (tile_kernel.hpp), so every
/// sub-vector load and store is aligned.
#if defined(__AVX512F__)
constexpr std::size_t kVec = 8;
#elif defined(__AVX__)
constexpr std::size_t kVec = 4;
#else
constexpr std::size_t kVec = 2;
#endif
constexpr std::size_t kSub = kW / kVec;
typedef double Vec __attribute__((vector_size(kVec * sizeof(double))));

Vec load(const double* p) { return *reinterpret_cast<const Vec*>(p); }
void store(double* p, Vec x) { *reinterpret_cast<Vec*>(p) = x; }

/// Pack-granular mirror of Fft1d::small_dft: out[t*os] = sum_q z[q*zs] *
/// w_r^{t*q}, with every +-* 8 lanes wide.  z and out never alias
/// (z is either the gathered tile or a local combine buffer).
void bsmall_dft(const TileView& v, std::size_t r, const double* z,
                std::size_t zs, double* out, std::size_t os) {
  const double s = v.sign;
  const std::size_t zp = zs * kPack;
  const std::size_t op = os * kPack;
  switch (r) {
    case 2: {
      const double* are = z;
      const double* aim = z + kW;
      const double* bre = z + zp;
      const double* bim = z + zp + kW;
      double* o0 = out;
      double* o1 = out + op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double xr = are[l];
        const double xi = aim[l];
        const double yr = bre[l];
        const double yi = bim[l];
        o0[l] = xr + yr;
        o0[kW + l] = xi + yi;
        o1[l] = xr - yr;
        o1[kW + l] = xi - yi;
      }
      return;
    }
    case 3: {
      // w = -1/2 + i*s*sqrt(3)/2, as in the scalar kernel.
      constexpr double kHalfSqrt3 = 0.86602540378443864676;
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double tr = z1[l] + z2[l];
        const double ti = z1[kW + l] + z2[kW + l];
        const double ur = z0[l] - 0.5 * tr;
        const double ui = z0[kW + l] - 0.5 * ti;
        const double dr = z1[l] - z2[l];
        const double di = z1[kW + l] - z2[kW + l];
        const double vr = -s * kHalfSqrt3 * di;
        const double vi = s * kHalfSqrt3 * dr;
        o0[l] = z0[l] + tr;
        o0[kW + l] = z0[kW + l] + ti;
        o1[l] = ur + vr;
        o1[kW + l] = ui + vi;
        o2[l] = ur - vr;
        o2[kW + l] = ui - vi;
      }
      return;
    }
    case 4: {
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      const double* z3 = z + 3 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
      double* o3 = out + 3 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double t0r = z0[l] + z2[l];
        const double t0i = z0[kW + l] + z2[kW + l];
        const double t1r = z0[l] - z2[l];
        const double t1i = z0[kW + l] - z2[kW + l];
        const double t2r = z1[l] + z3[l];
        const double t2i = z1[kW + l] + z3[kW + l];
        const double t3r = z1[l] - z3[l];
        const double t3i = z1[kW + l] - z3[kW + l];
        const double it3r = -s * t3i;
        const double it3i = s * t3r;
        o0[l] = t0r + t2r;
        o0[kW + l] = t0i + t2i;
        o1[l] = t1r + it3r;
        o1[kW + l] = t1i + it3i;
        o2[l] = t0r - t2r;
        o2[kW + l] = t0i - t2i;
        o3[l] = t1r - it3r;
        o3[kW + l] = t1i - it3i;
      }
      return;
    }
    case 5: {
      // The scalar kernel's closed form (plan1d.cpp), lane-wise.
      const double ss1 = s * kSin5_1;
      const double ss2 = s * kSin5_2;
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      const double* z3 = z + 3 * zp;
      const double* z4 = z + 4 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
      double* o3 = out + 3 * op;
      double* o4 = out + 4 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double z0r = z0[l];
        const double z0i = z0[kW + l];
        const double t1r = z1[l] + z4[l];
        const double t1i = z1[kW + l] + z4[kW + l];
        const double t2r = z2[l] + z3[l];
        const double t2i = z2[kW + l] + z3[kW + l];
        const double d1r = z1[l] - z4[l];
        const double d1i = z1[kW + l] - z4[kW + l];
        const double d2r = z2[l] - z3[l];
        const double d2i = z2[kW + l] - z3[kW + l];
        const double a1r = z0r + kCos5_1 * t1r + kCos5_2 * t2r;
        const double a1i = z0i + kCos5_1 * t1i + kCos5_2 * t2i;
        const double a2r = z0r + kCos5_2 * t1r + kCos5_1 * t2r;
        const double a2i = z0i + kCos5_2 * t1i + kCos5_1 * t2i;
        const double b1r = ss1 * d1r + ss2 * d2r;
        const double b1i = ss1 * d1i + ss2 * d2i;
        const double b2r = ss2 * d1r - ss1 * d2r;
        const double b2i = ss2 * d1i - ss1 * d2i;
        o0[l] = z0r + t1r + t2r;
        o0[kW + l] = z0i + t1i + t2i;
        o1[l] = a1r - b1i;
        o1[kW + l] = a1i + b1r;
        o2[l] = a2r - b2i;
        o2[kW + l] = a2i + b2r;
        o3[l] = a2r + b2i;
        o3[kW + l] = a2i - b2r;
        o4[l] = a1r + b1i;
        o4[kW + l] = a1i - b1r;
      }
      return;
    }
    case 7: {
      // The scalar kernel's closed form (plan1d.cpp), lane-wise.
      const double ss1 = s * kSin7_1;
      const double ss2 = s * kSin7_2;
      const double ss3 = s * kSin7_3;
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      const double* z3 = z + 3 * zp;
      const double* z4 = z + 4 * zp;
      const double* z5 = z + 5 * zp;
      const double* z6 = z + 6 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
      double* o3 = out + 3 * op;
      double* o4 = out + 4 * op;
      double* o5 = out + 5 * op;
      double* o6 = out + 6 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double z0r = z0[l];
        const double z0i = z0[kW + l];
        const double t1r = z1[l] + z6[l];
        const double t1i = z1[kW + l] + z6[kW + l];
        const double t2r = z2[l] + z5[l];
        const double t2i = z2[kW + l] + z5[kW + l];
        const double t3r = z3[l] + z4[l];
        const double t3i = z3[kW + l] + z4[kW + l];
        const double d1r = z1[l] - z6[l];
        const double d1i = z1[kW + l] - z6[kW + l];
        const double d2r = z2[l] - z5[l];
        const double d2i = z2[kW + l] - z5[kW + l];
        const double d3r = z3[l] - z4[l];
        const double d3i = z3[kW + l] - z4[kW + l];
        const double a1r = z0r + kCos7_1 * t1r + kCos7_2 * t2r + kCos7_3 * t3r;
        const double a1i = z0i + kCos7_1 * t1i + kCos7_2 * t2i + kCos7_3 * t3i;
        const double a2r = z0r + kCos7_2 * t1r + kCos7_3 * t2r + kCos7_1 * t3r;
        const double a2i = z0i + kCos7_2 * t1i + kCos7_3 * t2i + kCos7_1 * t3i;
        const double a3r = z0r + kCos7_3 * t1r + kCos7_1 * t2r + kCos7_2 * t3r;
        const double a3i = z0i + kCos7_3 * t1i + kCos7_1 * t2i + kCos7_2 * t3i;
        const double b1r = ss1 * d1r + ss2 * d2r + ss3 * d3r;
        const double b1i = ss1 * d1i + ss2 * d2i + ss3 * d3i;
        const double b2r = ss2 * d1r - ss3 * d2r - ss1 * d3r;
        const double b2i = ss2 * d1i - ss3 * d2i - ss1 * d3i;
        const double b3r = ss3 * d1r - ss1 * d2r + ss2 * d3r;
        const double b3i = ss3 * d1i - ss1 * d2i + ss2 * d3i;
        o0[l] = z0r + t1r + t2r + t3r;
        o0[kW + l] = z0i + t1i + t2i + t3i;
        o1[l] = a1r - b1i;
        o1[kW + l] = a1i + b1r;
        o2[l] = a2r - b2i;
        o2[kW + l] = a2i + b2r;
        o3[l] = a3r - b3i;
        o3[kW + l] = a3i + b3r;
        o4[l] = a3r + b3i;
        o4[kW + l] = a3i - b3r;
        o5[l] = a2r + b2i;
        o5[kW + l] = a2i - b2r;
        o6[l] = a1r + b1i;
        o6[kW + l] = a1i - b1r;
      }
      return;
    }
    default: {
      // Generic O(r^2) kernel (r in {11, 13}) via the shared full
      // twiddle table: w_r^{tq} = twiddle[((t*q) % r) * (n/r)].  The
      // accumulators are whole-pack vector values, so they stay in
      // registers across the q loop instead of round-tripping through
      // memory on every term.
      const std::size_t step = v.n / r;
      for (std::size_t t = 0; t < r; ++t) {
        Vec acc_re[kSub];
        Vec acc_im[kSub];
        for (std::size_t u = 0; u < kSub; ++u) {
          acc_re[u] = load(z + u * kVec);
          acc_im[u] = load(z + kW + u * kVec);
        }
        for (std::size_t q = 1; q < r; ++q) {
          const double* w = v.twiddle + 2 * (((t * q) % r) * step);
          const double wr = w[0];
          const double wi = w[1];
          const double* zq = z + q * zp;
          for (std::size_t u = 0; u < kSub; ++u) {
            const Vec zr = load(zq + u * kVec);
            const Vec zi = load(zq + kW + u * kVec);
            acc_re[u] += zr * wr - zi * wi;
            acc_im[u] += zr * wi + zi * wr;
          }
        }
        double* dst = out + t * op;
        for (std::size_t u = 0; u < kSub; ++u) {
          store(dst + u * kVec, acc_re[u]);
          store(dst + kW + u * kVec, acc_im[u]);
        }
      }
      return;
    }
  }
}

/// One recursion depth of a tile: factor r, sub-length m (the depth's
/// length is r * m), and the stride `step` = v.n / (r * m) into the full
/// twiddle table.
struct Level {
  std::size_t r;
  std::size_t m;
  std::size_t step;
};

/// Deepest recursion a tile can need: every factor is >= 2 and a tile's
/// length stays under the L2 budget (batch1d.cpp), far below 2^16.
constexpr std::size_t kMaxLevels = 16;

/// Pack-granular mirror of Fft1d::recurse: decimation in time over the
/// remaining levels, ping-ponging between `out` and `scratch`.
void brecurse(const TileView& v, const Level* lv, const double* in,
              std::size_t istride, double* out, double* scratch) {
  const std::size_t r = lv->r;
  const std::size_t m = lv->m;

  if (m == 1) {
    // Leaf: one small DFT straight from the (pack-strided) input.
    bsmall_dft(v, r, in, istride, out, 1);
    return;
  }

  // Decimation in time, exactly as the scalar engine: r interleaved
  // sub-transforms into `scratch`, ping-ponging with `out`.
  for (std::size_t q = 0; q < r; ++q) {
    brecurse(v, lv + 1, in + q * istride * kPack, istride * r,
             scratch + q * m * kPack, out + q * m * kPack);
  }

  // Combine.  Every lane of a pack shares the twiddle w_n^{j*q} -- the
  // lanes are the same element index of different transforms -- so the
  // complex multiply broadcasts one (wr, wi) pair over 8 lanes.
  const std::size_t step = lv->step;
  alignas(64) double z[13 * kPack];
  for (std::size_t j = 0; j < m; ++j) {
    const double* s0 = scratch + j * kPack;
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) z[d] = s0[d];
    for (std::size_t q = 1; q < r; ++q) {
      const double* w = v.twiddle + 2 * (j * q * step);
      const double wr = w[0];
      const double wi = w[1];
      const double* sre = scratch + (q * m + j) * kPack;
      const double* sim = sre + kW;
      double* zre = z + q * kPack;
      double* zim = zre + kW;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        zre[l] = sre[l] * wr - sim[l] * wi;
        zim[l] = sre[l] * wi + sim[l] * wr;
      }
    }
    bsmall_dft(v, r, z, 1, out + j * kPack, m);
  }
}

/// Gather -> transform -> scatter of one tile (contract in tile_kernel.hpp).
void run_tile(const TileView& v, const TileArgs& a) {
  const std::size_t n = v.n;
  double* gathered = a.scratch;
  double* result = a.scratch + n * kPack;
  double* scratch = a.scratch + 2 * n * kPack;

  // Gather: element j of lane l comes from in[l*idist + j*istride].  Lanes
  // beyond the batch tail are zero-filled so they stay finite (their
  // results are discarded by the scatter).
  for (std::size_t j = 0; j < n; ++j) {
    double* re = gathered + j * kPack;
    double* im = re + kW;
    const double* src = a.in + 2 * j * a.istride;
    for (std::size_t l = 0; l < a.lanes; ++l) {
      re[l] = src[2 * l * a.idist];
      im[l] = src[2 * l * a.idist + 1];
    }
    for (std::size_t l = a.lanes; l < kW; ++l) {
      re[l] = 0.0;
      im[l] = 0.0;
    }
  }

  // Per-depth lengths and twiddle strides, computed once per tile rather
  // than divided out again in every recursive call.
  // Tiles have n >= 2, so every level has a factor.
  Level levels[kMaxLevels];
  for (std::size_t i = 0, len = n, step = 1;; ++i) {
    const std::size_t r = v.factors[i];
    levels[i] = {r, len / r, step};
    if (len == r) break;
    len /= r;
    step *= r;
  }
  brecurse(v, levels, gathered, 1, result, scratch);

  // Scatter: lane l's element k goes to out[l*odist + k*ostride].  Reading
  // happened entirely in the gather, so fully in-place batches are safe.
  for (std::size_t k = 0; k < n; ++k) {
    const double* re = result + k * kPack;
    const double* im = re + kW;
    double* dst = a.out + 2 * k * a.ostride;
    for (std::size_t l = 0; l < a.lanes; ++l) {
      dst[2 * l * a.odist] = re[l];
      dst[2 * l * a.odist + 1] = im[l];
    }
  }
}

}  // namespace
}  // namespace fx::fft::detail
