#include "fft/plan1d.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <numbers>

#include "core/error.hpp"
#include "fft/bluestein.hpp"
#include "fft/radix_consts.hpp"

namespace fx::fft {

namespace {

/// Factorizes n into the supported radices (4 preferred over 2x2 for fewer
/// passes).  Returns an empty vector if a prime factor > 13 remains,
/// signalling the Bluestein fallback.
std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> factors;
  while (n % 4 == 0) {
    factors.push_back(4);
    n /= 4;
  }
  for (std::size_t p : {2UL, 3UL, 5UL, 7UL, 11UL, 13UL}) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  if (n != 1) return {};
  return factors;
}

}  // namespace

namespace detail {

void check_batch_aliasing(std::size_t n, std::size_t howmany, const cplx* in,
                          std::size_t istride, std::size_t idist,
                          const cplx* out, std::size_t ostride,
                          std::size_t odist) {
  if (n == 0 || howmany == 0) return;
  if (in == out && istride == ostride && idist == odist) return;
  // Compare as integers: ordering pointers into distinct arrays is
  // unspecified, and these spans are allowed to be unrelated.
  const auto ibeg = reinterpret_cast<std::uintptr_t>(in);
  const auto obeg = reinterpret_cast<std::uintptr_t>(out);
  const auto iend = reinterpret_cast<std::uintptr_t>(
      in + (howmany - 1) * idist + (n - 1) * istride + 1);
  const auto oend = reinterpret_cast<std::uintptr_t>(
      out + (howmany - 1) * odist + (n - 1) * ostride + 1);
  FX_ASSERT(oend <= ibeg || iend <= obeg,
            "execute_many in/out batches overlap incompatibly: only fully "
            "in-place (same pointer and strides) or disjoint spans are "
            "supported");
}

}  // namespace detail

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

Fft1d::Fft1d(std::size_t n, Direction dir) : n_(n), dir_(dir) {
  FX_CHECK(n >= 1, "FFT length must be positive");
  factors_ = factorize(n);
  if (factors_.empty() && n > 1) {
    bluestein_ = std::make_unique<Bluestein>(n, dir);
    return;
  }
  twiddle_.resize(n);
  const double w = sign_of(dir) * 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = w * static_cast<double>(k);
    twiddle_[k] = cplx{std::cos(ang), std::sin(ang)};
  }
}

Fft1d::~Fft1d() = default;
Fft1d::Fft1d(Fft1d&&) noexcept = default;
Fft1d& Fft1d::operator=(Fft1d&&) noexcept = default;

void Fft1d::small_dft(std::size_t r, const cplx* z, cplx* out,
                      std::size_t ostride) const {
  // out[t*ostride] = sum_q z[q] * w_r^{t*q}, w_r = exp(sign*2*pi*i/r).
  const double s = sign_of(dir_);
  switch (r) {
    case 1:
      out[0] = z[0];
      return;
    case 2:
      out[0] = z[0] + z[1];
      out[ostride] = z[0] - z[1];
      return;
    case 3: {
      // w = -1/2 + i*s*sqrt(3)/2.
      constexpr double kHalfSqrt3 = 0.86602540378443864676;
      const cplx t = z[1] + z[2];
      const cplx u = z[0] - 0.5 * t;
      const cplx dz = z[1] - z[2];
      const cplx v{-s * kHalfSqrt3 * dz.imag(), s * kHalfSqrt3 * dz.real()};
      out[0] = z[0] + t;
      out[ostride] = u + v;
      out[2 * ostride] = u - v;
      return;
    }
    case 4: {
      const cplx t0 = z[0] + z[2];
      const cplx t1 = z[0] - z[2];
      const cplx t2 = z[1] + z[3];
      const cplx t3 = z[1] - z[3];
      // i*s*t3:
      const cplx it3{-s * t3.imag(), s * t3.real()};
      out[0] = t0 + t2;
      out[ostride] = t1 + it3;
      out[2 * ostride] = t0 - t2;
      out[3 * ostride] = t1 - it3;
      return;
    }
    case 5: {
      // Closed form on the pairs t_k = z_k + z_{5-k}, d_k = z_k - z_{5-k}:
      // out_k = a_k + i*b_k and out_{5-k} = a_k - i*b_k, with s folded into
      // the sines (exact, s is +-1).  bsmall_dft (tile_body.hpp) runs these
      // operations in this order; keep the two in lockstep.
      const double ss1 = s * detail::kSin5_1;
      const double ss2 = s * detail::kSin5_2;
      const double z0r = z[0].real();
      const double z0i = z[0].imag();
      const double t1r = z[1].real() + z[4].real();
      const double t1i = z[1].imag() + z[4].imag();
      const double t2r = z[2].real() + z[3].real();
      const double t2i = z[2].imag() + z[3].imag();
      const double d1r = z[1].real() - z[4].real();
      const double d1i = z[1].imag() - z[4].imag();
      const double d2r = z[2].real() - z[3].real();
      const double d2i = z[2].imag() - z[3].imag();
      const double a1r = z0r + detail::kCos5_1 * t1r + detail::kCos5_2 * t2r;
      const double a1i = z0i + detail::kCos5_1 * t1i + detail::kCos5_2 * t2i;
      const double a2r = z0r + detail::kCos5_2 * t1r + detail::kCos5_1 * t2r;
      const double a2i = z0i + detail::kCos5_2 * t1i + detail::kCos5_1 * t2i;
      const double b1r = ss1 * d1r + ss2 * d2r;
      const double b1i = ss1 * d1i + ss2 * d2i;
      const double b2r = ss2 * d1r - ss1 * d2r;
      const double b2i = ss2 * d1i - ss1 * d2i;
      out[0] = cplx{z0r + t1r + t2r, z0i + t1i + t2i};
      out[ostride] = cplx{a1r - b1i, a1i + b1r};
      out[2 * ostride] = cplx{a2r - b2i, a2i + b2r};
      out[3 * ostride] = cplx{a2r + b2i, a2i - b2r};
      out[4 * ostride] = cplx{a1r + b1i, a1i - b1r};
      return;
    }
    case 7: {
      // Closed form as for r = 5, over three pairs; the cosine and sine
      // index of term j in output k is j*k mod 7.  Lockstep with the tile.
      const double ss1 = s * detail::kSin7_1;
      const double ss2 = s * detail::kSin7_2;
      const double ss3 = s * detail::kSin7_3;
      const double z0r = z[0].real();
      const double z0i = z[0].imag();
      const double t1r = z[1].real() + z[6].real();
      const double t1i = z[1].imag() + z[6].imag();
      const double t2r = z[2].real() + z[5].real();
      const double t2i = z[2].imag() + z[5].imag();
      const double t3r = z[3].real() + z[4].real();
      const double t3i = z[3].imag() + z[4].imag();
      const double d1r = z[1].real() - z[6].real();
      const double d1i = z[1].imag() - z[6].imag();
      const double d2r = z[2].real() - z[5].real();
      const double d2i = z[2].imag() - z[5].imag();
      const double d3r = z[3].real() - z[4].real();
      const double d3i = z[3].imag() - z[4].imag();
      const double a1r = z0r + detail::kCos7_1 * t1r + detail::kCos7_2 * t2r +
                         detail::kCos7_3 * t3r;
      const double a1i = z0i + detail::kCos7_1 * t1i + detail::kCos7_2 * t2i +
                         detail::kCos7_3 * t3i;
      const double a2r = z0r + detail::kCos7_2 * t1r + detail::kCos7_3 * t2r +
                         detail::kCos7_1 * t3r;
      const double a2i = z0i + detail::kCos7_2 * t1i + detail::kCos7_3 * t2i +
                         detail::kCos7_1 * t3i;
      const double a3r = z0r + detail::kCos7_3 * t1r + detail::kCos7_1 * t2r +
                         detail::kCos7_2 * t3r;
      const double a3i = z0i + detail::kCos7_3 * t1i + detail::kCos7_1 * t2i +
                         detail::kCos7_2 * t3i;
      const double b1r = ss1 * d1r + ss2 * d2r + ss3 * d3r;
      const double b1i = ss1 * d1i + ss2 * d2i + ss3 * d3i;
      const double b2r = ss2 * d1r - ss3 * d2r - ss1 * d3r;
      const double b2i = ss2 * d1i - ss3 * d2i - ss1 * d3i;
      const double b3r = ss3 * d1r - ss1 * d2r + ss2 * d3r;
      const double b3i = ss3 * d1i - ss1 * d2i + ss2 * d3i;
      out[0] = cplx{z0r + t1r + t2r + t3r, z0i + t1i + t2i + t3i};
      out[ostride] = cplx{a1r - b1i, a1i + b1r};
      out[2 * ostride] = cplx{a2r - b2i, a2i + b2r};
      out[3 * ostride] = cplx{a3r - b3i, a3i + b3r};
      out[4 * ostride] = cplx{a3r + b3i, a3i - b3r};
      out[5 * ostride] = cplx{a2r + b2i, a2i - b2r};
      out[6 * ostride] = cplx{a1r + b1i, a1i - b1r};
      return;
    }
    default: {
      // Generic O(r^2) kernel (r in {11, 13}) via the full twiddle table:
      // w_r^{tq} = twiddle_[((t*q) % r) * (n_/r)].
      const std::size_t step = n_ / r;
      for (std::size_t t = 0; t < r; ++t) {
        cplx acc = z[0];
        for (std::size_t q = 1; q < r; ++q) {
          acc += z[q] * twiddle_[((t * q) % r) * step];
        }
        out[t * ostride] = acc;
      }
      return;
    }
  }
}

void Fft1d::recurse(std::size_t n, std::size_t factor_index, const cplx* in,
                    std::size_t istride, cplx* out, cplx* scratch) const {
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const std::size_t r = factors_[factor_index];
  const std::size_t m = n / r;

  if (m == 1) {
    // Leaf: a single small DFT straight from the (strided) input.
    cplx z[13];
    for (std::size_t q = 0; q < r; ++q) z[q] = in[q * istride];
    small_dft(r, z, out, 1);
    return;
  }

  // Decimation in time: r interleaved sub-transforms of length m, computed
  // into `scratch`; the sub-calls use the matching region of `out` as their
  // own scratch (regions are disjoint per q, so this ping-pong is safe).
  for (std::size_t q = 0; q < r; ++q) {
    recurse(m, factor_index + 1, in + q * istride, istride * r,
            scratch + q * m, out + q * m);
  }

  // Combine: out[j + t*m] = sum_q w_n^{j*q} * w_r^{t*q} * scratch[q*m + j].
  // w_n^{e} = twiddle_[e * (n_/n)]; e = j*q < n so no modular reduction.
  const std::size_t step = n_ / n;
  cplx z[13];
  for (std::size_t j = 0; j < m; ++j) {
    z[0] = scratch[j];
    for (std::size_t q = 1; q < r; ++q) {
      z[q] = scratch[q * m + j] * twiddle_[j * q * step];
    }
    small_dft(r, z, out + j, m);
  }
}

void Fft1d::execute(const cplx* in, cplx* out, Workspace& ws) const {
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }
  if (in == out) {
    Workspace::Buffer copy(ws, n_);
    std::memcpy(copy.data(), in, n_ * sizeof(cplx));
    execute(copy.data(), out, ws);
    return;
  }
  if (bluestein_) {
    bluestein_->execute(in, out, ws);
    return;
  }
  Workspace::Buffer scratch(ws, n_);
  recurse(n_, 0, in, 1, out, scratch.data());
}

void Fft1d::execute(const cplx* in, cplx* out) const {
  execute(in, out, thread_workspace());
}

void Fft1d::execute_contiguous_from_strided(const cplx* in, std::size_t istride,
                                            cplx* out, Workspace& ws) const {
  // `out` is contiguous and distinct from `in`.
  if (bluestein_) {
    Workspace::Buffer gathered(ws, n_);
    for (std::size_t j = 0; j < n_; ++j) gathered.data()[j] = in[j * istride];
    bluestein_->execute(gathered.data(), out, ws);
    return;
  }
  Workspace::Buffer scratch(ws, n_);
  recurse(n_, 0, in, istride, out, scratch.data());
}

void Fft1d::execute_strided(const cplx* in, std::size_t istride, cplx* out,
                            std::size_t ostride, Workspace& ws) const {
  FX_CHECK(istride >= 1 && ostride >= 1);
  if (istride == 1 && ostride == 1) {
    execute(in, out, ws);
    return;
  }
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }
  // Compute into a contiguous lease, then scatter.  This also makes
  // in-place strided transforms (in == out) safe.
  Workspace::Buffer result(ws, n_);
  execute_contiguous_from_strided(in, istride, result.data(), ws);
  for (std::size_t k = 0; k < n_; ++k) out[k * ostride] = result.data()[k];
}

void Fft1d::execute_many(std::size_t howmany, const cplx* in,
                         std::size_t istride, std::size_t idist, cplx* out,
                         std::size_t ostride, std::size_t odist,
                         Workspace& ws) const {
  detail::check_batch_aliasing(n_, howmany, in, istride, idist, out, ostride,
                               odist);
  for (std::size_t b = 0; b < howmany; ++b) {
    execute_strided(in + b * idist, istride, out + b * odist, ostride, ws);
  }
}

}  // namespace fx::fft
