#include "fft/r2c1d.hpp"

#include <cmath>
#include <cstring>
#include <numbers>

#include "core/error.hpp"

namespace fx::fft {

namespace {
constexpr std::size_t kTile = BatchPlanR2c1d::kSimdWidth;
}  // namespace

BatchPlanR2c1d::BatchPlanR2c1d(std::size_t n, Direction dir,
                               BatchKernel kernel, TileIsa isa)
    : n_(n),
      nh_(n / 2 + 1),
      dir_(dir),
      kernel_(kernel),
      packed_(n >= 2 && n % 2 == 0 && kernel != BatchKernel::Scalar) {
  FX_CHECK(n >= 1);
  if (packed_) {
    half_ = std::make_unique<BatchPlan1d>(n / 2, dir, kernel, isa);
    // Split/merge twiddles w^k = exp(sign*2*pi*i*k/n) for k = 0..n/2; the
    // forward split uses the forward sign, the backward pre-pass needs the
    // conjugate, which is exactly the backward sign.
    const double step = sign_of(dir) * 2.0 * std::numbers::pi /
                        static_cast<double>(n);
    w_.resize(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      w_[k] = std::polar(1.0, step * static_cast<double>(k));
    }
  } else {
    full_ = std::make_unique<Fft1d>(n, dir);
  }
}

void BatchPlanR2c1d::execute_many(std::size_t howmany, const double* in,
                                  std::size_t istride, std::size_t idist,
                                  cplx* out, std::size_t ostride,
                                  std::size_t odist, Workspace& ws) const {
  FX_CHECK(dir_ == Direction::Forward,
           "r2c execute_many requires a Forward plan");
  if (howmany == 0) return;
  if (packed_) {
    forward_packed(howmany, in, istride, idist, out, ostride, odist, ws);
  } else {
    forward_fallback(howmany, in, istride, idist, out, ostride, odist, ws);
  }
}

void BatchPlanR2c1d::execute_many(std::size_t howmany, const cplx* in,
                                  std::size_t istride, std::size_t idist,
                                  double* out, std::size_t ostride,
                                  std::size_t odist, Workspace& ws) const {
  FX_CHECK(dir_ == Direction::Backward,
           "c2r execute_many requires a Backward plan");
  if (howmany == 0) return;
  if (packed_) {
    backward_packed(howmany, in, istride, idist, out, ostride, odist, ws);
  } else {
    backward_fallback(howmany, in, istride, idist, out, ostride, odist, ws);
  }
}

void BatchPlanR2c1d::execute(std::span<const double> in, std::span<cplx> out,
                             Workspace& ws) const {
  FX_CHECK(in.size() >= n_ && out.size() >= nh_);
  execute_many(1, in.data(), 1, 0, out.data(), 1, 0, ws);
}

void BatchPlanR2c1d::execute(std::span<const cplx> in, std::span<double> out,
                             Workspace& ws) const {
  FX_CHECK(in.size() >= nh_ && out.size() >= n_);
  execute_many(1, in.data(), 1, 0, out.data(), 1, 0, ws);
}

void BatchPlanR2c1d::forward_packed(std::size_t howmany, const double* in,
                                    std::size_t istride, std::size_t idist,
                                    cplx* out, std::size_t ostride,
                                    std::size_t odist, Workspace& ws) const {
  const std::size_t m = n_ / 2;
  Workspace::Buffer zb(ws, kTile * m);
  cplx* zbuf = zb.data();
  for (std::size_t t = 0; t < howmany; t += kTile) {
    const std::size_t lanes = std::min(kTile, howmany - t);
    for (std::size_t b = 0; b < lanes; ++b) {
      const double* src = in + (t + b) * idist;
      cplx* z = zbuf + b * m;
      if (istride == 1) {
        // Contiguous reals ARE the packed complex sequence.
        std::memcpy(static_cast<void*>(z), src, n_ * sizeof(double));
      } else {
        for (std::size_t j = 0; j < m; ++j) {
          z[j] = cplx{src[2 * j * istride], src[(2 * j + 1) * istride]};
        }
      }
    }
    half_->execute_many(lanes, zbuf, 1, m, zbuf, 1, m, ws);
    for (std::size_t b = 0; b < lanes; ++b) {
      const cplx* z = zbuf + b * m;
      cplx* o = out + (t + b) * odist;
      // X[k] = (Z[k] + conj(Z[m-k]))/2 - (i/2)*w^k*(Z[k] - conj(Z[m-k])),
      // indices mod m; the generic formula is exact at k = 0 and k = m too.
      for (std::size_t k = 0; k <= m; ++k) {
        const cplx zk = z[k == m ? 0 : k];
        const cplx zmk = z[k == 0 ? 0 : m - k];
        const cplx sum = zk + std::conj(zmk);
        const cplx diff = zk - std::conj(zmk);
        o[k * ostride] =
            0.5 * sum + w_[k] * cplx{0.5 * diff.imag(), -0.5 * diff.real()};
      }
    }
  }
}

void BatchPlanR2c1d::backward_packed(std::size_t howmany, const cplx* in,
                                     std::size_t istride, std::size_t idist,
                                     double* out, std::size_t ostride,
                                     std::size_t odist, Workspace& ws) const {
  const std::size_t m = n_ / 2;
  Workspace::Buffer zb(ws, kTile * m);
  cplx* zbuf = zb.data();
  for (std::size_t t = 0; t < howmany; t += kTile) {
    const std::size_t lanes = std::min(kTile, howmany - t);
    for (std::size_t b = 0; b < lanes; ++b) {
      const cplx* s = in + (t + b) * idist;
      cplx* z = zbuf + b * m;
      // Z'[k] = (X[k] + conj(X[m-k])) + i*w^k*(X[k] - conj(X[m-k])), with
      // the backward-sign twiddle.  Z' = 2Z, so the (unnormalized)
      // backward transform below already carries the c2r contract's n*x.
      for (std::size_t k = 0; k < m; ++k) {
        const cplx xk = s[k * istride];
        const cplx xmk = s[(m - k) * istride];
        const cplx sum = xk + std::conj(xmk);
        const cplx diff = xk - std::conj(xmk);
        z[k] = sum + w_[k] * cplx{-diff.imag(), diff.real()};
      }
    }
    half_->execute_many(lanes, zbuf, 1, m, zbuf, 1, m, ws);
    for (std::size_t b = 0; b < lanes; ++b) {
      const cplx* z = zbuf + b * m;
      double* dst = out + (t + b) * odist;
      if (ostride == 1) {
        std::memcpy(dst, static_cast<const void*>(z), n_ * sizeof(double));
      } else {
        for (std::size_t j = 0; j < m; ++j) {
          dst[2 * j * ostride] = z[j].real();
          dst[(2 * j + 1) * ostride] = z[j].imag();
        }
      }
    }
  }
}

void BatchPlanR2c1d::forward_fallback(std::size_t howmany, const double* in,
                                      std::size_t istride, std::size_t idist,
                                      cplx* out, std::size_t ostride,
                                      std::size_t odist, Workspace& ws) const {
  Workspace::Buffer xb(ws, n_);
  Workspace::Buffer yb(ws, n_);
  for (std::size_t b = 0; b < howmany; ++b) {
    const double* src = in + b * idist;
    for (std::size_t j = 0; j < n_; ++j) {
      xb.data()[j] = cplx{src[j * istride], 0.0};
    }
    full_->execute(xb.data(), yb.data(), ws);
    cplx* o = out + b * odist;
    for (std::size_t k = 0; k < nh_; ++k) o[k * ostride] = yb.data()[k];
  }
}

void BatchPlanR2c1d::backward_fallback(std::size_t howmany, const cplx* in,
                                       std::size_t istride, std::size_t idist,
                                       double* out, std::size_t ostride,
                                       std::size_t odist,
                                       Workspace& ws) const {
  Workspace::Buffer xb(ws, n_);
  Workspace::Buffer yb(ws, n_);
  for (std::size_t b = 0; b < howmany; ++b) {
    const cplx* s = in + b * idist;
    for (std::size_t k = 0; k < n_; ++k) {
      xb.data()[k] = k < nh_ ? s[k * istride]
                             : std::conj(s[(n_ - k) * istride]);
    }
    full_->execute(xb.data(), yb.data(), ws);
    double* dst = out + b * odist;
    for (std::size_t j = 0; j < n_; ++j) {
      dst[j * ostride] = yb.data()[j].real();
    }
  }
}

void expand_half_spectrum(std::span<const cplx> half, std::span<cplx> full) {
  const std::size_t n = full.size();
  FX_CHECK(n >= 1 && half.size() == n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) full[k] = half[k];
  for (std::size_t k = n / 2 + 1; k < n; ++k) {
    full[k] = std::conj(half[n - k]);
  }
}

}  // namespace fx::fft
