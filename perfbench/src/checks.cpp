#include "checks.hpp"

#include <cmath>
#include <complex>
#include <limits>

#include "core/rng.hpp"
#include "fft/dft_ref.hpp"
#include "pw/wavefunction.hpp"

namespace pb {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon() / 2;  // 2^-53

double log2_points(const fx::pw::GridDims& d) {
  return std::ceil(std::log2(static_cast<double>(d.volume())));
}

}  // namespace

double potential_max(const fx::pw::GridDims& dims) {
  double vmax = 0.0;
  for (std::size_t iz = 0; iz < dims.nz; ++iz) {
    for (std::size_t iy = 0; iy < dims.ny; ++iy) {
      for (std::size_t ix = 0; ix < dims.nx; ++ix) {
        vmax = std::max(vmax, std::abs(fx::pw::potential_value(ix, iy, iz, dims)));
      }
    }
  }
  return vmax;
}

double rel_tol_fft(const fx::pw::GridDims& dims) {
  return 2.0 * 2.0 * 8.0 * kEps * log2_points(dims);
}

double rel_tol_naive(const fx::pw::GridDims& dims) {
  const double n = static_cast<double>(dims.nx + dims.ny + dims.nz);
  return rel_tol_fft(dims) / 2.0 + 2.0 * 2.0 * n * kEps;
}

double rel_tol_fp32_wire(const fx::pw::GridDims& dims) {
  return 4.0 * std::ldexp(1.0, -24) + rel_tol_fft(dims);
}

double norm2(std::span<const cplx> v) {
  long double s = 0.0L;
  for (const cplx& c : v) s += static_cast<long double>(std::norm(c));
  return static_cast<double>(std::sqrt(s));
}

Expected expect(std::vector<cplx> want, std::span<const cplx> input,
                double vmax, double rel) {
  Expected e;
  e.bound = rel * vmax * norm2(input);
  e.want = std::move(want);
  return e;
}

double error_ratio(std::span<const cplx> got, const Expected& e) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (got.size() != e.want.size()) return kInf;
  long double s = 0.0L;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i].real()) || !std::isfinite(got[i].imag())) {
      return kInf;
    }
    s += static_cast<long double>(std::norm(got[i] - e.want[i]));
  }
  return std::sqrt(static_cast<double>(s)) / e.bound;
}

std::vector<cplx> naive_band_output(const fx::fftx::Descriptor& desc,
                                    std::span<const cplx> input) {
  const auto& dims = desc.dims();
  const auto ordered = desc.world_sticks().stick_ordered_g();
  std::vector<cplx> grid(dims.volume(), cplx{0.0, 0.0});
  for (std::size_t k = 0; k < ordered.size(); ++k) {
    grid[dims.index_of(ordered[k].mx, ordered[k].my, ordered[k].mz)] = input[k];
  }
  std::vector<cplx> real_space(grid.size());
  fx::fft::dft3d_reference(grid, real_space, dims.nx, dims.ny, dims.nz,
                           fx::fft::Direction::Backward);
  std::size_t pos = 0;
  for (std::size_t iz = 0; iz < dims.nz; ++iz) {
    for (std::size_t iy = 0; iy < dims.ny; ++iy) {
      for (std::size_t ix = 0; ix < dims.nx; ++ix) {
        real_space[pos++] *= fx::pw::potential_value(ix, iy, iz, dims);
      }
    }
  }
  fx::fft::dft3d_reference(real_space, grid, dims.nx, dims.ny, dims.nz,
                           fx::fft::Direction::Forward);
  const double inv = 1.0 / static_cast<double>(dims.volume());
  std::vector<cplx> out(ordered.size());
  for (std::size_t k = 0; k < ordered.size(); ++k) {
    out[k] = grid[dims.index_of(ordered[k].mx, ordered[k].my, ordered[k].mz)] * inv;
  }
  return out;
}

int hermitian_violations(const std::vector<std::vector<cplx>>& inputs,
                         const std::vector<std::vector<cplx>>& outputs,
                         double vmax, double rel) {
  const std::size_t nb = inputs.size();
  // <psi_a, H psi_b>, accumulated in extended precision so the summation
  // adds nothing measurable to the budget.
  auto inner = [&](std::size_t a, std::size_t b) {
    std::complex<long double> s{0.0L, 0.0L};
    const auto& x = inputs[a];
    const auto& y = outputs[b];
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += std::complex<long double>(std::conj(x[i])) *
           std::complex<long double>(y[i]);
    }
    return std::complex<double>(s);
  };
  std::vector<double> norms(nb);
  for (std::size_t a = 0; a < nb; ++a) norms[a] = norm2(inputs[a]);
  int bad = 0;
  for (std::size_t a = 0; a < nb; ++a) {
    for (std::size_t b = a; b < nb; ++b) {
      const cplx ab = inner(a, b);
      const cplx ba = inner(b, a);
      const double bound = rel * vmax * norms[a] * norms[b];
      if (!(std::abs(ab - std::conj(ba)) <= bound)) ++bad;
    }
  }
  return bad;
}

bool checker_catches_perturbation(std::span<const cplx> got,
                                  const Expected& e, std::uint64_t seed) {
  if (got.empty()) return false;
  std::vector<cplx> copy(got.begin(), got.end());
  fx::core::Rng rng(seed ^ 0x5e1f7e57ULL);
  const std::size_t k = rng.next_u64() % copy.size();
  copy[k] += cplx{100.0 * e.bound, 0.0};
  return !band_ok(copy, e);
}

bool hermitian_catches_perturbation(
    const std::vector<std::vector<cplx>>& inputs,
    std::vector<std::vector<cplx>> outputs, double vmax, double rel) {
  if (inputs.empty() || inputs[0].empty()) return false;
  const auto& x = inputs[0];
  std::size_t k = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (std::abs(x[i]) > std::abs(x[k])) k = i;
  }
  // conj(x[k]) * delta == 100 i * bound  =>  Im<psi_0, H psi_0> += 100 bound.
  const double n = norm2(x);
  const double bound = rel * vmax * n * n;
  outputs[0][k] += cplx{0.0, 100.0 * bound} / std::conj(x[k]);
  return hermitian_violations(inputs, outputs, vmax, rel) > 0;
}

}  // namespace pb
