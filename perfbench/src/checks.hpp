// Output checks of the benchmark.  Every bound is an absolute 2-norm bound
// on (got - want), scaled by max|V(r)| * ||input||_2 -- an upper bound on
// the norm of any band's exact output -- with the relative factor derived
// from round-off (README.md, "Correctness checks").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fft/types.hpp"
#include "fftx/descriptor.hpp"

namespace pb {

using fx::fft::cplx;

/// max over the grid of |V(r)|, the potential the pipeline applies.
double potential_max(const fx::pw::GridDims& dims);

/// Relative round-off budgets (multiply by max|V| * ||input||_2).
/// fp64 FFT path: two sides (pipeline and oracle), two transforms each,
/// each at most 8 eps log2(N).
double rel_tol_fft(const fx::pw::GridDims& dims);
/// Pipeline vs the naive DFT: the FFT side above plus two naive transforms
/// whose per-dimension sums of n terms add at most 2 n eps each.
double rel_tol_naive(const fx::pw::GridDims& dims);
/// fp32 wire: each of the four exchanges a value crosses (pack, scatter,
/// scatter back, unpack) rounds it to nearest fp32, relative error
/// <= 2^-24 in 2-norm; the transforms are unitary up to scale and V is
/// bounded by max|V|, so the four add at most 4 * 2^-24 (first order),
/// plus the fp64 budget.
double rel_tol_fp32_wire(const fx::pw::GridDims& dims);

double norm2(std::span<const cplx> v);

/// One expected band: the reference output and the absolute 2-norm bound.
struct Expected {
  std::vector<cplx> want;
  double bound = 0.0;
};

/// Builds the expectation for `input` -> `want` at relative budget `rel`.
Expected expect(std::vector<cplx> want, std::span<const cplx> input,
                double vmax, double rel);

/// ||got - want||_2 / bound; +inf when the sizes differ or a value is not
/// finite.
double error_ratio(std::span<const cplx> got, const Expected& e);

/// The check every band goes through: error_ratio(got, e) <= 1.
inline bool band_ok(std::span<const cplx> got, const Expected& e) {
  return error_ratio(got, e) <= 1.0;
}

/// Naive-DFT expected output of one band given its global stick-ordered
/// input: embed, naive separable inverse DFT, V(r), naive forward DFT, 1/N.
/// Shares no code with the FFT engine (fft::dft3d_reference).
std::vector<cplx> naive_band_output(const fx::fftx::Descriptor& desc,
                                    std::span<const cplx> input);

/// Hermitian property of the band operator over every pair (a, b) of the
/// given bands: <psi_a, H psi_b> == conj(<psi_b, H psi_a>) within
/// rel * max|V| * ||psi_a|| * ||psi_b||.  Returns the failing pair count.
int hermitian_violations(const std::vector<std::vector<cplx>>& inputs,
                         const std::vector<std::vector<cplx>>& outputs,
                         double vmax, double rel);

/// Checker self-test: a copy of `got` with one coefficient (index from
/// `seed`) moved by 100x the bound must fail band_ok.  True when the
/// checker caught it.
bool checker_catches_perturbation(std::span<const cplx> got,
                                  const Expected& e, std::uint64_t seed);

/// The same for the Hermitian check: outputs[0] with its largest-input
/// coefficient moved so that Im<psi_0, H psi_0> shifts by 100x the bound
/// must produce a violation.
bool hermitian_catches_perturbation(
    const std::vector<std::vector<cplx>>& inputs,
    std::vector<std::vector<cplx>> outputs, double vmax, double rel);

}  // namespace pb
