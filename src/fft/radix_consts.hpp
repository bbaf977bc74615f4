// Constants of the closed-form radix-5 and radix-7 butterflies.
//
// Shared by the scalar engine (Fft1d::small_dft, plan1d.cpp) and the
// batched tile (bsmall_dft, tile_body.hpp).  Both engines run these
// butterflies operation for operation in the same order, so taking the
// constants from one place is what keeps every tier bit-identical to the
// scalar oracle.  kCosR_k = cos(2*pi*k/R), kSinR_k = sin(2*pi*k/R), rounded
// from 30-digit values.  Plain constexpr doubles only: this header is
// compiled into the per-ISA tile TUs, which must not share inline code.
#pragma once

namespace fx::fft::detail {

constexpr double kCos5_1 = 0.309016994374947424102293417183;
constexpr double kCos5_2 = -0.809016994374947424102293417183;
constexpr double kSin5_1 = 0.951056516295153572116439333379;
constexpr double kSin5_2 = 0.587785252292473129168705954639;

constexpr double kCos7_1 = 0.623489801858733530525004884004;
constexpr double kCos7_2 = -0.222520933956314404288902564497;
constexpr double kCos7_3 = -0.900968867902419126236102319507;
constexpr double kSin7_1 = 0.781831482468029808708444526674;
constexpr double kSin7_2 = 0.974927912181823607018131682994;
constexpr double kSin7_3 = 0.433883739117558120475768332849;

}  // namespace fx::fft::detail
