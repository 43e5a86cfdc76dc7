// The p-stable variate transform, shared by every kernel backend and by
// StableSketch's query-side helpers. Living here keeps the single
// definition below the sketch layer so backends never reach upward.
//
// For p in (0, 2) \ {1} the reference is a portable Chambers-Mallows-Stuck
// body built from IEEE +, -, *, / and bit manipulation only (sin(pi x)
// polynomials, fdlibm-style log and exp), so the AVX2 backend's four-lane
// twin reproduces it bit for bit. It is more accurate than the libm body
// it replaced. That one formed theta = pi * (u1 - 0.5) rounded, so its
// cos(theta) lost accuracy as u1 approached 0 or 1 (~4e-9 relative at
// u1 = 1 - 1.8e-8, a 0.77 relative variate error at u1 = 1 - 2^-53 and
// p = 0.25). Here no rounded theta is formed, and the variate stays within
// ~1e-14 relative of a long double reference (tests/sketch_test.cc).
// State written with the libm body stays query-equivalent: each variate
// moved by at most that body's own error.
#pragma once

#include <cstdint>

namespace lps::kernels {

/// Odd Taylor coefficients of sin(pi x) = x * (c[0] + c[1] x^2 + ...), as
/// the double recurrence c[k] = c[k-1] * (-pi^2 / (2k (2k+1))) rounds them.
/// Truncation after x^23 is < 1e-19 on |x| <= 0.5.
inline constexpr double kSinPiCoeffs[12] = {
    0x1.921fb54442d18p+1,    // x^1
    -0x1.4abbce625be52p+2,   // x^3
    0x1.466bc6775aae1p+1,    // x^5
    -0x1.32d2cce62bd85p-1,   // x^7
    0x1.50783487ee781p-4,    // x^9
    -0x1.e3074fde8871ep-8,   // x^11
    0x1.e8f434d018d61p-12,   // x^13
    -0x1.6fadb9f155742p-16,  // x^15
    0x1.aaec32af93357p-21,   // x^17
    -0x1.8a404211f9544p-26,  // x^19
    0x1.2877020d52cedp-31,   // x^21
    -0x1.7215f879e1ac5p-37,  // x^23
};

/// cos(pi / 2) as libm rounds it from the double pi. Floors the cos(theta)
/// of u1 = 1 (theta = pi/2 exactly) so the pole stays finite, at the
/// magnitude the libm transforms produce there.
inline constexpr double kCosHalfPi = 0x1.1a62633145c07p-54;

/// Constants of the p != 1 transform's fdlibm-style log and exp.
namespace cms {
inline constexpr double kLn2Hi = 0x1.62e42feep-1;  // 32 bits: k * kLn2Hi exact
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
// log(1 + f) = f - (f^2/2 - s (f^2/2 + R(s^2))), s = f / (2 + f).
inline constexpr double kLg1 = 0x1.5555555555593p-1;
inline constexpr double kLg2 = 0x1.999999997fa04p-2;
inline constexpr double kLg3 = 0x1.2492494229359p-2;
inline constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLg5 = 0x1.7466496cb03dep-3;
inline constexpr double kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLg7 = 0x1.2f112df3e5244p-3;
// exp(r) = 1 + 2r / (2 - c), c = r - r^2 P(r^2), on |r| <= ln2 / 2.
inline constexpr double kP1 = 0x1.555555555553ep-3;
inline constexpr double kP2 = -0x1.6c16c16bebd93p-9;
inline constexpr double kP3 = 0x1.1566aaf25de2cp-14;
inline constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
inline constexpr double kP5 = 0x1.6376972bea4d0p-25;
/// Adding 1.5 * 2^52 rounds a |v| < 2^51 to the nearest integer, which
/// then sits in the low mantissa bits: a float -> int step with no
/// conversion instruction, and a k -> double step that is exact.
inline constexpr double kRoundMagic = 0x1.8p52;
inline constexpr uint64_t kRoundMagicBits = 0x4338000000000000ULL;
/// The exp argument is clamped here before k is formed. exp(710) already
/// overflows and exp(-746) underflows to 0, so the clamp changes no
/// result, keeps k in [-1076, 1024], and the two-factor 2^k scaling
/// yields the +inf or 0 itself.
inline constexpr double kExpArgMin = -746.0;
inline constexpr double kExpArgMax = 710.0;
/// Floor of W = -ln(u2): half the smallest nonzero value (u2 = 1 - 2^-53),
/// so u2 = 1 gives a finite variate instead of 0 * inf or 1 / 0.
inline constexpr double kMinExponential = 0x1.0p-54;
}  // namespace cms

/// Maps two uniforms in (0, 1] to a standard symmetric p-stable variate,
/// 0 < p <= 2: Cauchy by libm tan at p = 1, Gaussian by libm Box-Muller at
/// p = 2, and otherwise Chambers-Mallows-Stuck with t = u1 - 1/2
/// (theta = pi t), q = 1 - p and W = -ln(u2):
///   X = sin(p theta) * exp((q ln(cos(q theta) / W) - ln cos(theta)) / p)
/// where sin(p theta), cos(theta) and cos(q theta) are sin(pi x)
/// polynomials of p t, min(u1, 1 - u1) (1/2 - |t|, exactly) and
/// 1/2 - |q t|, and the division by p is a multiply by 1 / p.
///
/// Defined out of line exactly once, in the baseline-ISA scalar backend
/// (kernels_scalar.cc). The kernel sources build with -ffp-contract=off,
/// so no target flag can fuse a multiply-add and split the scalar body
/// from the AVX2 twin.
double StableFromUniformsImpl(double p, double u1, double u2);

}  // namespace lps::kernels
