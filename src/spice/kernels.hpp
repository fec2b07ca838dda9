// Shared alpha-power device-evaluation kernels.
//
// The scalar model entry point (eval_alpha_power in mosfet.cpp) and the
// batched SoA transient engine (plan.cpp / batch.cpp) must produce
// bit-identical currents and derivatives — the determinism contract keys
// the result cache on them. Both therefore compile exactly the inline
// functions below; there is no second copy of the model math anywhere.
//
// The "folded" parameter forms precompute two products that the model
// only ever uses together, in the same association order the original
// expressions evaluate them:
//   ksw = k_sat * w              (i0   = (k_sat * w) * pow(...))
//   nvt = n_sub * v_thermal_300k (subthreshold swing)
// so folding changes no floating-point result.
//
// The forward evaluation is split in two: forward_drive (the overdrive
// and the pow(veff, .) terms, a function of vgs alone) and
// eval_forward_drive (the cheap vds-dependent rest). The scalar path
// composes the two directly; the batched engine serves the first half
// from a per-device DriveMemo whenever the forward vgs repeats bit for
// bit, which it does in about half of all evaluations. The build uses
// strict IEEE semantics (no -ffast-math, no FMA contraction), so both
// paths produce the same bits.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "spice/mosfet.hpp"
#include "util/units.hpp"

namespace pim::kernels {

/// Softplus-smoothed gate overdrive and its derivative w.r.t. vgs.
/// veff -> vgt for strong inversion, -> n*vT*exp(vgt/(n*vT)) in
/// subthreshold, giving an emergent exponential subthreshold slope of
/// ln(10)*n*vT/alpha volts per decade.
struct Overdrive {
  double veff;
  double dveff;  // d veff / d vgs
};

inline Overdrive smooth_overdrive(double vgt, double nvt) {
  const double z = vgt / nvt;
  if (z > 40.0) return {vgt, 1.0};
  if (z < -40.0) {
    const double e = std::exp(z);
    return {nvt * e, e};
  }
  const double e = std::exp(z);
  return {nvt * std::log1p(e), e / (1.0 + e)};
}

/// The vgs-only half of a forward (vds >= 0) evaluation: the overdrive
/// and the pow(veff, .) terms every operating region reads. It depends
/// on one device's parameters and its forward vgs alone, which is what
/// lets the batched engine memoize it per device (DriveMemo).
struct ForwardDrive {
  double veff;
  double dveff;
  double pow_a;     ///< pow(veff, alpha)
  double pow_am1;   ///< pow(veff, alpha - 1)
  double pow_half;  ///< pow(veff, alpha / 2)
};

inline ForwardDrive forward_drive(double vth, double alpha, double nvt, double vgs) {
  const auto [veff, dveff] = smooth_overdrive(vgs - vth, nvt);
  return {veff, dveff, std::pow(veff, alpha), std::pow(veff, alpha - 1.0),
          std::pow(veff, 0.5 * alpha)};
}

/// The vds-dependent rest of a forward evaluation, from a ForwardDrive.
/// Only the triode branch needs one more transcendental, computed here
/// when (and only when) that branch runs.
inline MosEval eval_forward_drive(const ForwardDrive& f, double ksw, double alpha,
                                  double k_vdsat, double lambda, double vds) {
  const double i0 = ksw * f.pow_a;
  const double di0 = ksw * alpha * f.pow_am1 * f.dveff;
  const double vdsat = k_vdsat * f.pow_half;
  const double clm = 1.0 + lambda * vds;

  MosEval out;
  if (vdsat < 1e-12 || vds >= vdsat) {
    // Saturation.
    out.ids = i0 * clm;
    out.g_ds = i0 * lambda;
    out.g_m = di0 * clm;
  } else {
    // Triode; the quadratic (2 - x)x matches the saturation current and
    // its vds-derivative at x = 1.
    const double x = vds / vdsat;
    const double fx = (2.0 - x) * x;
    const double dvdsat =
        k_vdsat * 0.5 * alpha * std::pow(f.veff, 0.5 * alpha - 1.0) * f.dveff;
    const double dx_dvgs = -vds / (vdsat * vdsat) * dvdsat;
    out.ids = i0 * clm * fx;
    out.g_ds = i0 * (lambda * fx + clm * (2.0 - 2.0 * x) / vdsat);
    out.g_m = di0 * clm * fx + i0 * clm * (2.0 - 2.0 * x) * dx_dvgs;
  }
  return out;
}

/// Full evaluation with the source/drain-swap symmetry for negative vds
/// (I = -I', g_ds = g_m' + g_ds'). `drive(vgs_fwd)` supplies the
/// ForwardDrive of the forward-conduction vgs.
template <class DriveFn>
inline MosEval eval_alpha_power_with(DriveFn&& drive, double ksw, double alpha,
                                     double k_vdsat, double lambda, double vgs,
                                     double vds) {
  if (vds >= 0.0) return eval_forward_drive(drive(vgs), ksw, alpha, k_vdsat, lambda, vds);
  const MosEval r = eval_forward_drive(drive(vgs - vds), ksw, alpha, k_vdsat, lambda, -vds);
  MosEval out;
  out.ids = -r.ids;
  out.g_m = -r.g_m;
  out.g_ds = r.g_m + r.g_ds;
  return out;
}

/// eval_alpha_power with folded parameters, no memo.
inline MosEval eval_alpha_power_folded(double ksw, double vth, double alpha,
                                       double k_vdsat, double lambda, double nvt,
                                       double vgs, double vds) {
  return eval_alpha_power_with(
      [&](double v) { return forward_drive(vth, alpha, nvt, v); }, ksw, alpha,
      k_vdsat, lambda, vgs, vds);
}

/// One device's last forward drive, keyed by the exact bits of the
/// forward vgs it was computed from. forward_drive is a pure function of
/// that vgs (the device parameters are fixed per memo), so a bit-equal
/// key returns exactly what recomputing would; NaN keys included.
struct DriveMemo {
  uint64_t vgs_bits = 0;
  bool valid = false;
  ForwardDrive drive{};

  const ForwardDrive& get(double vth, double alpha, double nvt, double vgs) {
    uint64_t bits;
    std::memcpy(&bits, &vgs, sizeof bits);
    if (!valid || bits != vgs_bits) {
      drive = forward_drive(vth, alpha, nvt, vgs);
      vgs_bits = bits;
      valid = true;
    }
    return drive;
  }
};

/// Per-terminal linearization of one device's drain-branch current with
/// the transient engine's sign convention: `sign` is +1 for NMOS, -1 for
/// PMOS, and sign*(vg - vs) reproduces the polarity-negated terminal
/// voltages exactly (IEEE negation is exact). The Jacobian entries are
/// polarity-independent (the chain rule collapses — see mosfet.cpp). The
/// vgs-only half comes from `memo`.
inline void eval_branch_memo(DriveMemo& memo, double sign, double ksw, double vth,
                             double alpha, double k_vdsat, double lambda, double nvt,
                             double vg, double vd, double vs, double& i_d,
                             double& di_dvg, double& di_dvd, double& di_dvs) {
  const MosEval e = eval_alpha_power_with(
      [&](double v) -> const ForwardDrive& { return memo.get(vth, alpha, nvt, v); },
      ksw, alpha, k_vdsat, lambda, sign * (vg - vs), sign * (vd - vs));
  i_d = sign * e.ids;
  di_dvg = e.g_m;
  di_dvd = e.g_ds;
  di_dvs = -(e.g_m + e.g_ds);
}

}  // namespace pim::kernels
