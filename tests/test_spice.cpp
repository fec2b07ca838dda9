// Tests for pim::spice — device model consistency, transient accuracy on
// circuits with closed-form solutions, charge/energy accounting, banded
// vs. dense solver agreement, and inverter behavior the paper's models
// rely on (load-dependent delay/slew, size-dependent drive).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "deadline/deadline.hpp"
#include "spice/batch.hpp"
#include "spice/circuit.hpp"
#include "spice/measure.hpp"
#include "spice/mosfet.hpp"
#include "spice/transient.hpp"
#include "sta/signoff.hpp"
#include "tech/technology.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

using namespace pim::unit;

MosfetParams test_nmos() {
  MosfetParams p;
  p.vth = 0.30;
  p.k_sat = 1000.0;
  p.alpha = 1.3;
  p.k_vdsat = 0.6;
  p.lambda = 0.08;
  p.n_sub = 1.45;
  p.c_gate = 1.0e-9;   // 1 fF/um
  p.c_drain = 0.6e-9;
  return p;
}

MosfetParams test_pmos() {
  MosfetParams p = test_nmos();
  p.k_sat = 500.0;  // weaker holes
  return p;
}

InverterDevices test_devices() { return {test_nmos(), test_pmos()}; }

constexpr double kVdd = 1.0;

// ---------------------------------------------------------------- mosfet

TEST(Mosfet, SaturationCurrentScalesWithWidth) {
  const MosfetParams p = test_nmos();
  const double i1 = eval_alpha_power(p, 1.0 * um, kVdd, kVdd).ids;
  const double i2 = eval_alpha_power(p, 2.0 * um, kVdd, kVdd).ids;
  EXPECT_NEAR(i2 / i1, 2.0, 1e-9);
  EXPECT_GT(i1, 0.0);
}

TEST(Mosfet, CurrentMonotonicInVgs) {
  const MosfetParams p = test_nmos();
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 1.2; vgs += 0.05) {
    const double i = eval_alpha_power(p, 1.0 * um, vgs, 0.8).ids;
    EXPECT_GT(i, prev);
    prev = i;
  }
}

TEST(Mosfet, ZeroVdsGivesZeroCurrent) {
  const MosfetParams p = test_nmos();
  EXPECT_NEAR(eval_alpha_power(p, 1.0 * um, kVdd, 0.0).ids, 0.0, 1e-15);
}

TEST(Mosfet, ReverseConductionAntisymmetric) {
  const MosfetParams p = test_nmos();
  // With vgs measured from the *source-side* terminal, forward(vg, vd=x)
  // and reverse conduction obey I(vgs, -x) = -I(vgs + x evaluated at
  // swapped terminals); spot-check the sign and continuity at vds = 0.
  const double i_neg = eval_alpha_power(p, 1.0 * um, 0.8, -0.3).ids;
  EXPECT_LT(i_neg, 0.0);
  const double i_eps_pos = eval_alpha_power(p, 1.0 * um, 0.8, 1e-6).ids;
  const double i_eps_neg = eval_alpha_power(p, 1.0 * um, 0.8, -1e-6).ids;
  EXPECT_NEAR(i_eps_pos, -i_eps_neg, 1e-8);
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  const MosfetParams p = test_nmos();
  // One decade of current per ~ln(10)*n*vT/alpha volts of vgs below vth.
  const double i1 = eval_alpha_power(p, 1.0 * um, 0.10, kVdd).ids;
  const double i2 = eval_alpha_power(p, 1.0 * um, 0.20, kVdd).ids;
  const double swing = 0.1 / std::log10(i2 / i1);  // V per decade
  const double expected = std::log(10.0) * p.n_sub * constant::v_thermal_300k / p.alpha;
  EXPECT_NEAR(swing, expected, 0.2 * expected);
}

TEST(Mosfet, OffCurrentLinearInWidth) {
  const MosfetParams p = test_nmos();
  const double i1 = off_current(p, 1.0 * um, kVdd);
  const double i3 = off_current(p, 3.0 * um, kVdd);
  EXPECT_GT(i1, 0.0);
  EXPECT_NEAR(i3 / i1, 3.0, 1e-9);
}

// Property: analytic derivatives match central finite differences over a
// bias grid spanning subthreshold, triode, saturation, and reverse biases.
class MosfetDerivativeTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MosfetDerivativeTest, AnalyticMatchesFiniteDifference) {
  const auto [vgs, vds] = GetParam();
  const MosfetParams p = test_nmos();
  const double w = 1.0 * um;
  const double h = 1e-6;
  const MosEval e = eval_alpha_power(p, w, vgs, vds);
  const double gm_fd = (eval_alpha_power(p, w, vgs + h, vds).ids -
                        eval_alpha_power(p, w, vgs - h, vds).ids) /
                       (2 * h);
  const double gds_fd = (eval_alpha_power(p, w, vgs, vds + h).ids -
                         eval_alpha_power(p, w, vgs, vds - h).ids) /
                        (2 * h);
  const double scale = std::max({std::fabs(e.g_m), std::fabs(e.g_ds), 1e-9});
  EXPECT_NEAR(e.g_m, gm_fd, 2e-3 * scale) << "vgs=" << vgs << " vds=" << vds;
  EXPECT_NEAR(e.g_ds, gds_fd, 2e-3 * scale) << "vgs=" << vgs << " vds=" << vds;
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetDerivativeTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.4, 0.7, 1.0, 1.2),
                       ::testing::Values(-0.8, -0.2, 0.05, 0.3, 0.7, 1.2)));

// ---------------------------------------------------------------- circuit

TEST(Circuit, ValidatesElements) {
  Circuit c;
  const NodeId a = c.add_node("a");
  EXPECT_THROW(c.add_resistor(a, a, 100.0), Error);
  EXPECT_THROW(c.add_resistor(a, 99, 100.0), Error);
  EXPECT_THROW(c.add_resistor(a, c.ground(), -5.0), Error);
  EXPECT_THROW(c.add_capacitor(a, c.ground(), -1e-15), Error);
  EXPECT_THROW(c.add_vsource(c.ground(), Waveform::dc(1.0)), Error);
  c.add_vsource(a, Waveform::dc(1.0));
  EXPECT_THROW(c.add_vsource(a, Waveform::dc(2.0)), Error);
  EXPECT_TRUE(c.is_source_node(a));
  EXPECT_FALSE(c.is_source_node(c.ground()));
}

TEST(Circuit, ZeroCapacitorIsDropped) {
  Circuit c;
  const NodeId a = c.add_node();
  c.add_capacitor(a, c.ground(), 0.0);
  EXPECT_TRUE(c.capacitors().empty());
}

TEST(Waveform, RampShape) {
  const Waveform w = Waveform::ramp(0.0, 1.0, 1.0 * ns, 100.0 * ps);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(1.0 * ns), 0.0);
  EXPECT_NEAR(w.value(1.05 * ns), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(w.value(2.0 * ns), 1.0);
}

TEST(Waveform, PwlValidation) {
  EXPECT_THROW(Waveform::pwl({1.0, 1.0}, {0.0, 1.0}), Error);
  EXPECT_THROW(Waveform::pwl({}, {}), Error);
}

// -------------------------------------------------------------- transient

// RC charge: v(t) = Vdd (1 - exp(-t/RC)), t50 = RC ln 2, and the source
// delivers exactly C*Vdd of charge.
TEST(Transient, SingleRcMatchesClosedForm) {
  Circuit c;
  const NodeId in = c.add_node("in");
  const NodeId out = c.add_node("out");
  const double R = 1.0 * kohm;
  const double C = 1.0 * pF;
  c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
  c.add_resistor(in, out, R);
  c.add_capacitor(out, c.ground(), C);

  TransientOptions opt;
  opt.t_stop = 6.0 * ns;
  opt.dt = 1.0 * ps;
  const TransientResult res = run_transient(c, opt, {in, out});

  const double tau = R * C;
  // Sample a few points along the curve (offset by the ramp midpoint).
  for (double frac : {0.5, 1.0, 2.0, 3.0}) {
    const double t = frac * tau;
    // Find nearest sample.
    size_t k = static_cast<size_t>(t / opt.dt);
    const double expected = 1.0 - std::exp(-(res.time[k] - 0.5 * ps) / tau);
    EXPECT_NEAR(res.trace(out)[k], expected, 0.01);
  }
  const double t50 = crossing_time(res.time, res.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50, tau * std::log(2.0), 0.02 * tau);
  // Charge conservation.
  EXPECT_NEAR(res.sources[0].charge, C * 1.0, 0.02 * C);
  // Energy: source delivers C*V^2, half stored, half burned in R.
  EXPECT_NEAR(res.sources[0].energy, C * 1.0 * 1.0, 0.05 * C);
}

TEST(Transient, BackwardEulerAlsoAccurate) {
  Circuit c;
  const NodeId in = c.add_node();
  const NodeId out = c.add_node();
  c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
  c.add_resistor(in, out, 1.0 * kohm);
  c.add_capacitor(out, c.ground(), 1.0 * pF);
  TransientOptions opt;
  opt.t_stop = 4.0 * ns;
  opt.dt = 0.5 * ps;
  opt.integrator = Integrator::BackwardEuler;
  const TransientResult res = run_transient(c, opt, {out});
  const double t50 = crossing_time(res.time, res.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50, 1.0 * ns * std::log(2.0), 0.03 * ns);
}

// A uniform RC ladder's 50 % step delay should be near 0.69 * Elmore for
// the lumped single segment and grow ~quadratically with segment count.
TEST(Transient, RcLadderDelayGrowsQuadratically) {
  auto ladder_delay = [](int n) {
    Circuit c;
    const NodeId in = c.add_node();
    c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
    NodeId prev = in;
    for (int i = 0; i < n; ++i) {
      const NodeId next = c.add_node();
      c.add_resistor(prev, next, 100.0);
      c.add_capacitor(next, c.ground(), 100.0 * fF);
      prev = next;
    }
    TransientOptions opt;
    opt.t_stop = 10.0 * ns;
    opt.dt = 1.0 * ps;
    const TransientResult res = run_transient(c, opt, {prev});
    return crossing_time(res.time, res.trace(prev), 0.5, EdgeKind::Rising);
  };
  const double d5 = ladder_delay(5);
  const double d10 = ladder_delay(10);
  // Elmore of the N-ladder is R*C*N(N+1)/2: ratio (10*11)/(5*6) = 3.67.
  EXPECT_NEAR(d10 / d5, 110.0 / 30.0, 0.5);
}

TEST(Transient, BandedAndDensePathsAgree) {
  auto build = [] {
    Circuit c;
    const NodeId in = c.add_node();
    c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 50.0 * ps));
    NodeId prev = in;
    for (int i = 0; i < 12; ++i) {
      const NodeId next = c.add_node();
      c.add_resistor(prev, next, 250.0);
      c.add_capacitor(next, c.ground(), 20.0 * fF);
      prev = next;
    }
    return std::pair{std::move(c), prev};
  };
  auto [c1, out1] = build();
  TransientOptions banded;
  banded.t_stop = 1.0 * ns;
  banded.dt = 1.0 * ps;
  const TransientResult r_band = run_transient(c1, banded, {out1});

  auto [c2, out2] = build();
  TransientOptions dense = banded;
  dense.band_threshold = 0;  // force dense
  const TransientResult r_dense = run_transient(c2, dense, {out2});

  ASSERT_EQ(r_band.time.size(), r_dense.time.size());
  for (size_t i = 0; i < r_band.time.size(); ++i)
    EXPECT_NEAR(r_band.trace(out1)[i], r_dense.trace(out2)[i], 1e-7);
}

// ------------------------------------------------------------- inverter

struct InverterRun {
  double delay;
  double out_slew;
  double vdd_charge;
};

InverterRun run_inverter(double wn_um, double load_ff, double in_slew_ps,
                         EdgeKind in_edge) {
  Circuit c;
  const NodeId vdd = c.add_node("vdd");
  const NodeId in = c.add_node("in");
  const NodeId out = c.add_node("out");
  c.add_vsource(vdd, Waveform::dc(kVdd));
  const double v0 = in_edge == EdgeKind::Rising ? 0.0 : kVdd;
  const double v1 = kVdd - v0;
  c.add_vsource(in, Waveform::ramp(v0, v1, 20.0 * ps, in_slew_ps * ps));
  c.add_inverter(test_devices(), wn_um * um, 2.0 * wn_um * um, in, out, vdd);
  c.add_capacitor(out, c.ground(), load_ff * fF);

  TransientOptions opt;
  opt.t_stop = 3.0 * ns;
  opt.dt = 0.5 * ps;
  const TransientResult res = run_transient(c, opt, {in, out});
  const EdgeKind out_edge = in_edge == EdgeKind::Rising ? EdgeKind::Falling : EdgeKind::Rising;
  InverterRun r;
  r.delay = delay_50(res.time, res.trace(in), in_edge, res.trace(out), out_edge, kVdd);
  r.out_slew = measure_slew(res.time, res.trace(out), out_edge, kVdd);
  r.vdd_charge = res.sources[0].charge;
  return r;
}

TEST(Inverter, DcLevelsCorrectAfterSettle) {
  Circuit c;
  const NodeId vdd = c.add_node();
  const NodeId in = c.add_node();
  const NodeId out = c.add_node();
  c.add_vsource(vdd, Waveform::dc(kVdd));
  c.add_vsource(in, Waveform::dc(0.0));
  c.add_inverter(test_devices(), 1.0 * um, 2.0 * um, in, out, vdd);
  c.add_capacitor(out, c.ground(), 5.0 * fF);
  TransientOptions opt;
  opt.t_stop = 0.1 * ns;
  opt.dt = 1.0 * ps;
  const TransientResult res = run_transient(c, opt, {out});
  // Input low -> output pulled to vdd (minus negligible leakage droop).
  EXPECT_NEAR(res.trace(out).front(), kVdd, 0.02);
}

TEST(Inverter, DelayIncreasesWithLoad) {
  const double d1 = run_inverter(2.0, 5.0, 50.0, EdgeKind::Rising).delay;
  const double d2 = run_inverter(2.0, 20.0, 50.0, EdgeKind::Rising).delay;
  const double d3 = run_inverter(2.0, 80.0, 50.0, EdgeKind::Rising).delay;
  EXPECT_GT(d2, d1);
  EXPECT_GT(d3, d2);
  // Load-dependent part should be roughly linear in c_l: the increments
  // scale by roughly 4x when the load increment scales by 4x (the real
  // device bends this somewhat — that residual is exactly what the
  // paper's slew-dependent drive-resistance term absorbs).
  const double inc1 = d2 - d1;
  const double inc2 = d3 - d2;
  EXPECT_GT(inc2 / inc1, 1.5);
  EXPECT_LT(inc2 / inc1, 6.5);
}

TEST(Inverter, DelayDecreasesWithSize) {
  const double small = run_inverter(1.0, 40.0, 50.0, EdgeKind::Rising).delay;
  const double big = run_inverter(4.0, 40.0, 50.0, EdgeKind::Rising).delay;
  EXPECT_LT(big, small);
}

TEST(Inverter, OutputSlewIncreasesWithLoad) {
  const double s1 = run_inverter(2.0, 5.0, 50.0, EdgeKind::Rising).out_slew;
  const double s2 = run_inverter(2.0, 40.0, 50.0, EdgeKind::Rising).out_slew;
  EXPECT_GT(s2, s1);
}

TEST(Inverter, DelayIncreasesWithInputSlew) {
  const double fast = run_inverter(2.0, 20.0, 20.0, EdgeKind::Rising).delay;
  const double slow = run_inverter(2.0, 20.0, 300.0, EdgeKind::Rising).delay;
  EXPECT_GT(slow, fast);
}

TEST(Inverter, RisingOutputDrawsSupplyCharge) {
  // Input falls -> output rises -> PMOS charges the load: the supply must
  // deliver roughly (C_load + C_drain) * Vdd.
  const double load = 40.0;
  const InverterRun r = run_inverter(2.0, load, 50.0, EdgeKind::Falling);
  const double c_drain =
      (2.0 * um) * test_nmos().c_drain + (4.0 * um) * test_pmos().c_drain;
  const double expected = (load * fF + c_drain) * kVdd;
  EXPECT_NEAR(r.vdd_charge, expected, 0.25 * expected);
}

// Property: single-RC step response crossing matches the closed form
// across a grid of (R, C) and both integrators.
class RcClosedForm
    : public ::testing::TestWithParam<std::tuple<double, double, Integrator>> {};

TEST_P(RcClosedForm, FiftyPercentDelayIsRcLn2) {
  const auto [r_kohm, c_ff, integ] = GetParam();
  const double R = r_kohm * kohm;
  const double C = c_ff * fF;
  Circuit c;
  const NodeId in = c.add_node();
  const NodeId out = c.add_node();
  c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 0.5 * ps));
  c.add_resistor(in, out, R);
  c.add_capacitor(out, c.ground(), C);
  const double tau = R * C;
  TransientOptions opt;
  opt.integrator = integ;
  opt.dt = std::max(0.05 * ps, tau / 400.0);
  opt.t_stop = 6.0 * tau + 2.0 * ps;
  const TransientResult res = run_transient(c, opt, {out});
  const double t50 = crossing_time(res.time, res.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50, tau * std::log(2.0) + 0.25 * ps, 0.02 * tau + 0.2 * ps);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RcClosedForm,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0),     // kohm
                       ::testing::Values(10.0, 100.0, 1000.0), // fF
                       ::testing::Values(Integrator::Trapezoidal,
                                         Integrator::BackwardEuler)));

// Pass-gate-flavored configuration: an NMOS whose source is NOT a rail,
// exercising the reverse-conduction branch inside a real solve.
TEST(Transient, NmosPassGateTransfersCharge) {
  const MosfetParams n = test_nmos();
  Circuit c;
  const NodeId gate = c.add_node();
  const NodeId src = c.add_node();
  const NodeId out = c.add_node();
  c.add_vsource(gate, Waveform::dc(1.0));
  c.add_vsource(src, Waveform::ramp(0.0, 1.0, 10 * ps, 50 * ps));
  c.add_mosfet(MosType::Nmos, n, 2 * um, gate, out, src);
  c.add_capacitor(out, c.ground(), 20 * fF);
  TransientOptions opt;
  opt.t_stop = 3 * ns;
  opt.dt = 1 * ps;
  const TransientResult res = run_transient(c, opt, {out});
  // The pass gate charges the output toward vdd - vth (body-effect-free
  // alpha-power device: conduction dies as vgs approaches vth).
  const double final_v = res.trace(out).back();
  EXPECT_GT(final_v, 0.45);
  EXPECT_LT(final_v, 0.85);
  // Monotone rise, no spurious dips below -1 mV.
  for (double v : res.trace(out)) EXPECT_GT(v, -1e-3);
}

// --------------------------------------------------------------- measure

TEST(Measure, CrossingAndSlewOfIdealRamp) {
  std::vector<double> t, v;
  for (int i = 0; i <= 100; ++i) {
    t.push_back(i * 1.0 * ps);
    v.push_back(std::min(1.0, i / 50.0));  // 0 -> 1 over 50 ps
  }
  EXPECT_NEAR(crossing_time(t, v, 0.5, EdgeKind::Rising), 25.0 * ps, 0.01 * ps);
  // 20-80 % of a linear ramp spans 0.6 of it; scaled back by 1/0.6 the
  // measured slew equals the full ramp time.
  EXPECT_NEAR(measure_slew(t, v, EdgeKind::Rising, 1.0), 50.0 * ps, 0.5 * ps);
  EXPECT_THROW(crossing_time(t, v, 2.0, EdgeKind::Rising), Error);
}

TEST(Measure, FallingEdge) {
  std::vector<double> t, v;
  for (int i = 0; i <= 100; ++i) {
    t.push_back(i * 1.0 * ps);
    v.push_back(std::max(0.0, 1.0 - i / 40.0));
  }
  EXPECT_NEAR(crossing_time(t, v, 0.5, EdgeKind::Falling), 20.0 * ps, 0.01 * ps);
  EXPECT_NEAR(measure_slew(t, v, EdgeKind::Falling, 1.0), 40.0 * ps, 0.5 * ps);
}

// ------------------------------------------------ batched engine identity

// Byte-level equality: the contract is bit-identity, not closeness, so
// compare the raw representations (EXPECT_EQ would let -0.0 == +0.0 slip).
bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_traces_bit_identical(const TransientResult& a, const TransientResult& b) {
  ASSERT_EQ(a.time.size(), b.time.size());
  for (size_t i = 0; i < a.time.size(); ++i)
    ASSERT_TRUE(bits_equal(a.time[i], b.time[i])) << "time[" << i << "]";
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (size_t t = 0; t < a.traces.size(); ++t) {
    ASSERT_EQ(a.traces[t].node, b.traces[t].node);
    ASSERT_EQ(a.traces[t].values.size(), b.traces[t].values.size());
    for (size_t i = 0; i < a.traces[t].values.size(); ++i)
      ASSERT_TRUE(bits_equal(a.traces[t].values[i], b.traces[t].values[i]))
          << "trace " << t << " sample " << i;
  }
}

void expect_bit_identical(const TransientResult& a, const TransientResult& b) {
  expect_traces_bit_identical(a, b);
  ASSERT_EQ(a.sources.size(), b.sources.size());
  for (size_t s = 0; s < a.sources.size(); ++s) {
    ASSERT_TRUE(bits_equal(a.sources[s].charge, b.sources[s].charge)) << s;
    ASSERT_TRUE(bits_equal(a.sources[s].energy, b.sources[s].energy)) << s;
  }
}

// 12-segment RC ladder (banded path) driven by a ramp.
std::pair<Circuit, NodeId> build_ladder() {
  Circuit c;
  const NodeId in = c.add_node();
  c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 50.0 * ps));
  NodeId prev = in;
  for (int i = 0; i < 12; ++i) {
    const NodeId next = c.add_node();
    c.add_resistor(prev, next, 250.0);
    c.add_capacitor(next, c.ground(), 20.0 * fF);
    prev = next;
  }
  return {std::move(c), prev};
}

// Inverter built from explicit add_mosfet calls so width perturbations
// change only the device drive (LaneSpec semantics), not the parasitics
// that add_inverter derives from the width.
struct ManualInverter {
  Circuit c;
  NodeId in = 0, out = 0;
};

ManualInverter manual_inverter(double wn_um_val, double wp_um_val, double load_ff,
                               double slew_ps) {
  ManualInverter m;
  const NodeId vdd = m.c.add_node("vdd");
  m.in = m.c.add_node("in");
  m.out = m.c.add_node("out");
  m.c.add_vsource(vdd, Waveform::dc(kVdd));
  m.c.add_vsource(m.in, Waveform::ramp(0.0, kVdd, 20.0 * ps, slew_ps * ps));
  m.c.add_mosfet(MosType::Nmos, test_nmos(), wn_um_val * um, m.in, m.out, m.c.ground());
  m.c.add_mosfet(MosType::Pmos, test_pmos(), wp_um_val * um, m.in, m.out, vdd);
  m.c.add_capacitor(m.out, m.c.ground(), load_ff * fF);
  return m;
}

TransientOptions batch_test_options() {
  TransientOptions opt;
  opt.t_stop = 0.5 * ns;
  opt.dt = 1.0 * ps;
  return opt;
}

TEST(TransientBatch, SingleLaneMatchesReferenceBitExact) {
  // RC ladder, trapezoidal + backward Euler, banded path.
  auto [ladder, tail] = build_ladder();
  for (Integrator integ : {Integrator::Trapezoidal, Integrator::BackwardEuler}) {
    TransientOptions opt = batch_test_options();
    opt.integrator = integ;
    expect_bit_identical(run_transient(ladder, opt, {tail}),
                         run_transient_reference(ladder, opt, {tail}));
  }
  // Inverter, banded and forced-dense paths.
  ManualInverter inv = manual_inverter(1.0, 2.0, 10.0, 30.0);
  for (size_t threshold : {size_t{48}, size_t{0}}) {
    TransientOptions opt = batch_test_options();
    opt.band_threshold = threshold;
    expect_bit_identical(run_transient(inv.c, opt, {inv.in, inv.out}),
                         run_transient_reference(inv.c, opt, {inv.in, inv.out}));
  }

  // Five-line SS sign-off decks: a 5-diagonal band, with aggressor
  // coupling that drives devices through triode, subthreshold and
  // reverse-vds operation, where the batched engine serves the vgs-only
  // half of each evaluation from its per-device memo.
  const Technology& tech = technology(TechNode::N65);
  LinkContext ctx;
  ctx.style = DesignStyle::SingleSpacing;
  ctx.length = 1.0 * mm;
  ctx.input_slew = 60.0 * ps;
  LinkDesign design;
  design.drive = 8;
  design.num_repeaters = 2;
  SignoffOptions sopt;
  sopt.pi_per_segment = 2;
  std::vector<LinkNetlist> decks;
  for (bool rising : {true, false})
    decks.push_back(build_link_netlist(tech, ctx, design, sopt, rising));
  SignoffOptions quiet = sopt;
  quiet.aggressors = AggressorMode::VictimQuiet;
  LinkDesign segment = design;
  segment.num_repeaters = 1;
  decks.push_back(build_link_netlist(tech, ctx, segment, quiet, true));
  const TransientOptions opt = batch_test_options();
  TransientOptions traces_only = opt;
  traces_only.integrate_sources = false;
  for (const LinkNetlist& deck : decks) {
    const std::vector<NodeId> probes = {deck.victim_in, deck.victim_out};
    const TransientResult ref = run_transient_reference(deck.circuit, opt, probes);
    expect_bit_identical(run_transient(deck.circuit, opt, probes), ref);
    // Skipping source integration changes neither time nor traces.
    const TransientResult lean = run_transient(deck.circuit, traces_only, probes);
    expect_traces_bit_identical(lean, ref);
    for (const SourceTotals& s : lean.sources) {
      EXPECT_EQ(s.charge, 0.0);
      EXPECT_EQ(s.energy, 0.0);
    }
  }

  // A two-lane cohort of the SS deck matches the same lanes run solo.
  const LinkNetlist& ss = decks.front();
  const CompiledCircuit plan = CompiledCircuit::compile(ss.circuit, opt.band_threshold);
  std::vector<LaneSpec> lanes(2);
  lanes[1].mosfet_width.push_back({0, 1.5 * ss.circuit.mosfets()[0].width});
  lanes[1].cap_farads.push_back({3, 1.25 * ss.circuit.capacitors()[3].farads});
  BatchOptions cohort;
  cohort.wave_width = 2;
  BatchOptions solo;
  solo.wave_width = 1;
  for (const TransientOptions& o : {opt, traces_only}) {
    const std::vector<NodeId> probes = {ss.victim_in, ss.victim_out};
    TransientBatch together = run_transient_batch(plan, o, probes, lanes, cohort);
    TransientBatch apart = run_transient_batch(plan, o, probes, lanes, solo);
    for (size_t i = 0; i < lanes.size(); ++i) {
      ASSERT_TRUE(together.lanes[i].ok()) << "lane " << i;
      ASSERT_TRUE(apart.lanes[i].ok()) << "lane " << i;
      expect_bit_identical(together.lanes[i].value(), apart.lanes[i].value());
    }
  }
}

TEST(TransientBatch, PerturbedLanesMatchSoloScalarRunsBitExact) {
  const TransientOptions opt = batch_test_options();
  ManualInverter base = manual_inverter(1.0, 2.0, 10.0, 30.0);
  const CompiledCircuit plan = CompiledCircuit::compile(base.c, opt.band_threshold);
  const Waveform slow_in = Waveform::ramp(0.0, kVdd, 20.0 * ps, 60.0 * ps);

  std::vector<LaneSpec> lanes(4);
  lanes[1].cap_farads.push_back({0, 15.0 * fF});
  lanes[2].mosfet_width.push_back({0, 1.25 * um});
  lanes[3].vsource_wave.push_back({1, slow_in});

  // Scalar references: the same perturbations baked into fresh netlists.
  std::vector<TransientResult> ref;
  ref.push_back(run_transient_reference(base.c, opt, {base.in, base.out}));
  ManualInverter heavy = manual_inverter(1.0, 2.0, 15.0, 30.0);
  ref.push_back(run_transient_reference(heavy.c, opt, {heavy.in, heavy.out}));
  ManualInverter wide = manual_inverter(1.25, 2.0, 10.0, 30.0);
  ref.push_back(run_transient_reference(wide.c, opt, {wide.in, wide.out}));
  ManualInverter slow = manual_inverter(1.0, 2.0, 10.0, 60.0);
  ref.push_back(run_transient_reference(slow.c, opt, {slow.in, slow.out}));

  // Lane results must not depend on the cohort width either.
  for (size_t wave_width : {size_t{1}, size_t{2}, size_t{8}}) {
    BatchOptions bopt;
    bopt.wave_width = wave_width;
    TransientBatch batch =
        run_transient_batch(plan, opt, {base.in, base.out}, lanes, bopt);
    EXPECT_FALSE(batch.truncated());
    ASSERT_EQ(batch.lanes.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(batch.lanes[i].ok()) << "lane " << i;
      expect_bit_identical(batch.lanes[i].value(), ref[i]);
    }
  }
}

TEST(TransientBatch, SteadyStateReplayIsBitExactAndActuallySkipsSolves) {
  // Long flat tail after a 30 ps edge: the converged state settles into
  // a short bit-exact cycle, which the engine replays instead of
  // re-solving (docs/kernels.md). The replayed result must match full
  // stepping bit-for-bit — traces AND accumulated source charge/energy.
  TransientOptions opt = batch_test_options();
  opt.t_stop = 2.0 * ns;
  opt.t_settle = 0.5 * ns;
  opt.settle_steps = 120;
  ManualInverter inv = manual_inverter(1.0, 2.0, 10.0, 30.0);
  const CompiledCircuit plan = CompiledCircuit::compile(inv.c, opt.band_threshold);
  std::vector<LaneSpec> lanes(2);
  lanes[1].cap_farads.push_back({0, 15.0 * fF});

  obs::registry().reset();
  obs::set_enabled(true);
  BatchOptions full;
  full.steady_skip = false;
  TransientBatch stepped = run_transient_batch(plan, opt, {inv.in, inv.out}, lanes, full);
  const int64_t solves_full = obs::registry().counter("spice.lu.solves").value();

  obs::registry().reset();
  TransientBatch replayed = run_transient_batch(plan, opt, {inv.in, inv.out}, lanes);
  const int64_t solves_skip = obs::registry().counter("spice.lu.solves").value();
  const int64_t steps_skip = obs::registry().counter("spice.timestep.count").value();
  obs::set_enabled(false);
  obs::registry().reset();

  for (size_t i = 0; i < lanes.size(); ++i) {
    ASSERT_TRUE(stepped.lanes[i].ok());
    ASSERT_TRUE(replayed.lanes[i].ok());
    expect_bit_identical(replayed.lanes[i].value(), stepped.lanes[i].value());
  }
  // The skip must be real work avoidance, not a no-op: most of the tail
  // is replayed, while every advanced step still counts as a timestep.
  EXPECT_LT(solves_skip, solves_full / 2) << "steady-state replay never engaged";
  EXPECT_GT(steps_skip, solves_skip);
}

// Index of the sample at which crossing_time finds the crossing `c` of
// `res` (the second sample of the first crossing pair), or npos.
size_t crossing_index(const TransientResult& res, const Crossing& c) {
  const std::vector<double>& v = res.traces[c.probe].values;
  for (size_t i = 1; i < v.size(); ++i)
    if (crosses(v[i - 1], v[i], c.level, c.edge)) return i;
  return std::string::npos;
}

TEST(TransientBatch, MeasuredCrossingsEndTheLaneOnABitExactPrefix) {
  // Measurement-bounded window (LaneSpec::stop_after): the stepping is
  // causal on a fixed grid, so a lane that stops once its measured
  // crossings have occurred holds the exact prefix of the full run, and
  // first-crossing measurements read the same bits from either.
  const TransientOptions opt = batch_test_options();
  ManualInverter inv = manual_inverter(1.0, 2.0, 10.0, 30.0);
  const CompiledCircuit plan = CompiledCircuit::compile(inv.c, opt.band_threshold);
  const std::vector<NodeId> probes = {inv.in, inv.out};
  const std::vector<Crossing> measured =
      delay_slew_crossings(0, EdgeKind::Rising, 1, EdgeKind::Falling, kVdd);
  ASSERT_EQ(measured.size(), 4u);
  std::vector<LaneSpec> lanes(2);  // lane 0: full window; lane 1: bounded
  lanes[1].stop_after = measured;
  BatchOptions cohort;
  cohort.wave_width = 2;

  obs::registry().reset();
  obs::set_enabled(true);
  TransientBatch batch = run_transient_batch(plan, opt, probes, lanes, cohort);
  const int64_t unsimulated =
      obs::registry().counter("spice.timestep.after_measure").value();
  obs::set_enabled(false);
  obs::registry().reset();
  ASSERT_TRUE(batch.lanes[0].ok());
  ASSERT_TRUE(batch.lanes[1].ok());
  const TransientResult& full = batch.lanes[0].value();
  const TransientResult& cut = batch.lanes[1].value();
  expect_bit_identical(full, run_transient_reference(inv.c, opt, probes));

  // It ends at the first sample where every crossing holds...
  size_t last = 0;
  for (const Crossing& c : measured) {
    const size_t at = crossing_index(full, c);
    ASSERT_NE(at, std::string::npos);
    last = std::max(last, at);
  }
  ASSERT_EQ(cut.time.size(), last + 1);
  ASSERT_LT(cut.time.size(), full.time.size()) << "the stop never engaged";
  EXPECT_EQ(unsimulated, static_cast<int64_t>(full.time.size() - cut.time.size()));
  // ...on a bit-exact prefix of the full run...
  ASSERT_EQ(cut.traces.size(), full.traces.size());
  for (size_t i = 0; i < cut.time.size(); ++i) {
    ASSERT_TRUE(bits_equal(cut.time[i], full.time[i])) << "time[" << i << "]";
    for (size_t t = 0; t < cut.traces.size(); ++t)
      ASSERT_TRUE(bits_equal(cut.traces[t].values[i], full.traces[t].values[i]))
          << "trace " << t << " sample " << i;
  }
  // ...so the delay and slew measured on it are the same bits.
  EXPECT_TRUE(bits_equal(
      delay_50(cut.time, cut.trace(inv.in), EdgeKind::Rising, cut.trace(inv.out),
               EdgeKind::Falling, kVdd),
      delay_50(full.time, full.trace(inv.in), EdgeKind::Rising, full.trace(inv.out),
               EdgeKind::Falling, kVdd)));
  EXPECT_TRUE(bits_equal(measure_slew(cut.time, cut.trace(inv.out), EdgeKind::Falling, kVdd),
                         measure_slew(full.time, full.trace(inv.out), EdgeKind::Falling,
                                      kVdd)));
  // The single-circuit entry point stops the same way.
  expect_traces_bit_identical(run_transient(inv.c, opt, probes, measured), cut);

  // A level that is never crossed keeps the full window.
  LaneSpec never;
  never.stop_after = measured;
  never.stop_after.push_back({1, 2.0 * kVdd, EdgeKind::Rising});
  TransientBatch whole = run_transient_batch(plan, opt, probes, {never});
  ASSERT_TRUE(whole.lanes[0].ok());
  expect_bit_identical(whole.lanes[0].value(), full);

  // A crossing on a probe the lane does not record fails only that lane.
  LaneSpec stray;
  stray.stop_after.push_back({probes.size(), 0.5 * kVdd, EdgeKind::Rising});
  TransientBatch mixed = run_transient_batch(plan, opt, probes, {stray, LaneSpec{}});
  ASSERT_FALSE(mixed.lanes[0].ok());
  EXPECT_EQ(mixed.lanes[0].error().code(), ErrorCode::bad_input);
  ASSERT_TRUE(mixed.lanes[1].ok());
  expect_bit_identical(mixed.lanes[1].value(), full);
}

TEST(TransientBatch, BadLaneIsIsolatedFromSiblings) {
  const TransientOptions opt = batch_test_options();
  ManualInverter base = manual_inverter(1.0, 2.0, 10.0, 30.0);
  const CompiledCircuit plan = CompiledCircuit::compile(base.c, opt.band_threshold);

  std::vector<LaneSpec> lanes(4);
  lanes[1].cap_farads.push_back({0, std::numeric_limits<double>::quiet_NaN()});
  lanes[2].mosfet_width.push_back({0, std::numeric_limits<double>::infinity()});
  TransientBatch batch = run_transient_batch(plan, opt, {base.out}, lanes);

  ASSERT_FALSE(batch.lanes[1].ok());
  EXPECT_EQ(batch.lanes[1].error().code(), ErrorCode::bad_input);
  ASSERT_FALSE(batch.lanes[2].ok());
  EXPECT_EQ(batch.lanes[2].error().code(), ErrorCode::bad_input);
  // Healthy siblings are untouched: bit-identical to a solo scalar run,
  // with every sample finite.
  const TransientResult ref = run_transient_reference(base.c, opt, {base.out});
  for (size_t i : {size_t{0}, size_t{3}}) {
    ASSERT_TRUE(batch.lanes[i].ok()) << "lane " << i;
    expect_bit_identical(batch.lanes[i].value(), ref);
    for (double v : batch.lanes[i].value().trace(base.out)) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(TransientResultTrace, MissingProbeIsTypedAndNamesTheNode) {
  auto [ladder, tail] = build_ladder();
  const TransientResult res = run_transient(ladder, batch_test_options(), {tail});
  EXPECT_EQ(res.trace(tail).size(), res.time.size());
  try {
    res.trace(tail - 1);
    FAIL() << "expected bad_input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("node " + std::to_string(tail - 1)),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("was not probed"), std::string::npos);
  }
}

// Fault-driven paths: the batched engine must reproduce the scalar
// solver's draw sequence (one Newton-diverge draw per step attempt, one
// LU draw per factorization), so injected retries land on the same steps
// and the outputs stay bit-identical.
class BatchFaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    deadline::reset();
  }
  void TearDown() override {
    fault::clear();
    deadline::reset();
  }
};

TEST_F(BatchFaultFixture, HalvingRetriesStayBitIdenticalToReference) {
  auto [ladder, tail] = build_ladder();
  TransientOptions opt = batch_test_options();
  opt.t_stop = 2.0 * ns;

  fault::configure("newton.diverge:0.02:3");
  const TransientResult faulty_batch = run_transient(ladder, opt, {tail});
  EXPECT_GT(fault::fired_count(fault::kNewtonDiverge), 0);

  fault::configure("newton.diverge:0.02:3");  // identical replay
  const TransientResult faulty_ref = run_transient_reference(ladder, opt, {tail});
  expect_bit_identical(faulty_batch, faulty_ref);

  fault::configure("lu.singular:0.05:7");
  const TransientResult singular_batch = run_transient(ladder, opt, {tail});
  EXPECT_GT(fault::fired_count(fault::kLuSingular), 0);
  fault::configure("lu.singular:0.05:7");
  const TransientResult singular_ref = run_transient_reference(ladder, opt, {tail});
  expect_bit_identical(singular_batch, singular_ref);
}

TEST_F(BatchFaultFixture, MeasuredCrossingsAreIgnoredWhileFaultsAreArmed) {
  // A stopped lane would skip the per-step fault draws of its tail, so
  // while the harness is armed the crossing list is ignored: the window,
  // the results and the fault counts match a run without it.
  const TransientOptions opt = batch_test_options();
  ManualInverter inv = manual_inverter(1.0, 2.0, 10.0, 30.0);
  const std::vector<NodeId> probes = {inv.in, inv.out};
  const std::vector<Crossing> measured =
      delay_slew_crossings(0, EdgeKind::Rising, 1, EdgeKind::Falling, kVdd);

  fault::configure("lu.singular:0.05:7");
  const TransientResult plain = run_transient(inv.c, opt, probes);
  const int64_t fired = fault::fired_count(fault::kLuSingular);
  EXPECT_GT(fired, 0);
  fault::configure("lu.singular:0.05:7");
  const TransientResult bounded = run_transient(inv.c, opt, probes, measured);
  EXPECT_EQ(fault::fired_count(fault::kLuSingular), fired);
  expect_bit_identical(bounded, plain);
  fault::clear();
  EXPECT_LT(run_transient(inv.c, opt, probes, measured).time.size(), plain.time.size())
      << "the disarmed run must stop early, or this test checks nothing";
}

TEST_F(BatchFaultFixture, PerLaneDeadlineCutoffIsAPureFunctionOfIndex) {
  constexpr size_t kLanes = 6;
  // Find a seed whose deadline-expire stream first fires strictly inside
  // the batch, replaying the engine's per-lane admission poll.
  auto predicted = [] {
    for (size_t i = 0; i < kLanes; ++i) {
      fault::ScopedStream stream(i);
      if (fault::should_fire(fault::kDeadlineExpire)) return i;
    }
    return kLanes;
  };
  std::string spec;
  size_t cutoff = 0;
  for (int seed = 1; seed < 64; ++seed) {
    spec = "deadline-expire:0.3:" + std::to_string(seed);
    fault::configure(spec);
    cutoff = predicted();
    if (cutoff > 0 && cutoff < kLanes) break;
  }
  ASSERT_GT(cutoff, 0u);
  ASSERT_LT(cutoff, kLanes);

  const TransientOptions opt = batch_test_options();
  ManualInverter base = manual_inverter(1.0, 2.0, 10.0, 30.0);
  const CompiledCircuit plan = CompiledCircuit::compile(base.c, opt.band_threshold);
  std::vector<LaneSpec> lanes(kLanes);
  for (size_t i = 0; i < kLanes; ++i)
    lanes[i].cap_farads.push_back({0, (10.0 + static_cast<double>(i)) * fF});

  std::vector<TransientResult> ref;
  for (size_t i = 0; i < kLanes; ++i) {
    ManualInverter solo = manual_inverter(1.0, 2.0, 10.0 + static_cast<double>(i), 30.0);
    ref.push_back(run_transient_reference(solo.c, opt, {solo.out}));
  }

  // The same prefix must complete at any cohort width.
  for (size_t wave_width : {size_t{1}, size_t{2}, size_t{8}}) {
    fault::configure(spec);
    BatchOptions bopt;
    bopt.wave_width = wave_width;
    bopt.poll_deadline = true;
    TransientBatch batch = run_transient_batch(plan, opt, {base.out}, lanes, bopt);
    EXPECT_TRUE(batch.truncated()) << wave_width;
    EXPECT_EQ(batch.stop, deadline::StopReason::deadline_exceeded) << wave_width;
    EXPECT_EQ(batch.cutoff, cutoff) << wave_width;
    for (size_t i = 0; i < cutoff; ++i) {
      ASSERT_TRUE(batch.lanes[i].ok()) << wave_width << " lane " << i;
      expect_bit_identical(batch.lanes[i].value(), ref[i]);
    }
    for (size_t i = cutoff; i < kLanes; ++i) {
      ASSERT_FALSE(batch.lanes[i].ok()) << wave_width << " lane " << i;
      EXPECT_EQ(batch.lanes[i].error().code(), ErrorCode::deadline_exceeded);
    }
  }
}

}  // namespace
}  // namespace pim
