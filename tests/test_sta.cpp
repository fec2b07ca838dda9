// Tests for pim::sta — Elmore utilities, the golden sign-off analyzer's
// physical soundness (SI ordering, pi convergence), the composition
// calibration, coefficient-file round trips, and the headline Table II
// property: the calibrated proposed model tracks sign-off closely while
// the baselines do not.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "spice/transient.hpp"
#include "spice/measure.hpp"
#include "util/rng.hpp"

#include "charlib/coeffs_io.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "sta/awe.hpp"
#include "sta/calibrated.hpp"
#include "sta/elmore.hpp"
#include "sta/nldm_timer.hpp"
#include "sta/noise.hpp"
#include "sta/signoff.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

using namespace pim::unit;

TEST(Elmore, LadderMatchesClosedForm) {
  // Uniform ladder Elmore = R C (N+1)/(2N) + R C_load.
  const double r = 1000.0;
  const double c = 1.0 * pF;
  const double cl = 0.1 * pF;
  for (int n : {1, 4, 10}) {
    const double expected = r * c * (n + 1) / (2.0 * n) + r * cl;
    EXPECT_NEAR(elmore_rc_ladder(r, c, cl, n), expected, 1e-15);
  }
  EXPECT_THROW(elmore_rc_ladder(r, c, cl, 0), Error);
}

TEST(Elmore, BufferedLineGrowsWithLength) {
  const Technology& t = technology(TechNode::N65);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 4;
  LinkContext a;
  a.length = 2 * mm;
  LinkContext b;
  b.length = 6 * mm;
  EXPECT_GT(elmore_buffered_line(t, b, d), elmore_buffered_line(t, a, d));
  EXPECT_GT(elmore_buffered_line(t, a, d), 0.0);
}

// Shared calibrated fit at 65 nm.
class StaFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = &technology(TechNode::N65);
    CharacterizationOptions copt;
    copt.drives = {2, 8, 32};
    // Trimmed calibration axes keep the fixture fast; benches use the
    // full defaults.
    CompositionOptions comp;
    comp.drives = {8, 32};
    comp.segment_lengths = {0.5e-3, 1.5e-3};
    comp.input_slews = {50e-12, 300e-12};
    comp.chain_lengths = {1, 3};
    fit_ = new TechnologyFit(calibrated_fit(TechNode::N65, "", copt, comp));
    model_ = new ProposedModel(*tech_, *fit_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fit_;
    model_ = nullptr;
    fit_ = nullptr;
  }
  static const Technology* tech_;
  static TechnologyFit* fit_;
  static ProposedModel* model_;
};

const Technology* StaFixture::tech_ = nullptr;
TechnologyFit* StaFixture::fit_ = nullptr;
ProposedModel* StaFixture::model_ = nullptr;

LinkContext short_link(DesignStyle style) {
  LinkContext ctx;
  ctx.length = 1.5 * mm;
  ctx.input_slew = 100 * ps;
  ctx.style = style;
  return ctx;
}

TEST_F(StaFixture, AggressorModesOrderDelays) {
  // Worst-case opposing switching must be slower than quiet neighbors,
  // which must be slower than same-direction switching.
  const LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 2;
  SignoffOptions opt;
  opt.aggressors = AggressorMode::Opposing;
  const double opposing = signoff_link(*tech_, ctx, d, opt).delay;
  opt.aggressors = AggressorMode::Quiet;
  const double quiet = signoff_link(*tech_, ctx, d, opt).delay;
  opt.aggressors = AggressorMode::SameDirection;
  const double same = signoff_link(*tech_, ctx, d, opt).delay;
  EXPECT_GT(opposing, quiet);
  EXPECT_GT(quiet, same);
}

TEST_F(StaFixture, PiDiscretizationConverged) {
  const LinkContext ctx = short_link(DesignStyle::Shielded);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 2;
  SignoffOptions coarse;
  coarse.pi_per_segment = 3;
  SignoffOptions fine;
  fine.pi_per_segment = 12;
  const double d_coarse = signoff_link(*tech_, ctx, d, coarse).delay;
  const double d_fine = signoff_link(*tech_, ctx, d, fine).delay;
  EXPECT_NEAR(d_coarse, d_fine, 0.05 * d_fine);
}

TEST_F(StaFixture, DelayGrowsWithLength) {
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 2;
  LinkContext a = short_link(DesignStyle::Shielded);
  LinkContext b = a;
  b.length = 3 * mm;
  EXPECT_GT(signoff_link(*tech_, b, d).delay, signoff_link(*tech_, a, d).delay);
}

TEST_F(StaFixture, CompositionCalibrationIsSane) {
  for (const CompositionWeights* w : {&fit_->comp_coupled, &fit_->comp_shielded}) {
    EXPECT_GT(w->kappa_c, 0.1);
    EXPECT_LT(w->kappa_c, 1.5);
    EXPECT_GT(w->kappa_w, 0.1);
    EXPECT_LT(w->kappa_w, 1.6);
    // The calibration must reproduce its own training chains closely.
    EXPECT_LT(w->worst_rel_error, 0.25);
  }
}

// The Table II property (relaxed bound): proposed within 20 % of golden
// sign-off while Bakoglu errs far more on coupled wiring.
TEST_F(StaFixture, ProposedTracksSignoffBaselinesDoNot) {
  const BakogluModel bak(*tech_);
  LinkDesign d;
  d.drive = 16;
  for (const double len_mm : {1.0, 4.0}) {
    for (const DesignStyle style : {DesignStyle::SingleSpacing, DesignStyle::Shielded}) {
      LinkContext ctx = short_link(style);
      ctx.length = len_mm * mm;
      d.num_repeaters = std::max(1, static_cast<int>(len_mm));
      const double golden = signoff_link(*tech_, ctx, d).delay;
      const double prop = model_->evaluate(ctx, d).delay;
      const double bako = bak.evaluate(ctx, d).delay;
      EXPECT_NEAR(prop, golden, 0.20 * golden)
          << "len=" << len_mm << " style=" << design_style_name(style);
      if (style == DesignStyle::SingleSpacing) {
        // Coupling-blind baseline misses badly on coupled wires.
        EXPECT_GT(std::fabs(bako - golden), 0.25 * golden);
      }
    }
  }
}

TEST_F(StaFixture, GoldenSlewTrackedByModel) {
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 4 * mm;
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 4;
  const SignoffResult g = signoff_link(*tech_, ctx, d);
  const LinkEstimate e = model_->evaluate(ctx, d);
  EXPECT_NEAR(e.output_slew, g.output_slew, 0.5 * g.output_slew);
}

// signoff_link ends each launch once the crossings it measures have all
// occurred. What it reports must equal the full-window measurement of
// the same decks: every style, with an even (non-inverting) and an odd
// (inverting) repeater chain.
TEST(Signoff, MeasurementBoundedLaunchesMatchTheFullWindow) {
  const Technology& tech = technology(TechNode::N65);
  const SignoffOptions opt;
  constexpr double kEdgeStart = 50e-12;  // signoff_link's launch time
  for (const DesignStyle style :
       {DesignStyle::SingleSpacing, DesignStyle::DoubleSpacing, DesignStyle::Shielded}) {
    for (const int repeaters : {2, 3}) {
      LinkContext ctx = short_link(style);
      LinkDesign d;
      d.drive = 16;
      d.num_repeaters = repeaters;
      const bool inverted = repeaters % 2 == 1;

      // signoff_link's window, simulated in full.
      TransientOptions sim;
      sim.dt = opt.dt;
      sim.t_stop = kEdgeStart + ctx.input_slew +
                   3.0 * PamunuwaModel(tech).evaluate(ctx, d).delay + opt.window_margin;
      sim.t_settle = 2e-9;
      sim.settle_steps = 250;
      SignoffResult want;
      for (const bool rising : {true, false}) {
        const LinkNetlist net = build_link_netlist(tech, ctx, d, opt, rising);
        const TransientResult res =
            run_transient(net.circuit, sim, {net.victim_in, net.victim_out});
        const EdgeKind in_edge = rising ? EdgeKind::Rising : EdgeKind::Falling;
        const EdgeKind out_edge = rising != inverted ? EdgeKind::Rising : EdgeKind::Falling;
        const double delay = delay_50(res.time, res.trace(net.victim_in), in_edge,
                                      res.trace(net.victim_out), out_edge, tech.vdd);
        if (delay > want.delay) {
          want.delay = delay;
          want.output_slew =
              measure_slew(res.time, res.trace(net.victim_out), out_edge, tech.vdd);
          want.node_count = net.circuit.node_count();
        }
      }

      const SignoffResult got = signoff_link(tech, ctx, d, opt);
      const std::string where =
          design_style_name(style) + " x" + std::to_string(repeaters);
      EXPECT_EQ(got.delay, want.delay) << where;
      EXPECT_EQ(got.output_slew, want.output_slew) << where;
      EXPECT_EQ(got.node_count, want.node_count) << where;
    }
  }
}

// ----------------------------------------------------------------- AWE

TEST(Awe, TreeElmoreMatchesLadderFormula) {
  // Uniform ladder: tree m1 must equal the closed-form Elmore plus the
  // driver term R_drv * C_total.
  const double r = 500.0, c = 200 * fF, cl = 30 * fF, rd = 120.0;
  const int n = 8;
  RcTree tree(0.0);
  int node = 0;
  for (int k = 0; k < n; ++k)
    node = tree.add_node(node, r / n, c / n + (k + 1 == n ? cl : 0.0));
  const double expected = elmore_rc_ladder(r, c, cl, n) + rd * (c + cl);
  EXPECT_NEAR(tree.elmore(node, rd), expected, 1e-18);
}

TEST(Awe, TwoPoleMatchesTransientOnDrivenLine) {
  // Same configuration the engine was validated on (Sakurai check):
  // Rd = 105 ohm driving a distributed (220 ohm, 514 fF) line + 22 fF.
  const double d = awe_ladder_delay(105.0, 220.0, 514 * fF, 22 * fF, 20);
  // Golden transient measured ~87 ps for this line (driven by a fast
  // ramp); AWE two-pole should land within a few percent.
  EXPECT_NEAR(d, 87.0 * ps, 6.0 * ps);
}

TEST(Awe, SinglePoleExactForRc) {
  // One R, one C: m1 = RC, m2 = (RC)^2 -> b2 = 0 -> single-pole fallback
  // gives exactly RC ln 2.
  RcTree tree(0.0);
  const int node = tree.add_node(0, 1000.0, 1 * pF);
  const auto m = tree.moments(node, 0.0);
  EXPECT_NEAR(m.m1, 1 * ns, 1e-15);
  const double d = two_pole_delay(m.m1, m.m2, 0.5);
  EXPECT_NEAR(d, std::log(2.0) * ns, 0.01 * ns);
}

TEST(Awe, ThresholdMonotone) {
  const auto d20 = awe_ladder_delay(100.0, 300.0, 400 * fF, 10 * fF, 10, 0.2);
  const auto d50 = awe_ladder_delay(100.0, 300.0, 400 * fF, 10 * fF, 10, 0.5);
  const auto d80 = awe_ladder_delay(100.0, 300.0, 400 * fF, 10 * fF, 10, 0.8);
  EXPECT_LT(d20, d50);
  EXPECT_LT(d50, d80);
}

TEST(Awe, ValidationErrors) {
  RcTree tree(0.0);
  EXPECT_THROW(tree.add_node(5, 1.0, 0.0), Error);
  EXPECT_THROW(tree.add_node(0, -1.0, 0.0), Error);
  EXPECT_THROW(two_pole_delay(-1.0, 1.0, 0.5), Error);
  EXPECT_THROW(two_pole_delay(1.0, 1.0, 1.5), Error);
}

// Property: on random RC trees, the two-pole AWE delay tracks the full
// transient simulation — cross-validating the moment computation, the
// Pade match, AND the transient engine against each other.
class AweRandomTree : public ::testing::TestWithParam<int> {};

TEST_P(AweRandomTree, TwoPoleTracksTransient) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  const int extra_nodes = 4 + static_cast<int>(rng.next_below(12));
  const double r_drv = rng.uniform(50.0, 400.0);

  RcTree tree(rng.uniform(1.0, 20.0) * fF);
  Circuit ckt;
  const NodeId in = ckt.add_node();
  ckt.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
  std::vector<NodeId> ckt_node = {ckt.add_node()};
  ckt.add_resistor(in, ckt_node[0], r_drv);
  ckt.add_capacitor(ckt_node[0], ckt.ground(), 0.0);  // root cap added below

  std::vector<double> root_caps = {0.0};
  // Mirror the tree into a circuit as we grow it.
  {
    // root cap
    const double c0 = rng.uniform(1.0, 20.0) * fF;
    (void)c0;
  }
  // Rebuild deterministically: regenerate with same draws.
  // (Simpler: grow both structures together.)
  std::vector<int> tree_ids = {0};
  ckt.add_capacitor(ckt_node[0], ckt.ground(), 1.0 * fF);
  tree.add_cap(0, 1.0 * fF);
  int deepest_tree = 0;
  NodeId deepest_ckt = ckt_node[0];
  // Even seeds: random chains (the two-pole match is tight there).
  // Odd seeds: random branchy trees, where Pade(0,2) has no zeros to
  // match and is known to be pessimistic — checked with a loose bound.
  const bool branchy = (GetParam() % 2) == 1;
  for (int k = 0; k < extra_nodes; ++k) {
    const size_t parent = branchy ? rng.next_below(tree_ids.size()) : tree_ids.size() - 1;
    const double r = rng.uniform(50.0, 500.0);
    const double c = rng.uniform(5.0, 80.0) * fF;
    const int t = tree.add_node(tree_ids[parent], r, c);
    const NodeId n = ckt.add_node();
    ckt.add_resistor(ckt_node[parent], n, r);
    ckt.add_capacitor(n, ckt.ground(), c);
    tree_ids.push_back(t);
    ckt_node.push_back(n);
    deepest_tree = t;
    deepest_ckt = n;
  }

  const RcTree::Moments m = tree.moments(deepest_tree, r_drv);
  const double awe = two_pole_delay(m.m1, m.m2, 0.5);

  TransientOptions sim;
  sim.dt = std::max(0.05 * ps, awe / 2000.0);
  sim.t_stop = 10.0 * awe + 20.0 * ps;
  const TransientResult res = run_transient(ckt, sim, {deepest_ckt});
  const double golden =
      crossing_time(res.time, res.trace(deepest_ckt), 0.5, EdgeKind::Rising) - 0.5 * ps;

  if (branchy) {
    // No zeros in the Pade(0,2) match: far nodes on branchy trees read
    // pessimistic. The property that matters is bounded, never-optimistic
    // behavior.
    EXPECT_GE(awe, 0.85 * golden) << "seed " << GetParam();
    EXPECT_LE(awe, 2.5 * golden) << "seed " << GetParam();
  } else {
    EXPECT_NEAR(awe, golden, 0.12 * golden + 0.5 * ps) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AweRandomTree, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------- NLDM timer

TEST_F(StaFixture, NldmTimerTracksGolden) {
  // Characterize the exact cell the timer will look up.
  CharacterizationOptions copt;
  copt.drives = {8};
  copt.buffers = false;
  const CellLibrary lib = characterize_library(*tech_, copt);

  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 2 * mm;
  LinkDesign d;
  d.drive = 8;
  d.num_repeaters = 2;
  const NldmTimerResult timed = nldm_link_delay(lib, *tech_, ctx, d);
  const double golden = signoff_link(*tech_, ctx, d).delay;
  EXPECT_NEAR(timed.delay, golden, 0.35 * golden);
  EXPECT_GT(timed.output_slew, 0.0);

  // The scaled-Elmore flavor lands close to the two-pole match on
  // repeatered (short-segment) wires.
  NldmTimerOptions elm;
  elm.wire = WireDelayMethod::Elmore;
  EXPECT_NEAR(nldm_link_delay(lib, *tech_, ctx, d, elm).delay, timed.delay,
              0.15 * timed.delay);

  // Missing drive strength: tables cannot extrapolate.
  LinkDesign missing = d;
  missing.drive = 64;
  EXPECT_THROW(nldm_link_delay(lib, *tech_, ctx, missing), Error);
}

// ---------------------------------------------------------------- noise

TEST_F(StaFixture, NoiseGrowsWithSegmentLength) {
  LinkDesign d;
  d.drive = 12;
  d.num_repeaters = 1;
  double prev_golden = 0.0;
  double prev_model = 0.0;
  for (double seg_mm : {0.4, 1.0, 2.0}) {
    LinkContext ctx = short_link(DesignStyle::SingleSpacing);
    ctx.length = seg_mm * mm;
    const double g = golden_noise_peak(*tech_, ctx, d);
    const double m = noise_peak_model(*tech_, *fit_, ctx, d);
    EXPECT_GT(g, prev_golden);
    EXPECT_GT(m, prev_model);
    prev_golden = g;
    prev_model = m;
  }
  // Glitches on minimum-pitch wiring are a sizable fraction of vdd.
  EXPECT_GT(prev_golden, 0.1 * tech_->vdd);
  EXPECT_LT(prev_golden, 0.5 * tech_->vdd);
}

TEST_F(StaFixture, ShieldingKillsNoise) {
  LinkContext ctx = short_link(DesignStyle::Shielded);
  ctx.length = 1.0 * mm;
  LinkDesign d;
  d.drive = 12;
  d.num_repeaters = 1;
  EXPECT_DOUBLE_EQ(noise_peak_model(*tech_, *fit_, ctx, d), 0.0);
  // Golden: no neighbors exist at all in the shielded bundle.
  EXPECT_LT(golden_noise_peak(*tech_, ctx, d), 0.02 * tech_->vdd);
}

TEST_F(StaFixture, NoiseCalibrationTracksGolden) {
  const NoiseCalibration cal = calibrate_noise(*tech_, *fit_);
  EXPECT_GT(cal.kappa_n, 0.3);
  EXPECT_LT(cal.kappa_n, 1.5);
  EXPECT_LT(cal.worst_rel_error, 0.4);
  // Off-training point.
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 1.3 * mm;
  LinkDesign d;
  d.drive = 12;
  d.num_repeaters = 1;
  const double g = golden_noise_peak(*tech_, ctx, d);
  const double m = noise_peak_model(*tech_, *fit_, ctx, d, cal.kappa_n);
  EXPECT_NEAR(m, g, 0.3 * g);
}

TEST_F(StaFixture, NoisePerSegmentOnly) {
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  LinkDesign d;
  d.num_repeaters = 3;
  EXPECT_THROW(golden_noise_peak(*tech_, ctx, d), Error);
}

TEST_F(StaFixture, StrongerHolderReducesNoise) {
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 1.0 * mm;
  LinkDesign weak;
  weak.drive = 4;
  weak.num_repeaters = 1;
  LinkDesign strong = weak;
  strong.drive = 32;
  EXPECT_LT(golden_noise_peak(*tech_, ctx, strong), golden_noise_peak(*tech_, ctx, weak));
  EXPECT_LT(noise_peak_model(*tech_, *fit_, ctx, strong),
            noise_peak_model(*tech_, *fit_, ctx, weak));
}

// ---------------------------------------------------- coefficient files

TEST_F(StaFixture, CoeffsRoundTripExactly) {
  const TechnologyFit r = parse_fit(write_fit(*fit_));
  EXPECT_EQ(r.node, fit_->node);
  EXPECT_DOUBLE_EQ(r.vdd, fit_->vdd);
  EXPECT_DOUBLE_EQ(r.gamma, fit_->gamma);
  EXPECT_DOUBLE_EQ(r.comp_coupled.kappa_c, fit_->comp_coupled.kappa_c);
  EXPECT_DOUBLE_EQ(r.comp_shielded.kappa_w, fit_->comp_shielded.kappa_w);
  EXPECT_DOUBLE_EQ(r.comp_shielded.worst_rel_error, fit_->comp_shielded.worst_rel_error);
  EXPECT_DOUBLE_EQ(r.inv_rise.rho0, fit_->inv_rise.rho0);
  EXPECT_DOUBLE_EQ(r.inv_fall.b2, fit_->inv_fall.b2);
  EXPECT_DOUBLE_EQ(r.buf_rise.a2, fit_->buf_rise.a2);
  EXPECT_DOUBLE_EQ(r.leakage.p1, fit_->leakage.p1);
  EXPECT_DOUBLE_EQ(r.area1, fit_->area1);
}

TEST_F(StaFixture, CoeffsRejectMalformedInput) {
  EXPECT_THROW(parse_fit(""), Error);
  EXPECT_THROW(parse_fit("coefficients \"65nm\" {\n vdd 1\n"), Error);
  std::string text = write_fit(*fit_);
  const size_t pos = text.find("gamma");
  text.erase(pos, text.find('\n', pos) - pos + 1);
  EXPECT_THROW(parse_fit(text), Error);
}

TEST_F(StaFixture, CalibratedFitCacheHitsAndValidates) {
  const std::string path = testing::TempDir() + "/pim_fit_cache.coeffs";
  save_fit(*fit_, path);
  // Cache hit: returns without re-characterizing (instant).
  const TechnologyFit cached = calibrated_fit(TechNode::N65, path);
  EXPECT_DOUBLE_EQ(cached.gamma, fit_->gamma);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pim
