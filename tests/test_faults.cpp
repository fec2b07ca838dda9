// Fault-injection matrix: arms each site of the deterministic harness
// (util/faultinject) and asserts both the failure surface (typed errors
// with the right codes) and the recovery guardrails — transient timestep
// halving, LU equilibration, Monte-Carlo sample skipping, charlib sweep
// degradation, and the cosi mesh fallback.
//
// Every test disarms the harness on entry and exit via the fixture so
// injection state never leaks between cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "cache/store.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "cosi/mesh.hpp"
#include "cosi/synthesis.hpp"
#include "exec/engine.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "spice/deck.hpp"
#include "spice/measure.hpp"
#include "spice/transient.hpp"
#include "sta/calibrated.hpp"
#include "sta/signoff.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

namespace pim {
namespace {

using namespace pim::unit;

class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    obs::registry().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    fault::clear();
    obs::set_enabled(false);
    obs::registry().reset();
  }
};

// ------------------------------------------------------------------ rc

// The canonical RC step-response circuit from test_spice: linear, so any
// Newton failure below is the harness's doing.
TransientResult run_rc(const TransientOptions& opt, NodeId* out_node) {
  Circuit c;
  const NodeId in = c.add_node("in");
  const NodeId out = c.add_node("out");
  c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
  c.add_resistor(in, out, 1.0 * kohm);
  c.add_capacitor(out, c.ground(), 1.0 * pF);
  if (out_node != nullptr) *out_node = out;
  return run_transient(c, opt, {out});
}

TEST_F(FaultFixture, NewtonAlwaysDivergingExhaustsHalvings) {
  fault::configure("newton.diverge:1");
  TransientOptions opt;
  opt.t_stop = 0.1 * ns;
  try {
    run_rc(opt, nullptr);
    FAIL() << "expected no_convergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::no_convergence);
    EXPECT_NE(std::string(e.what()).find("halvings"), std::string::npos);
  }
  EXPECT_GT(fault::fired_count(fault::kNewtonDiverge), 0);
  EXPECT_GT(obs::registry().counter("spice.transient.error").value(), 0);
}

TEST_F(FaultFixture, TimestepHalvingRecoversSporadicDivergence) {
  TransientOptions opt;
  opt.t_stop = 4.0 * ns;
  opt.dt = 1.0 * ps;
  NodeId out = 0;
  const TransientResult clean = run_rc(opt, &out);
  const double t50_clean =
      crossing_time(clean.time, clean.trace(out), 0.5, EdgeKind::Rising);

  fault::configure("newton.diverge:0.02:3");
  const TransientResult faulty = run_rc(opt, &out);
  EXPECT_GT(fault::fired_count(fault::kNewtonDiverge), 0);
  EXPECT_GT(obs::registry().counter("spice.newton.retries").value(), 0);
  for (double v : faulty.trace(out)) ASSERT_TRUE(std::isfinite(v));
  // The halved re-steps must not disturb the solution: same RC answer.
  const double t50_faulty =
      crossing_time(faulty.time, faulty.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50_faulty, t50_clean, 0.02 * t50_clean);
}

TEST_F(FaultFixture, SingularSolverInTransientRetriesAtSmallerStep) {
  TransientOptions opt;
  opt.t_stop = 4.0 * ns;
  opt.dt = 1.0 * ps;
  fault::configure("lu.singular:0.05:7");
  NodeId out = 0;
  const TransientResult res = run_rc(opt, &out);
  EXPECT_GT(fault::fired_count(fault::kLuSingular), 0);
  EXPECT_GT(obs::registry().counter("spice.solver.singular").value(), 0);
  EXPECT_GT(obs::registry().counter("numeric.lu.error").value(), 0);
  const double t50 = crossing_time(res.time, res.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50, 1.0 * ns * std::log(2.0), 0.03 * ns);
}

// ------------------------------------------------------------------ lu

TEST_F(FaultFixture, LuInjectionIsDeterministicPerSeed) {
  Matrix a(3, 3);
  a(0, 0) = 4.0; a(0, 1) = 1.0; a(0, 2) = 0.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0; a(1, 2) = 1.0;
  a(2, 0) = 0.0; a(2, 1) = 1.0; a(2, 2) = 2.0;

  auto run_pattern = [&] {
    std::vector<bool> failed;
    for (int i = 0; i < 40; ++i)
      failed.push_back(!LuDecomposition::create(a).ok());
    return failed;
  };
  fault::configure("lu.singular:0.5:42");
  const std::vector<bool> first = run_pattern();
  const int64_t fired_first = fault::fired_count(fault::kLuSingular);
  fault::configure("lu.singular:0.5:42");
  EXPECT_EQ(run_pattern(), first);
  EXPECT_EQ(fault::fired_count(fault::kLuSingular), fired_first);
  EXPECT_GT(fired_first, 0);
  // fault counter mirrors fired_count when metrics are on.
  EXPECT_EQ(obs::registry().counter("fault.lu.singular.injected").value(),
            2 * fired_first);
}

TEST_F(FaultFixture, LuEquilibrationRescuesSingleFire) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const Vector b = {5.0, 10.0};

  // p = 0.5: some creates fire on the first attempt only, so the
  // equilibrated retry must rescue them and still solve correctly.
  fault::configure("lu.singular:0.5:9");
  int recovered = 0;
  int errored = 0;
  for (int i = 0; i < 60; ++i) {
    const Expected<LuDecomposition> lu = LuDecomposition::create(a);
    if (!lu.ok()) {
      ++errored;
      EXPECT_EQ(lu.error().code(), ErrorCode::singular_matrix);
      EXPECT_NE(std::string(lu.error().what()).find("[injected]"),
                std::string::npos);
      continue;
    }
    if (lu.value().equilibrated()) ++recovered;
    const Vector x = lu.value().solve(b);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
  }
  EXPECT_GT(recovered, 0);  // fired once, rescued
  EXPECT_GT(errored, 0);    // fired twice, surfaced
  EXPECT_EQ(obs::registry().counter("numeric.lu.recovered").value(), recovered);
  EXPECT_GE(obs::registry().counter("numeric.lu.error").value(), errored);
}

// ---------------------------------------------------------------- deck

TEST_F(FaultFixture, DeckParseFaultSurfacesAsIoParse) {
  Circuit c;
  const NodeId a = c.add_node("a");
  c.add_vsource(a, Waveform::dc(1.0));
  const std::string text = write_deck(c);
  EXPECT_NO_THROW(parse_deck(text));

  fault::configure("deck.parse:1");
  try {
    parse_deck(text);
    FAIL() << "expected io_parse";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_parse);
  }
  EXPECT_GT(fault::fired_count(fault::kDeckParse), 0);
}

TEST_F(FaultFixture, IoOpenFaultFailsSaveAndLoad) {
  Circuit c;
  const NodeId a = c.add_node("a");
  c.add_vsource(a, Waveform::dc(1.0));
  const std::string path = ::testing::TempDir() + "pim_fault_deck.sp";
  save_deck(c, path);  // disarmed: works

  fault::configure("io.open:1");
  try {
    save_deck(c, path);
    FAIL() << "expected io_parse";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_parse);
  }
  EXPECT_THROW(load_deck(path), Error);
  EXPECT_GT(fault::fired_count(fault::kIoOpen), 0);

  fault::clear();
  EXPECT_NO_THROW(load_deck(path));
  std::remove(path.c_str());
}

// ----------------------------------------------------------- variation

// A hand-filled fit with representative magnitudes: the MC tests only
// need the closed-form evaluation to produce finite positive numbers,
// not to match a real technology.
TechnologyFit synthetic_fit(const Technology& tech) {
  TechnologyFit fit;
  fit.node = tech.node;
  fit.vdd = tech.vdd;
  RepeaterEdgeFit e;
  e.a0 = 5e-12;
  e.a1 = 0.05;
  e.rho0 = 2e-3;
  e.rho1 = 1e6;
  e.b0 = 2e-12;
  e.b1 = 0.3;
  e.b2 = 5e-4;
  fit.inv_rise = fit.inv_fall = fit.buf_rise = fit.buf_fall = e;
  fit.gamma = 7e-10;
  fit.leakage.n0 = fit.leakage.p0 = 1e-9;
  fit.leakage.n1 = fit.leakage.p1 = 1e-2;
  fit.area0 = 1e-12;
  fit.area1 = 1e-6;
  return fit;
}

TEST_F(FaultFixture, MonteCarloSkipsFailedSamples) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;

  const MonteCarloResult clean = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_EQ(clean.failed_samples, 0);
  ASSERT_EQ(clean.delays.size(), 200u);

  fault::configure("variation.sample:0.25:13");
  const MonteCarloResult mc = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_GT(mc.failed_samples, 0);
  EXPECT_LT(mc.failed_samples, 200);
  EXPECT_EQ(mc.delays.size() + static_cast<size_t>(mc.failed_samples), 200u);
  EXPECT_EQ(obs::registry().counter("variation.sample.error").value(),
            mc.failed_samples);
  // Surviving statistics stay well-formed.
  EXPECT_TRUE(std::isfinite(mc.mean_delay));
  EXPECT_GT(mc.mean_delay, 0.0);
  EXPECT_TRUE(std::isfinite(mc.mean_power));

  // Exactly one draw per sample: the failure pattern is seed-deterministic.
  fault::configure("variation.sample:0.25:13");
  const MonteCarloResult again = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_EQ(again.failed_samples, mc.failed_samples);

  fault::configure("variation.sample:1");
  EXPECT_THROW(monte_carlo_link(model, ctx, design, 50, 5), Error);
}

TEST_F(FaultFixture, WithinDieMonteCarloAlsoDegrades) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 4;

  fault::configure("variation.sample:0.2:21");
  const MonteCarloResult mc = monte_carlo_link_within_die(model, ctx, design, 150, 5);
  EXPECT_GT(mc.failed_samples, 0);
  EXPECT_EQ(mc.delays.size() + static_cast<size_t>(mc.failed_samples), 150u);
}

// -------------------------------------------------------- nested regions

TEST_F(FaultFixture, NestedRegionItemsDeriveTheirStreamsFromTheEnclosingItem) {
  // Each outer item runs a nested 4-item region. The nested items draw
  // substreams of the outer item's stream, so the outer items see
  // different inner patterns, identically at any thread count.
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 4;
  const auto pattern = [&](int t) {
    fault::configure("variation.sample:0.5:9");
    std::vector<char> fired(kOuter * kInner, 0);
    exec::parallel_for(
        kOuter,
        [&](size_t i) {
          exec::parallel_for(kInner, [&](size_t j) {
            fired[i * kInner + j] = fault::should_fire(fault::kVariationSample) ? 1 : 0;
          });
        },
        {.threads = t});
    return fired;
  };
  const std::vector<char> serial = pattern(1);
  for (int t : {2, 8}) EXPECT_EQ(pattern(t), serial) << "threads=" << t;
  bool differs = false;
  for (size_t i = 1; i < kOuter; ++i)
    differs = differs || !std::equal(serial.begin() + i * kInner,
                                     serial.begin() + (i + 1) * kInner, serial.begin());
  EXPECT_TRUE(differs) << "every outer item repeated item 0's inner pattern";
}

TEST_F(FaultFixture, GoldenSignoffUnderLuFaultsIsDeterministicPerChain) {
  // lu.singular armed over a small set of golden links, run two ways:
  // back to back at top level, as direct golden evaluates run, and as the
  // items of one region, as composition calibration runs its chains (and
  // run_batch its items). Both are identical at 1 and 4 threads. In the
  // region each chain's two launches draw substreams of the chain's
  // stream, so identical chains still see different faults.
  const Technology& tech = technology(TechNode::N65);
  LinkContext ctx;
  ctx.style = DesignStyle::Shielded;
  ctx.length = 1 * mm;
  ctx.input_slew = 100 * ps;
  LinkDesign design;
  design.drive = 16;
  design.num_repeaters = 1;
  constexpr size_t kLinks = 4;
  const std::string spec = "lu.singular:0.002:17";

  struct Outcome {
    double delay = 0.0;  // 0 when the sign-off failed
    int64_t fired = 0;   // lu.singular fires during this link
    bool operator==(const Outcome&) const = default;
  };
  const auto one = [&] {
    const int64_t before = fault::fired_count(fault::kLuSingular);
    Outcome o;
    try {
      o.delay = signoff_link(tech, ctx, design).delay;
    } catch (const Error&) {
    }
    o.fired = fault::fired_count(fault::kLuSingular) - before;
    return o;
  };
  const auto batch = [&](int t) {
    exec::set_threads(t);
    fault::configure(spec);
    std::vector<Outcome> out;
    for (size_t i = 0; i < kLinks; ++i) out.push_back(one());
    return out;
  };
  // At one thread the chains run one after another, so each chain's
  // fire count is its own; with more threads only the total is.
  const auto chains = [&](int t, int64_t* total) {
    exec::set_threads(t);
    fault::configure(spec);
    const std::vector<Outcome> out =
        exec::parallel_map<Outcome>(kLinks, [&](size_t) { return one(); });
    *total = fault::fired_count(fault::kLuSingular);
    return out;
  };

  const std::vector<Outcome> serial_batch = batch(1);
  EXPECT_EQ(batch(4), serial_batch);
  int64_t batch_fired = 0;
  for (const Outcome& o : serial_batch) batch_fired += o.fired;
  EXPECT_GT(batch_fired, 0) << "raise the probability: nothing fired";

  int64_t serial_total = 0;
  int64_t threaded_total = 0;
  const std::vector<Outcome> serial_chains = chains(1, &serial_total);
  const std::vector<Outcome> threaded_chains = chains(4, &threaded_total);
  EXPECT_EQ(threaded_total, serial_total);
  for (size_t i = 0; i < kLinks; ++i)
    EXPECT_EQ(threaded_chains[i].delay, serial_chains[i].delay) << "chain " << i;
  bool differs = false;
  for (size_t i = 1; i < kLinks; ++i)
    differs = differs || !(serial_chains[i] == serial_chains[0]);
  EXPECT_TRUE(differs) << "every chain saw chain 0's faults";
  exec::set_threads(0);
}

TEST_F(FaultFixture, GoldenBatchUnderLuFaultsIsBitIdenticalAtAnyThreadCount) {
  // run_batch runs its items as one region: each item's two sign-off
  // launches draw substreams of the item's stream, wherever and in
  // whatever order the items run. The fit comes from a reduced-deck
  // coefficient file, computed before the harness is armed.
  cache::set_mode(cache::Mode::Off);
  const std::string coeffs = ::testing::TempDir() + "pim_faults_golden_batch.pimfit";
  {
    CharacterizationOptions copt;
    copt.drives = {2, 8, 32};
    copt.buffers = false;
    CompositionOptions comp;
    comp.drives = {8, 32};
    comp.segment_lengths = {0.5e-3, 1.5e-3};
    comp.input_slews = {50e-12, 300e-12};
    comp.chain_lengths = {1, 3};
    save_fit(calibrated_fit(TechNode::N65, "", copt, comp), coeffs);
  }
  api::BatchRequest batch;
  for (int i = 0; i < 4; ++i) {
    api::LinkEvalRequest req;
    req.link.tech = "65nm";
    req.link.style = "SH";
    req.link.length_mm = 1.0;
    req.link.drive = 16;
    req.link.repeaters = 1;
    req.link.coeffs_path = coeffs;
    req.golden = true;
    batch.items.emplace_back(req);
  }
  const auto run = [&](int t, int64_t* fired) {
    exec::set_threads(t);
    fault::configure("lu.singular:0.002:17");
    const Expected<api::BatchResult> out = api::run_batch(batch);
    *fired = fault::fired_count(fault::kLuSingular);
    std::vector<std::string> texts;
    if (!out.ok()) return texts;
    for (const Expected<api::AnyResult>& item : out.value().items)
      texts.push_back(item.ok() ? api::wire::to_json(std::get<api::LinkEvalResult>(item.value()))
                                : api::wire::error_to_json(item.error()));
    return texts;
  };
  int64_t serial_fired = 0, threaded_fired = 0;
  const std::vector<std::string> serial = run(1, &serial_fired);
  const std::vector<std::string> threaded = run(4, &threaded_fired);
  ASSERT_EQ(serial.size(), batch.items.size());
  EXPECT_EQ(threaded, serial);
  EXPECT_EQ(threaded_fired, serial_fired);
  EXPECT_GT(serial_fired, 0) << "raise the probability: nothing fired";
  exec::set_threads(0);
  cache::reset_mode();
  std::filesystem::remove(coeffs);
}

// ------------------------------------------------------------- charlib

TEST_F(FaultFixture, CharacterizationQuorumFailureIsTyped) {
  fault::configure("newton.diverge:1");
  CharacterizationOptions opt;
  opt.slew_axis = {20 * ps, 100 * ps};
  opt.fanout_axis = {2.0, 8.0};
  try {
    characterize_cell(technology(TechNode::N65), CellKind::Inverter, 8, opt);
    FAIL() << "expected no_convergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::no_convergence);
  }
}

// ---------------------------------------------------------------- cosi

TEST_F(FaultFixture, InfeasibleSynthesisFallsBackToMesh) {
  SocSpec spec;
  spec.name = "tiny";
  spec.die_width = 4 * mm;
  spec.die_height = 4 * mm;
  spec.data_width = 32;
  spec.cores = {{"a", 0.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"b", 3.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"c", 2.0 * mm, 3.5 * mm, 0.5 * mm, 0.5 * mm}};
  spec.flows = {{0, 1, 2e9}, {1, 2, 1e9}, {0, 2, 0.5e9}};

  const BakogluModel model(technology(TechNode::N65));
  NocSynthesisOptions opt;
  opt.delay_budget_fraction = 1e-4;  // no wire length can meet this
  const NocSynthesisResult r = synthesize_noc(spec, model, opt);
  EXPECT_EQ(obs::registry().counter("cosi.synthesis.mesh_fallback").value(), 1);
  EXPECT_GT(obs::registry().counter("cosi.synthesis.error").value(), 0);
  EXPECT_GT(r.architecture.router_count(), 0);  // the mesh got built
}

// ------------------------------------------------------------ parsing

TEST_F(FaultFixture, SpecParsingRejectsGarbage) {
  try {
    fault::configure("lu.sungular:0.5");  // typo'd site
    FAIL() << "expected bad_input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
  EXPECT_THROW(fault::configure("lu.singular:1.5"), Error);   // prob > 1
  EXPECT_THROW(fault::configure("lu.singular:-0.1"), Error);  // prob < 0
  EXPECT_THROW(fault::configure("lu.singular:abc"), Error);
  EXPECT_THROW(fault::configure(""), Error);
  EXPECT_FALSE(fault::armed());  // failed configure leaves harness off

  EXPECT_NO_THROW(fault::configure("lu.singular:0.5:7,deck.parse"));
  EXPECT_TRUE(fault::armed());
  for (const std::string& site : fault::known_sites())
    EXPECT_NO_THROW(fault::configure(site));
}

// ------------------------------------------------------------- hygiene

TEST_F(FaultFixture, ClearDisarmsEverySite) {
  fault::configure("lu.singular:1,newton.diverge:1,deck.parse:1");
  EXPECT_TRUE(fault::armed());
  fault::clear();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_fire(fault::kLuSingular));
  EXPECT_EQ(fault::fired_count(fault::kLuSingular), 0);
}

}  // namespace
}  // namespace pim
