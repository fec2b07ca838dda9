#include "sta/noise.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "charlib/characterize.hpp"
#include "exec/engine.hpp"
#include "models/baseline.hpp"
#include "numeric/regression.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace pim {

double golden_noise_peak(const Technology& tech, const LinkContext& ctx,
                         const LinkDesign& design, const SignoffOptions& options) {
  require(design.num_repeaters == 1,
          "golden_noise_peak: noise is analyzed per segment (one repeater)");

  SignoffOptions opt = options;
  opt.aggressors = AggressorMode::VictimQuiet;
  const LinkNetlist net = build_link_netlist(tech, ctx, design, opt, true);

  // Window: the aggressor edge plus its settling.
  const double estimate = PamunuwaModel(tech).evaluate(ctx, design).delay;
  TransientOptions sim;
  sim.dt = opt.dt;
  sim.t_stop = 50e-12 + ctx.input_slew + 4.0 * estimate + opt.window_margin;
  sim.t_settle = 2e-9;
  sim.settle_steps = 250;
  sim.integrate_sources = false;  // only the victim trace is measured
  const TransientResult res = run_transient(net.circuit, sim, {net.victim_out});

  // The quiet victim wire sits at vdd; the glitch is the dip below it.
  const auto& trace = res.trace(net.victim_out);
  const double v_rest = trace.front();
  double worst = 0.0;
  for (double v : trace) worst = std::max(worst, v_rest - v);
  return worst;
}

double noise_peak_model(const Technology& tech, const TechnologyFit& fit,
                        const LinkContext& ctx, const LinkDesign& design,
                        double kappa_n) {
  const LinkGeometry g(tech, ctx, design);
  if (g.seg_cap_couple_total <= 0.0) return 0.0;

  const RepeaterSizing sz = repeater_sizing(tech, design.kind, design.drive);
  const double ci = fit.gamma * (sz.wn_out + sz.wp_out);
  const double c_self = sz.wn_out * tech.nmos.c_drain + sz.wp_out * tech.pmos.c_drain;
  const double c_total = g.seg_cap_couple_total + g.seg_cap_ground + ci + c_self;

  // Charge divider, attenuated by the holder: the far end of the victim
  // is held through the holder device PLUS half the distributed wire
  // resistance, so longer segments are held more weakly and glitch
  // harder. tau_v competes with the aggressor transition constant tau_a.
  const RepeaterEdgeFit& f = fit.edge_fit(design.kind, true);  // holder is the PMOS
  const double r_hold = f.rho0 / sz.wp_out + 0.5 * g.seg_res;
  const double tau_v = r_hold * c_total;
  const double slew_agg =
      fit.edge_fit(design.kind, false)
          .eval_out_slew(ctx.input_slew, c_total, sz.wn_out);
  const double tau_a = slew_agg / 2.2;
  const double attenuation = tau_v / (tau_v + tau_a);

  return kappa_n * tech.vdd * (g.seg_cap_couple_total / c_total) * attenuation;
}

NoiseCalibration calibrate_noise(const Technology& tech, const TechnologyFit& fit) {
  std::vector<std::pair<LinkContext, LinkDesign>> decks;
  for (int drive : {8, 20}) {
    for (double seg : {0.4e-3, 1.0e-3, 1.8e-3}) {
      LinkContext ctx;
      ctx.length = seg;
      ctx.input_slew = 100e-12;
      LinkDesign d;
      d.kind = CellKind::Inverter;
      d.drive = drive;
      d.num_repeaters = 1;
      decks.emplace_back(ctx, d);
    }
  }
  const Vector golden = exec::parallel_map<double>(decks.size(), [&](size_t i) {
    return golden_noise_peak(tech, decks[i].first, decks[i].second);
  });
  Vector raw;
  for (const auto& [ctx, d] : decks) raw.push_back(noise_peak_model(tech, fit, ctx, d, 1.0));
  NoiseCalibration cal;
  cal.kappa_n = fit_linear_zero_intercept(raw, golden).slope;
  double worst = 0.0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (golden[i] < 1e-6) continue;
    worst = std::max(worst, std::fabs(cal.kappa_n * raw[i] - golden[i]) / golden[i]);
  }
  cal.worst_rel_error = worst;
  return cal;
}

}  // namespace pim
