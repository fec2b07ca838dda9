#include "spice/measure.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pim {
namespace {

// The threshold levels of the delay and slew conventions, shared by the
// measurements and by delay_slew_crossings so the two cannot drift.
double delay_level(double swing) { return 0.5 * swing; }
double slew_low_level(double swing) { return 0.2 * swing; }
double slew_high_level(double swing) { return 0.8 * swing; }

}  // namespace

double crossing_time(const std::vector<double>& time, const std::vector<double>& values,
                     double level, EdgeKind edge) {
  require(time.size() == values.size(), "crossing_time: size mismatch",
          ErrorCode::bad_input);
  require(time.size() >= 2, "crossing_time: need at least two samples",
          ErrorCode::bad_input);
  require(std::isfinite(level), "crossing_time: level must be finite",
          ErrorCode::bad_input);
  // NaN guard at the stage boundary: a non-finite sample means the solver
  // upstream diverged; surface it as a typed error instead of letting the
  // NaN propagate silently into downstream fits (NaN comparisons are all
  // false, so the scan below would report "never crosses").
  require(std::isfinite(values[0]), "crossing_time: non-finite sample at index 0",
          ErrorCode::bad_input);
  for (size_t i = 1; i < values.size(); ++i) {
    const double a = values[i - 1];
    const double b = values[i];
    require(std::isfinite(b),
            "crossing_time: non-finite sample at index " + std::to_string(i),
            ErrorCode::bad_input);
    if (!crosses(a, b, level, edge)) continue;
    const double f = (level - a) / (b - a);
    return time[i - 1] + f * (time[i] - time[i - 1]);
  }
  fail("crossing_time: waveform never crosses the level", ErrorCode::no_convergence);
}

double delay_50(const std::vector<double>& time, const std::vector<double>& input,
                EdgeKind input_edge, const std::vector<double>& output,
                EdgeKind output_edge, double swing) {
  require(swing > 0.0 && std::isfinite(swing), "delay_50: swing must be positive and finite",
          ErrorCode::bad_input);
  const double t_in = crossing_time(time, input, delay_level(swing), input_edge);
  const double t_out = crossing_time(time, output, delay_level(swing), output_edge);
  return t_out - t_in;
}

double measure_slew(const std::vector<double>& time, const std::vector<double>& values,
                    EdgeKind edge, double swing) {
  require(swing > 0.0 && std::isfinite(swing),
          "measure_slew: swing must be positive and finite", ErrorCode::bad_input);
  const double lo = slew_low_level(swing);
  const double hi = slew_high_level(swing);
  double t_lo, t_hi;
  if (edge == EdgeKind::Rising) {
    t_lo = crossing_time(time, values, lo, EdgeKind::Rising);
    t_hi = crossing_time(time, values, hi, EdgeKind::Rising);
  } else {
    t_hi = crossing_time(time, values, hi, EdgeKind::Falling);
    t_lo = crossing_time(time, values, lo, EdgeKind::Falling);
  }
  return std::fabs(t_hi - t_lo) / 0.6;
}

std::vector<Crossing> delay_slew_crossings(size_t input_probe, EdgeKind input_edge,
                                           size_t output_probe, EdgeKind output_edge,
                                           double swing) {
  return {{input_probe, delay_level(swing), input_edge},
          {output_probe, delay_level(swing), output_edge},
          {output_probe, slew_low_level(swing), output_edge},
          {output_probe, slew_high_level(swing), output_edge}};
}

}  // namespace pim
