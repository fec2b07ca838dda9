// Waveform measurements: threshold crossings, 50 % delay, slew.
//
// Conventions (used consistently by characterization, models, and
// sign-off): delay is measured between 50 %-of-swing crossings, and slew
// is the 20 %-80 % crossing interval scaled by 1/0.6 to a full-swing
// equivalent ramp time — the same convention used to *drive* inputs, so a
// measured slew can be fed back in as an input slew.
#pragma once

#include <cstddef>
#include <vector>

namespace pim {

/// Edge direction of interest.
enum class EdgeKind { Rising, Falling };

/// True when the sample pair (a, b) crosses `level` in the direction
/// `edge`: the predicate crossing_time applies to each consecutive pair.
inline bool crosses(double a, double b, double level, EdgeKind edge) {
  return edge == EdgeKind::Rising ? (a < level && b >= level) : (a > level && b <= level);
}

/// One threshold crossing a caller will measure on a transient trace:
/// `probe` is the trace's position in the run's probe list.
struct Crossing {
  size_t probe = 0;
  double level = 0.0;
  EdgeKind edge = EdgeKind::Rising;
};

/// First time `values` crosses `level` in the direction `edge`, linearly
/// interpolated between samples. Throws pim::Error if it never crosses.
double crossing_time(const std::vector<double>& time, const std::vector<double>& values,
                     double level, EdgeKind edge);

/// 50 %-to-50 % delay from an input edge to an output edge (edges may have
/// opposite polarity, as through an inverter). `swing` is the full voltage
/// swing (vdd).
double delay_50(const std::vector<double>& time, const std::vector<double>& input,
                EdgeKind input_edge, const std::vector<double>& output,
                EdgeKind output_edge, double swing);

/// Full-swing-equivalent transition time of the edge: (t80 - t20) / 0.6.
double measure_slew(const std::vector<double>& time, const std::vector<double>& values,
                    EdgeKind edge, double swing);

/// Every crossing delay_50 and measure_slew read when measuring the
/// delay from the input probe's edge to the output probe's edge and the
/// output edge's slew: input 50 %, then output 50 %, 20 % and 80 %, at
/// exactly the levels those functions compute. A transient lane given
/// this list may stop once all of them have occurred (spice/batch.hpp).
std::vector<Crossing> delay_slew_crossings(size_t input_probe, EdgeKind input_edge,
                                           size_t output_probe, EdgeKind output_edge,
                                           double swing);

}  // namespace pim
