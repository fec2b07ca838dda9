#include "charlib/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "deadline/deadline.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/batch.hpp"
#include "spice/measure.hpp"
#include "spice/plan.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

constexpr double kEdgeStart = 20e-12;  // input edge launch time [s]
constexpr double kTailMargin = 1.2e-9; // window after the edge completes [s]

// Builds the cell under test: returns the circuit plus its pin nodes.
struct CellUnderTest {
  Circuit circuit;
  NodeId vdd = 0;
  NodeId in = 0;
  NodeId out = 0;
};

CellUnderTest build_cell(const Technology& tech, CellKind kind,
                         const RepeaterSizing& sz, const Waveform& input_wave) {
  CellUnderTest cut;
  cut.vdd = cut.circuit.add_node("vdd");
  cut.in = cut.circuit.add_node("in");
  cut.out = cut.circuit.add_node("out");
  cut.circuit.add_vsource(cut.vdd, Waveform::dc(tech.vdd));
  cut.circuit.add_vsource(cut.in, input_wave);
  if (kind == CellKind::Inverter) {
    cut.circuit.add_inverter(tech.devices(), sz.wn_out, sz.wp_out, cut.in, cut.out, cut.vdd);
  } else {
    const NodeId mid = cut.circuit.add_node("mid");
    cut.circuit.add_inverter(tech.devices(), sz.wn_in, sz.wp_in, cut.in, mid, cut.vdd);
    cut.circuit.add_inverter(tech.devices(), sz.wn_out, sz.wp_out, mid, cut.out, cut.vdd);
  }
  return cut;
}

TransientOptions sim_options(double slew, double dt_max) {
  TransientOptions opt;
  opt.dt = std::max(0.25e-12, std::min(dt_max, slew / 40.0));
  opt.t_stop = kEdgeStart + slew + kTailMargin;
  opt.t_settle = 0.5e-9;
  opt.settle_steps = 120;
  return opt;
}

// One (slew, load) timing measurement for the requested *output* edge.
struct TimingPoint {
  double delay;
  double out_slew;
};

// Output polarity follows the input for buffers and inverts for
// inverters.
bool input_rises_for(CellKind kind, EdgeKind out_edge) {
  return (kind == CellKind::Inverter) == (out_edge == EdgeKind::Falling);
}

Waveform input_ramp(const Technology& tech, bool input_rises, double slew) {
  const double v0 = input_rises ? 0.0 : tech.vdd;
  return Waveform::ramp(v0, tech.vdd - v0, kEdgeStart, slew);
}

TimingPoint extract_timing(const TransientResult& res, NodeId in, NodeId out,
                           EdgeKind out_edge, bool input_rises, double vdd) {
  const EdgeKind in_edge = input_rises ? EdgeKind::Rising : EdgeKind::Falling;
  TimingPoint pt;
  pt.delay = delay_50(res.time, res.trace(in), in_edge, res.trace(out),
                      out_edge, vdd);
  pt.out_slew = measure_slew(res.time, res.trace(out), out_edge, vdd);
  return pt;
}

// Scalar reference path: builds and solves one deck per (edge, slew,
// load) point with the original per-Mosfet engine. Kept for A/B
// verification against the batched path and as the charlib_sweep
// benchmark baseline.
TimingPoint measure_timing(const Technology& tech, CellKind kind,
                           const RepeaterSizing& sz, EdgeKind out_edge,
                           double slew, double load, double dt_max) {
  PIM_COUNT("charlib.deck.simulated");
  const bool input_rises = input_rises_for(kind, out_edge);
  CellUnderTest cut = build_cell(tech, kind, sz, input_ramp(tech, input_rises, slew));
  cut.circuit.add_capacitor(cut.out, cut.circuit.ground(), load);
  const TransientResult res = run_transient_reference(
      cut.circuit, sim_options(slew, dt_max), {cut.in, cut.out});
  return extract_timing(res, cut.in, cut.out, out_edge, input_rises, tech.vdd);
}

// Compiled measurement fixture, built once per cell: the deck is
// constructed and compiled a single time, and every (edge, slew, load)
// measurement re-stamps it through lane overrides instead of re-building
// the netlist (docs/kernels.md). The plan is immutable after compile and
// shared read-only across the sweep's exec workers.
struct CellFixture {
  CompiledCircuit plan;
  NodeId in = 0;
  NodeId out = 0;
  size_t input_vsource = 1;  ///< vsources: vdd first, input second
  size_t load_cap = 0;       ///< placeholder load, overridden per lane
};

CellFixture compile_cell(const Technology& tech, CellKind kind,
                         const RepeaterSizing& sz) {
  // Placeholder input wave and load value: every lane overrides both, so
  // the nominal values never reach a solve. The load capacitor is
  // appended last, exactly where measure_timing adds it, keeping the
  // stamp emission order — and therefore every result bit — identical to
  // a deck built directly for the point.
  CellUnderTest cut = build_cell(tech, kind, sz, Waveform::dc(0.0));
  cut.circuit.add_capacitor(cut.out, cut.circuit.ground(), 1e-15);
  CellFixture fx;
  fx.in = cut.in;
  fx.out = cut.out;
  fx.load_cap = cut.circuit.capacitors().size() - 1;
  fx.plan = CompiledCircuit::compile(cut.circuit, TransientOptions{}.band_threshold);
  return fx;
}

// Both output edges of one (slew, load) operating point. Each edge
// carries its own outcome so the rise and fall tables keep independent
// failure bookkeeping (and independent quorums) even though they now
// share one simulation batch.
struct EdgeOutcome {
  std::optional<TimingPoint> point;
  std::optional<Error> error;
};
struct PointOutcome {
  EdgeOutcome rise, fall;
};

constexpr EdgeKind kTableEdges[2] = {EdgeKind::Rising, EdgeKind::Falling};

PointOutcome measure_point(const Technology& tech, CellKind kind,
                           const RepeaterSizing& sz, const CellFixture* fx,
                           double slew, double load, double dt_max) {
  PointOutcome out;
  EdgeOutcome* edges[2] = {&out.rise, &out.fall};
  if (fx == nullptr) {  // scalar reference engine
    for (int e = 0; e < 2; ++e) {
      try {
        edges[e]->point =
            measure_timing(tech, kind, sz, kTableEdges[e], slew, load, dt_max);
      } catch (const Error& err) {
        edges[e]->error = err;
      }
    }
    return out;
  }
  // Batched path: both edges of the point ride one two-lane lockstep
  // batch over the cell's compiled plan (rise lane first, matching the
  // table order). A lane failure is typed and isolated, so one edge can
  // fail while its sibling survives.
  std::vector<LaneSpec> lanes(2);
  bool in_rises[2];
  for (int e = 0; e < 2; ++e) {
    PIM_COUNT("charlib.deck.simulated");
    in_rises[e] = input_rises_for(kind, kTableEdges[e]);
    lanes[e].vsource_wave.emplace_back(fx->input_vsource,
                                       input_ramp(tech, in_rises[e], slew));
    lanes[e].cap_farads.emplace_back(fx->load_cap, load);
    // extract_timing reads only these first crossings of the lane's
    // traces (probes: 0 = in, 1 = out), so the lane ends at the last.
    lanes[e].stop_after =
        delay_slew_crossings(0, in_rises[e] ? EdgeKind::Rising : EdgeKind::Falling, 1,
                             kTableEdges[e], tech.vdd);
  }
  TransientBatch batch = run_transient_batch(fx->plan, sim_options(slew, dt_max),
                                             {fx->in, fx->out}, lanes);
  for (int e = 0; e < 2; ++e) {
    try {
      const TransientResult res = std::move(batch.lanes[e]).take();
      edges[e]->point = extract_timing(res, fx->in, fx->out, kTableEdges[e],
                                       in_rises[e], tech.vdd);
    } catch (const Error& err) {
      edges[e]->error = err;
    }
  }
  return out;
}

// Input capacitance: charge the input source delivers over a full swing.
double measure_input_cap(const Technology& tech, CellKind kind,
                         const RepeaterSizing& sz, double dt_max) {
  PIM_COUNT("charlib.deck.simulated");
  const double slew = 100e-12;
  const Waveform input = Waveform::ramp(0.0, tech.vdd, kEdgeStart, slew);
  CellUnderTest cut = build_cell(tech, kind, sz, input);
  TransientOptions opt = sim_options(slew, dt_max);
  opt.t_stop = kEdgeStart + slew + 0.3e-9;
  const TransientResult res = run_transient(cut.circuit, opt, {});
  // vsources were added in order: vdd first, input second.
  const double q_in = res.sources[1].charge;
  return std::fabs(q_in) / tech.vdd;
}

struct SweepTables {
  TimingTable rise, fall;
};

SweepTables characterize_tables(const Technology& tech, CellKind kind,
                                const RepeaterSizing& sz, const Vector& slew_axis,
                                const Vector& load_axis, double dt_max,
                                double quorum, bool reference_engine) {
  PIM_OBS_SPAN("charlib.sweep.characterize");

  // The points are independent, so the (slew x load) sweep fans out over
  // the exec engine; results land by flattened index, which keeps both
  // tables — and the failure bookkeeping below — bit-identical at any
  // thread count. One exec item covers both output edges of its point
  // (a two-lane batch on the compiled plan), so the per-item deadline
  // draw pattern truncates the rise and fall tables at the same cutoff.
  std::optional<CellFixture> fixture;
  if (!reference_engine) fixture = compile_cell(tech, kind, sz);
  const size_t cols = load_axis.size();
  const auto batch = exec::parallel_try_map<PointOutcome>(
      slew_axis.size() * cols, [&](size_t idx) {
        return measure_point(tech, kind, sz, fixture ? &*fixture : nullptr,
                             slew_axis[idx / cols], load_axis[idx % cols], dt_max);
      });

  SweepTables out;
  TimingTable* tables[2] = {&out.rise, &out.fall};
  for (int e = 0; e < 2; ++e) {
    TimingTable& t = *tables[e];
    t.slew_axis = slew_axis;
    t.load_axis = load_axis;
    t.delay = Matrix(slew_axis.size(), load_axis.size());
    t.out_slew = Matrix(slew_axis.size(), load_axis.size());

    // Graceful degradation: a failed deck (Newton non-convergence,
    // singular system, injected fault) is skipped and recorded rather
    // than aborting the sweep; the fit only fails when survivors drop
    // below the quorum. Each table judges only its own edge's failures.
    std::vector<std::pair<size_t, size_t>> failed;
    std::string first_failure;
    const auto record_failure = [&](size_t idx, const Error& err) {
      PIM_COUNT("charlib.deck.error");
      if (first_failure.empty()) first_failure = err.what();
      log_warn("characterize: ", e == 0 ? "rise" : "fall", " deck failed at slew ",
               format_sig(slew_axis[idx / cols] / 1e-12, 3), " ps, load ",
               format_sig(load_axis[idx % cols] / 1e-15, 3), " fF: ",
               err.message());
      failed.emplace_back(idx / cols, idx % cols);
    };
    for (size_t idx = 0; idx < batch.values.size(); ++idx) {
      if (!batch.values[idx]) continue;
      const EdgeOutcome& eo = e == 0 ? batch.values[idx]->rise : batch.values[idx]->fall;
      if (eo.point) {
        t.delay(idx / cols, idx % cols) = eo.point->delay;
        t.out_slew(idx / cols, idx % cols) = eo.point->out_slew;
      } else if (eo.error) {
        record_failure(idx, *eo.error);
      }
    }
    // A whole-item failure (an exception escaped the point measurement)
    // loses both edges.
    for (size_t k = 0; k < batch.failed.size(); ++k)
      record_failure(batch.failed[k], batch.errors[k]);
    // A deadline/cancel stop leaves the tail of the sweep un-run; those
    // points join the failed list so the same quorum + neighbor-patching
    // path bounds and repairs them. The batch's prefix cutoff is
    // identical at any thread count, so the patched tables are too.
    if (batch.truncated()) {
      t.partial = true;
      t.stop = batch.stop;
      for (size_t idx = batch.completed; idx < batch.values.size(); ++idx) {
        if (batch.values[idx]) continue;  // defensive: engine already discarded
        failed.emplace_back(idx / cols, idx % cols);
      }
      log_warn("characterize: sweep stopped after ", batch.completed, " of ",
               batch.values.size(), " points (",
               deadline::stop_reason_name(batch.stop), "); patching the tail");
    }
    if (failed.empty()) continue;

    const size_t total = slew_axis.size() * load_axis.size();
    const size_t surviving = total - failed.size();
    if (static_cast<double>(surviving) < quorum * static_cast<double>(total)) {
      // Below the quorum nothing trustworthy can be patched. When the
      // shortfall came from a stop, surface the typed deadline/cancel
      // error (the CLI maps it to its own exit code) instead of
      // no_convergence.
      if (batch.truncated())
        throw deadline::stop_error(batch.stop, batch.completed, total);
      throw Error("characterize_table: only " + std::to_string(surviving) + " of " +
                      std::to_string(total) + " sweep points survived (quorum " +
                      format_sig(100.0 * quorum, 3) + " %); first failure: " + first_failure,
                  ErrorCode::no_convergence);
    }

    // Patch each hole from its nearest surviving neighbor (index-space
    // Manhattan distance) so interpolation and the downstream regressions
    // stay well-posed. The patched values slightly bias the fit, which the
    // quorum bounds.
    const auto is_failed = [&](size_t i, size_t j) {
      for (const auto& [fi, fj] : failed)
        if (fi == i && fj == j) return true;
      return false;
    };
    for (const auto& [i, j] : failed) {
      size_t best_i = 0;
      size_t best_j = 0;
      size_t best_d = static_cast<size_t>(-1);
      for (size_t a = 0; a < slew_axis.size(); ++a) {
        for (size_t b = 0; b < load_axis.size(); ++b) {
          if (is_failed(a, b)) continue;
          const size_t d = (a > i ? a - i : i - a) + (b > j ? b - j : j - b);
          if (d < best_d) {
            best_d = d;
            best_i = a;
            best_j = b;
          }
        }
      }
      t.delay(i, j) = t.delay(best_i, best_j);
      t.out_slew(i, j) = t.out_slew(best_i, best_j);
      PIM_COUNT("charlib.point.recovered");
    }
  }
  return out;
}

}  // namespace

RepeaterSizing repeater_sizing(const Technology& tech, CellKind kind, int drive) {
  require(drive >= 1, "repeater_sizing: drive must be >= 1");
  RepeaterSizing sz;
  sz.wn_out = tech.drive_nmos_width(drive);
  sz.wp_out = tech.pmos_width(sz.wn_out);
  if (kind == CellKind::Buffer) {
    // First stage is a quarter of the output stage (min one unit) — the
    // classic staged-buffer recipe that keeps intrinsic delay nearly
    // drive-independent (paper §III-A).
    const int in_drive = std::max(1, drive / 4);
    sz.wn_in = tech.drive_nmos_width(in_drive);
    sz.wp_in = tech.pmos_width(sz.wn_in);
  }
  return sz;
}

double golden_cell_area(const Technology& tech, double wn, double wp) {
  require(wn > 0.0 && wp > 0.0, "golden_cell_area: widths must be positive");
  const double usable = tech.area.row_height - 4.0 * tech.area.contact_pitch;
  require(usable > 0.0, "golden_cell_area: row height too small for contact pitch");
  const double fingers = std::max(1.0, std::ceil((wn + wp) / usable));
  const double cell_width = (fingers + 1.0) * tech.area.contact_pitch;
  return tech.area.row_height * cell_width;
}

RepeaterCell characterize_cell(const Technology& tech, CellKind kind, int drive,
                               const CharacterizationOptions& options) {
  PIM_OBS_SPAN("charlib.cell.characterize");
  PIM_COUNT("charlib.cell.count");
  require(options.slew_axis.size() >= 2, "characterize_cell: need >= 2 slew samples");
  require(options.fanout_axis.size() >= 2, "characterize_cell: need >= 2 load samples");

  const RepeaterSizing sz = repeater_sizing(tech, kind, drive);

  RepeaterCell cell;
  cell.name = repeater_cell_name(kind, drive);
  cell.kind = kind;
  cell.drive = drive;
  cell.wn = sz.wn_out;
  cell.wp = sz.wp_out;
  // The input-cap deck sits outside the sweep's quorum umbrella (there is
  // no neighbor to patch a scalar from), so a transient failure here gets
  // a bounded retry of its own before it can abort the cell.
  for (int attempt = 0;; ++attempt) {
    try {
      cell.input_cap = measure_input_cap(tech, kind, sz, 1e-12 / (1 << attempt));
      break;
    } catch (const Error& e) {
      PIM_COUNT("charlib.deck.error");
      if (e.code() == ErrorCode::bad_input || attempt >= 2)
        throw e.with_context("measuring input cap of " + cell.name);
      log_warn("characterize_cell: input-cap deck failed (attempt ",
               attempt + 1, "): ", e.message());
    }
  }

  // Leakage per output state. Output high: the output-stage NMOS is off
  // (and for buffers the first-stage PMOS, whose input is then high ->
  // internal node low -> its PMOS off... the off devices per state are:
  //   output high: NMOS(out stage) + NMOS(in stage)  [in = low for buffer]
  //   output low : PMOS(out stage) + PMOS(in stage)
  // For a buffer with output high its input is high, internal node low:
  // first stage has input high -> NMOS on, PMOS off -> PMOS(in) leaks.
  {
    const double vdd = tech.vdd;
    double high_state = off_current(tech.nmos, sz.wn_out, vdd);
    double low_state = off_current(tech.pmos, sz.wp_out, vdd);
    if (kind == CellKind::Buffer) {
      high_state += off_current(tech.pmos, sz.wp_in, vdd);
      low_state += off_current(tech.nmos, sz.wn_in, vdd);
    }
    // Layout effect: each device finger adds edge (STI-stress / narrow-
    // width) leakage — a few percent of a unit device per finger. This is
    // the quantized nonlinearity the paper's *linear* leakage regression
    // approximates to within ~11 %.
    const double usable = tech.area.row_height - 4.0 * tech.area.contact_pitch;
    const double total_w = sz.wn_out + sz.wp_out + sz.wn_in + sz.wp_in;
    const double fingers = std::max(1.0, std::ceil(total_w / usable));
    const double edge_w = 0.06 * tech.unit_nmos_width;  // per-finger edge device
    const double edge_leak = fingers * off_current(tech.nmos, edge_w, vdd);
    cell.leakage_nmos = vdd * (high_state + edge_leak);
    cell.leakage_pmos = vdd * (low_state + edge_leak);
  }

  cell.area = golden_cell_area(tech, sz.wn_out + sz.wn_in, sz.wp_out + sz.wp_in);

  Vector loads(options.fanout_axis.size());
  for (size_t i = 0; i < loads.size(); ++i) loads[i] = options.fanout_axis[i] * cell.input_cap;

  try {
    SweepTables tables =
        characterize_tables(tech, kind, sz, options.slew_axis, loads, options.dt_max,
                            options.sweep_quorum, options.reference_engine);
    cell.rise = std::move(tables.rise);
    cell.fall = std::move(tables.fall);
  } catch (const Error& e) {
    throw e.with_context("characterizing cell " + cell.name);
  }
  return cell;
}

CellLibrary characterize_library(const Technology& tech,
                                 const CharacterizationOptions& options) {
  PIM_OBS_SPAN("charlib.library.characterize");
  const std::vector<int>& drives =
      options.drives.empty() ? standard_drive_strengths() : options.drives;
  CellLibrary lib("pim_" + tech.name, tech.node, tech.vdd);
  for (int drive : drives) {
    if (options.inverters)
      lib.add_cell(characterize_cell(tech, CellKind::Inverter, drive, options));
    if (options.buffers)
      lib.add_cell(characterize_cell(tech, CellKind::Buffer, drive, options));
  }
  return lib;
}

}  // namespace pim
