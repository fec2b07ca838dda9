// Fixed-step transient analysis with Newton iteration.
//
// Modified nodal analysis where voltage-source nodes are eliminated
// (their voltages are known at every time point), capacitors become
// trapezoidal (or backward-Euler) companion models, and MOSFETs are
// Newton-linearized each iteration. The linear system is solved with a
// banded LU when the netlist's node numbering yields a narrow band —
// which buffered-interconnect netlists built along the wire always do —
// and a dense LU otherwise.
//
// A backward-Euler settling phase (inputs frozen at t = 0) runs before
// the main window so the circuit starts from its DC operating point; this
// replaces a separate DC solver and is unconditionally robust for the
// RC + CMOS circuits this library builds.
#pragma once

#include <utility>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/measure.hpp"
#include "util/expected.hpp"

namespace pim {

enum class Integrator { Trapezoidal, BackwardEuler };

/// Knobs for a transient run. Defaults suit repeater-scale circuits; the
/// sign-off analyzer overrides t_stop/dt per line length.
struct TransientOptions {
  double t_stop = 2e-9;       ///< end of the simulated window [s]
  double dt = 1e-12;          ///< fixed timestep [s]
  double t_settle = 2e-9;     ///< pre-roll to reach DC, inputs frozen at t=0 [s]
  int settle_steps = 400;     ///< steps across the settling pre-roll
  Integrator integrator = Integrator::Trapezoidal;
  int max_newton = 60;        ///< Newton iterations per step before retrying
  double v_tol = 1e-6;        ///< convergence: max |dV| between iterations [V]
  double v_step_limit = 0.3;  ///< per-iteration voltage damping clamp [V]
  size_t band_threshold = 48; ///< use dense LU above this half-bandwidth
  /// Retry guardrail: a step whose Newton loop fails is re-run as two
  /// half-steps, recursively, up to this many halvings (dt shrinks by as
  /// much as 2^max_step_halvings) before the run surfaces no_convergence.
  int max_step_halvings = 4;
  /// Integrate per-source charge and energy over the main window. Callers
  /// that read only traces (sign-off, noise) turn it off; `time` and
  /// `traces` are bit-identical either way, and `sources` then stays zero.
  bool integrate_sources = true;
};

/// Per-source integrated quantities over the main window (not the
/// settling pre-roll), in vsource declaration order. Zero when
/// TransientOptions::integrate_sources is off.
struct SourceTotals {
  double charge = 0.0;  ///< integral of delivered current [C]
  double energy = 0.0;  ///< integral of v * i [J]
};

/// Sampled node waveform.
struct Trace {
  NodeId node = 0;
  std::vector<double> values;  // one per time sample
};

/// Everything a transient run produces.
struct TransientResult {
  std::vector<double> time;         ///< sample times, t = 0 .. t_stop
  std::vector<Trace> traces;        ///< one per requested probe
  std::vector<SourceTotals> sources;///< per voltage source

  /// The trace for `node`; throws pim::Error(bad_input) naming the node
  /// when it was not probed. Builds a sorted index on first use (and
  /// whenever `traces` changed size), so repeated measurement lookups on
  /// wide decks are O(log n) instead of a linear scan per call.
  const std::vector<double>& trace(NodeId node) const;

 private:
  mutable std::vector<std::pair<NodeId, size_t>> trace_index_;
};

/// Runs a transient analysis of `circuit`, recording the `probes` nodes.
/// Throws pim::Error(no_convergence) when a timestep still fails after
/// the halving retries. A non-empty `stop_after` (indices into `probes`)
/// ends the run at the first sample by which every listed crossing has
/// occurred (LaneSpec::stop_after, spice/batch.hpp).
TransientResult run_transient(const Circuit& circuit,
                              const TransientOptions& options,
                              const std::vector<NodeId>& probes,
                              std::vector<Crossing> stop_after = {});

/// Recoverable variant: returns the result or the error without throwing,
/// for batch flows that skip-and-record failed simulations.
Expected<TransientResult> try_run_transient(const Circuit& circuit,
                                            const TransientOptions& options,
                                            const std::vector<NodeId>& probes);

/// Reference scalar implementation. run_transient() routes through the
/// batched SoA engine (spice/batch.hpp); this entry point keeps the
/// original element-by-element solver, whose output the batched engine is
/// required to reproduce bit-for-bit (tests/test_spice.cpp pins this, and
/// `pim_bench transient_kernel` re-asserts it on every benchmark run).
TransientResult run_transient_reference(const Circuit& circuit,
                                        const TransientOptions& options,
                                        const std::vector<NodeId>& probes);

}  // namespace pim
