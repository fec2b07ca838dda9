// Lockstep batched transient engine.
//
// run_transient_batch() runs N parameter-perturbed lanes (variants) of
// the same compiled deck in lockstep: all lanes share one read-only
// CompiledCircuit, advance through the same time grid together, and the
// Newton iterations of every in-flight lane run round by round. Each lane
// keeps its own voltages, companion state, device-drive memo
// (kernels::DriveMemo), matrix, and reusable LU factorization, so lanes are
// numerically independent: a lane that fails (Newton divergence, NaN
// poisoning, singular system) carries a typed error while its siblings
// run to completion.
//
// Determinism contract (docs/kernels.md): a single nominal lane is
// bit-identical to the original scalar solver (run_transient_reference),
// and every lane is bit-identical to a scalar run of the same perturbed
// circuit — lane results never depend on batch composition, wave width,
// or thread count. Deadline polling is opt-in and follows the exec
// engine's prefix-cutoff rule per lane: completed lanes are exactly
// [0, cutoff), and the fault sites behind deadline::check() are drawn
// under per-lane ScopedStream(index), making the cutoff index-pure.
#pragma once

#include <vector>

#include "deadline/deadline.hpp"
#include "spice/plan.hpp"
#include "spice/transient.hpp"
#include "util/expected.hpp"

namespace pim {

/// One lane = the compiled base deck plus value overrides. Indices refer
/// to the netlist's element creation order (the plan preserves it).
/// Widths must stay positive; a lane with an out-of-range index or a
/// non-positive width fails typed (bad_input) without touching siblings.
struct LaneSpec {
  std::vector<std::pair<size_t, double>> cap_farads;     ///< capacitor index -> F
  std::vector<std::pair<size_t, double>> mosfet_width;   ///< mosfet index -> m
  std::vector<std::pair<size_t, Waveform>> vsource_wave; ///< vsource index -> wave
};

struct BatchOptions {
  /// Lanes per lockstep cohort. Bounds the engine's working set and sets
  /// the granularity of wall-clock deadline polls; has no effect on any
  /// lane's numeric result.
  size_t wave_width = 8;
  /// When set, one deadline::check() per lane at wave admission (under
  /// fault::ScopedStream(lane index)). Off by default so plain
  /// run_transient and exec-driven callers keep their existing draw
  /// patterns — the exec engine already polls once per item.
  bool poll_deadline = false;
  /// Steady-state cycle replay (docs/kernels.md): once a lane's converged
  /// per-step state repeats bit-exactly with a short period and every
  /// source waveform is past its final breakpoint, the remaining steps
  /// provably repeat that cycle, so the engine replays the recorded
  /// states instead of re-solving them. Results are bit-identical either
  /// way (the replay condition is exact state equality); the toggle
  /// exists for A/B tests and benchmarks. Automatically disabled while
  /// the fault-injection harness is armed, which keeps per-step fault
  /// draw sequences intact.
  bool steady_skip = true;
};

/// Batch outcome. `lanes[i]` holds lane i's result or typed error; on an
/// early stop, lanes [cutoff, n) hold the stop error and `completed`
/// lanes are exactly [0, cutoff) — the prefix-cutoff contract.
struct TransientBatch {
  std::vector<Expected<TransientResult>> lanes;
  deadline::StopReason stop = deadline::StopReason::none;
  size_t cutoff = 0;  ///< lanes.size() when the batch ran to completion

  bool truncated() const { return stop != deadline::StopReason::none; }
};

TransientBatch run_transient_batch(const CompiledCircuit& plan,
                                   const TransientOptions& options,
                                   const std::vector<NodeId>& probes,
                                   const std::vector<LaneSpec>& lanes,
                                   const BatchOptions& batch_options = {});

}  // namespace pim
