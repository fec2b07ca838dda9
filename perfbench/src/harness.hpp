// Shared pieces of the benchmark driver: run options, the in-memory span
// tracer, latency statistics, the result record, and the host
// fingerprint. See perfbench/README.md for what each workload measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace perfbench {

/// Command-line options every workload receives (perfbench/run.py passes
/// the checkout-relative paths).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string root;   ///< checkout root (holds perfbench/expected.json)
  std::string state;  ///< scratch state under the checkout (.bench_build/state)
  std::string pimd;   ///< the pimd binary built from this checkout
  bool setup_probe = false;  ///< only run the workload's set-up, then exit
};

/// Monotonic clock in nanoseconds / seconds.
int64_t now_ns();
inline double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One span recorded around a call perfbench_driver makes into a layer.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       ///< index of the enclosing span, -1 for a root
  int64_t request = -1;  ///< request id the span belongs to, -1 for none
};

/// Per-name aggregate over the recorded spans. Self time is a span's
/// duration minus the part covered by its children.
struct SpanStats {
  std::string name;
  std::vector<double> durations_s;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Keeps spans in memory; perfbench_driver is single-threaded while tracing,
/// so spans nest strictly. A disabled tracer records nothing.
class Tracer {
 public:
  bool enabled = false;

  int open(const std::string& name, int64_t request = -1);
  void close(int id);

  void clear();

  /// Aggregates by span name (first-seen order).
  std::vector<SpanStats> stats() const;
  /// The aggregate for one name (empty when never recorded).
  SpanStats stat(const std::string& name) const;

  /// Writes every span as JSON lines to `path`.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// The process tracer the workloads record into.
Tracer& tracer();

/// RAII span on the process tracer.
class Scope {
 public:
  explicit Scope(const std::string& name, int64_t request = -1)
      : id_(tracer().open(name, request)) {}
  ~Scope() { tracer().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the workloads derive every input from --seed through this
/// generator, so inputs are identical on every platform and compiler.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// "a b c" with full precision, for the commentary lines.
std::string join(const std::vector<double>& values);

/// The tail the sample supports: p99 when at least ten samples lie beyond
/// it, else the highest of p95/p90/p75/p50 that has ten beyond it, else
/// the maximum. `label` names the percentile used ("p99", ..., "max").
struct Tail {
  double value = 0.0;
  std::string label;
  size_t samples = 0;
};
Tail tail(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload reports. `metrics` go on the result line; `details`
/// (named figures such as fit_s, sample counts, notes) go to the
/// detail file and to stdout ahead of the result line.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> mismatches;  ///< every failed correctness check
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void detail(const std::string& name, const std::string& unit, double value) {
    details.push_back({name, unit, value});
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Counts one attempted operation; a non-empty `problem` fails it.
  void check(bool ok, const std::string& problem);
};

/// Registry values captured right after a traced flow: pim::api resets
/// the registry on every call, so they are read before the next one.
struct Counters {
  pim::obs::MetricsSnapshot snap;
  int64_t count(const std::string& name) const;
  double gauge(const std::string& name) const;
  double timer_total_s(const std::string& name) const;
};
Counters capture_counters();

/// The spice, numeric and exec per-layer metrics of a traced flow that
/// ran `wall_s` on `threads` threads.
void report_solver_layers(Outcome& out, const Counters& c, int threads, double wall_s);

/// Peak resident set of this process in MB (getrusage).
double self_peak_rss_mb();

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

/// nproc: --threads of every timed flow and pimd's --workers.
int host_threads();

/// Host fingerprint fields (nproc, --threads, cpu model, compiler, build
/// type, library version, and a reference-loop time that tracks the
/// host's current speed) as JSON members without braces.
std::string fingerprint_json();

/// mkdir -p; throws on failure.
void make_dirs(const std::string& path);
/// rm -rf (no-op when absent).
void remove_tree(const std::string& path);
/// Copies a directory tree of regular files.
void copy_tree(const std::string& from, const std::string& to);
bool file_exists(const std::string& path);
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// perfbench/expected.json, parsed.
const pim::obs::JsonValue& expected(const Options& options);

/// Points the process at a private cache directory and drops every
/// in-memory tier (resident fits, the store's memory LRU), so the next
/// flow sees exactly what is on disk there.
void use_private_cache(const std::string& dir);

/// Runs this binary again with `args` (after the program name) plus the
/// checkout options, waits for it, and returns its wall time. Throws
/// when it does not exit 0.
double run_self(const Options& options, const std::vector<std::string>& args);

/// Set-up probes per run for the in-process workloads.
constexpr int kSetupProbes = 15;

/// Median wall time of `probes` fresh driver processes (`--setup-probe`)
/// that each start, do the workload's set-up and exit: process start,
/// static initialization, and the set-up a user pays before the first
/// timed operation. Work moved into start-up or set-up shows here.
/// The raw samples are appended to `samples`.
double probe_setup_s(const Options& options, int probes, std::vector<double>& samples);

/// The set-up a `--setup-probe` process performs for each workload.
void cold_fit_setup(const Options& options);
void golden_signoff_setup(const Options& options);

/// The warm cache shared by golden_signoff and warm_serve, populated by
/// one cold 65 nm fit in a child process (`--populate-warm DIR`) under
/// an exclusive lock. Its directory is named after the driver binary
/// (size and mtime; it links the same library as pimd), the recorded fit
/// SHA-256 and the cache format version, so a rebuild or a format change
/// populates a new one.
/// Callers copy it before writing to it.
struct WarmCache {
  std::string dir;
  std::string fit_sha256;  ///< of the fit the population computed
};
WarmCache warm_base_cache(const Options& options);
/// The `--populate-warm DIR` child: one cold fit into DIR, then writes
/// the fit's SHA-256 to DIR.done.
void populate_warm_cache(const std::string& dir);

/// Loads the 65 nm fit from the warm cache into a process with empty
/// in-memory tiers, read-only, so the shared cache is never written.
/// False unless the fit came from the on-disk cache (a miss would
/// silently redo a cold fit).
bool load_warm_fit(const std::string& warm_dir);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Outcome run_cold_fit(const Options& options);
Outcome run_golden_signoff(const Options& options);
Outcome run_warm_serve(const Options& options);

/// Serial reference run that (re)writes the golden per-item digests in
/// perfbench/expected.json (`--record golden`); see README.md.
int record_golden_digests(const Options& options);

/// Smallest r2_intrinsic / r2_drive_res over the edge fits in `fit_text`.
double fit_r2_min(const std::string& fit_text);
/// Worst calibration error of the fit (max of worst_err_coupled and
/// worst_err_shielded) in percent.
double fit_calibration_err_pct(const std::string& fit_text);

}  // namespace perfbench
