// cold_fit: one cold 65 nm run_fit at the nominal corner, at --threads =
// nproc, against an empty private cache with resident fits cleared. One
// closed-loop caller repeats it; the count is fixed from --seconds and
// the nominal cost of a fit, so a run does the same work on any machine.
#include <algorithm>
#include <cmath>

#include "api/pim_api.hpp"
#include "cache/key.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "charlib/fit.hpp"
#include "exec/engine.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sta/composition.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"

namespace perfbench {
namespace {

// Nominal wall time of one cold fit on the reference host [s].
constexpr double kNominalFitS = 7.0;

// Prepares a fresh private cache for one cold fit.
void prepare_cold(const Options& o, const std::string& name, int threads) {
  const std::string base = o.state + "/cold-cache";
  remove_tree(base);
  const std::string dir = base + "/" + name;
  make_dirs(dir);
  use_private_cache(dir);
  pim::exec::set_threads(threads);
  pim::technology_from_spec("65nm");
}

struct FitRun {
  double wall_s = 0.0;
  std::string text;
  bool ok = false;
  std::string error;
};

FitRun timed_run_fit() {
  pim::api::FitRequest req;
  req.tech = "65nm";
  FitRun run;
  const int64_t t0 = now_ns();
  auto result = pim::api::run_fit(req);
  run.wall_s = seconds_since(t0);
  run.ok = result.ok();
  if (run.ok)
    run.text = result.value().fit_text;
  else
    run.error = result.error().what();
  return run;
}

// The fit flow of sta/calibrated.cpp, called layer by layer so each
// public function gets its own span: store lookup, characterize_library,
// fit_technology, calibrate_composition, store write. At the nominal
// corner the leakage derate is exactly 1, so the bytes equal run_fit's.
FitRun traced_layered_fit() {
  FitRun run;
  const pim::Technology& tech =
      pim::corner_technology(pim::technology_from_spec("65nm"), pim::Corner{});
  const int64_t t0 = now_ns();
  {
    Scope root("cold_fit.fit");
    pim::cache::KeyBuilder kb("fit");
    kb.field("perfbench.tech", pim::technology_content_hash(tech));
    const pim::cache::CacheKey key = kb.finish();
    {
      Scope s("cache.get");
      if (pim::cache::Store::global().get(key)) run.error = "cold cache served a fit";
    }
    pim::CellLibrary lib;
    {
      Scope s("charlib.characterize");
      lib = pim::characterize_library(tech);
    }
    pim::TechnologyFit fit;
    {
      Scope s("charlib.fit");
      fit = pim::fit_technology(tech, lib);
    }
    {
      Scope s("sta.composition");
      fit = pim::calibrate_composition(tech, fit);
    }
    {
      Scope s("cache.put");
      run.text = pim::write_fit(fit);
      pim::cache::Store::global().put(key, run.text);
    }
  }
  run.wall_s = seconds_since(t0);
  run.ok = run.error.empty();
  return run;
}

void check_fit(Outcome& out, const FitRun& run, const std::string& want_sha,
               const std::string& what) {
  if (!run.ok) {
    out.check(false, what + " failed: " + run.error);
    return;
  }
  const std::string sha = pim::cache::sha256_hex(run.text);
  out.check(sha == want_sha, what + " write_fit sha256 " + sha + " != recorded " + want_sha);
}

}  // namespace

void cold_fit_setup(const Options& o) { prepare_cold(o, "probe", host_threads()); }

Outcome run_cold_fit(const Options& o) {
  Outcome out;
  const int threads = host_threads();
  const std::string want_sha = expected(o).find("fit_sha256")->text;
  out.note("cache_temperature", "cold (fresh private dir per fit, resident fits cleared)");

  std::vector<double> setups, fits, traced_fits;
  const double setup_s = probe_setup_s(o, kSetupProbes, setups);
  std::string nproc_text;
  FitRun traced;
  Counters counts;
  // A traced run times one untraced and one traced fit.
  const int count =
      o.trace ? 1 : std::max(1, static_cast<int>(std::lround(o.seconds / kNominalFitS)));
  for (int n = 0; n < count; ++n) {
    prepare_cold(o, std::to_string(n), threads);
    pim::obs::set_enabled(false);
    const FitRun run = timed_run_fit();
    check_fit(out, run, want_sha, "run_fit --threads " + std::to_string(threads));
    fits.push_back(run.wall_s);
    if (nproc_text.empty()) nproc_text = run.text;
    if (o.trace) {
      // Traced sample: same cold state, spans on, registry counting.
      prepare_cold(o, "traced", threads);
      pim::obs::set_enabled(true);
      pim::obs::registry().reset();
      tracer().clear();
      tracer().enabled = true;
      traced = traced_layered_fit();
      counts = capture_counters();
      tracer().enabled = false;
      check_fit(out, traced, want_sha, "layered fit (traced)");
      traced_fits.push_back(traced.wall_s);
    }
  }

  // Byte identity across thread counts: the same cold fit on one thread.
  pim::obs::set_enabled(false);
  prepare_cold(o, "threads1", 1);
  const FitRun single = timed_run_fit();
  check_fit(out, single, want_sha, "run_fit --threads 1");
  out.check(single.ok && single.text == nproc_text,
            "write_fit bytes differ between --threads 1 and --threads " +
                std::to_string(threads));
  pim::exec::set_threads(threads);

  const std::string& text = nproc_text.empty() ? single.text : nproc_text;
  const double r2 = text.empty() ? 0.0 : fit_r2_min(text);
  const double cal_err = text.empty() ? 0.0 : fit_calibration_err_pct(text);

  out.metric("setup_s", "s", setup_s);
  out.metric("p50_ms", "ms", 1e3 * median(fits));
  out.metric("fit_r2_min", "1", r2);
  out.metric("model_err_max_pct", "%", cal_err);
  out.metric("peak_rss_mb", "MB", self_peak_rss_mb());

  out.detail("fit_s", "s", median(fits));
  out.detail("fit_s.samples", "count", static_cast<double>(fits.size()));
  out.detail("fit_s.threads1", "s", single.wall_s);
  out.note("fit_s", join(fits));
  out.note("setup_s", join(setups));
  out.detail("fit_r2_min", "1", r2);

  if (o.trace && !traced_fits.empty()) {
    const auto stat = [](const char* n) { return tracer().stat(n); };
    const SpanStats root = stat("cold_fit.fit");
    const double wall = root.durations_s.back();
    out.metric("charlib.characterize_s", "s", stat("charlib.characterize").self_s);
    out.metric("charlib.fit_s", "s", stat("charlib.fit").self_s);
    out.metric("sta.composition_s", "s", stat("sta.composition").self_s);
    out.metric("sta.composition_pct", "%", 100.0 * stat("sta.composition").self_s / wall);
    out.metric("cache.get_s", "s", stat("cache.get").self_s);
    out.metric("cache.put_s", "s", stat("cache.put").self_s);
    out.metric("charlib.deck.simulated", "count", counts.count("charlib.deck.simulated"));
    report_solver_layers(out, counts, threads, wall);
    const int64_t hit = counts.count("cache.hit"), miss = counts.count("cache.miss");
    out.metric("cache.hit", "count", hit);
    out.metric("cache.miss", "count", miss);
    out.metric("cache.write", "count", counts.count("cache.write"));
    out.metric("cache.hit_rate", "1", hit + miss > 0 ? double(hit) / double(hit + miss) : 0.0);
    out.metric("trace.overhead_pct", "%", 100.0 * (median(traced_fits) / median(fits) - 1.0));
    out.metric("trace.unattributed_pct", "%", 100.0 * root.self_s / root.total_s);
    pim::obs::set_enabled(false);
  }
  return out;
}

}  // namespace perfbench
