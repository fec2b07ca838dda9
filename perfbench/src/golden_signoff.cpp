// golden_signoff: one run_batch of golden sign-off items (evaluate with
// golden=true, plus noise) over a seeded set of 24 links, against a fit
// loaded from the warm private cache. The number of batches is fixed from
// --seconds and a nominal batch cost, so a run does the same work on any
// machine.
//
// The link set is stratified so every seed costs about the same: each of
// the 24 (style, length) slots is always present with a drive fixed by
// the slot, and the seed picks each slot's repeater count (one per mm, or
// one more) and the batch order. Over seeds 1-40 the batch cost then
// varies by 5 % (IQR), and the worst model error is the same for every
// seed: it comes from a noise item, which ignores the repeater count.
// Every link of every seed comes from one fixed catalogue, whose per-item
// result digests are recorded in perfbench/expected.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "exec/engine.hpp"
#include "harness.hpp"
#include "models/proposed.hpp"
#include "obs/metrics.hpp"
#include "sta/calibrated.hpp"
#include "sta/noise.hpp"
#include "sta/signoff.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"
#include "util/units.hpp"

namespace perfbench {
namespace {

namespace api = pim::api;
using namespace pim::unit;

const char* const kStyles[] = {"SS", "DS", "SH"};
const double kLengthsMm[] = {1, 2, 3, 4, 5, 6, 8, 10};
const int kDrives[] = {8, 12, 16};
// Nominal wall time of one batch on the reference host [s].
constexpr double kNominalBatchS = 10.0;

struct GoldenLink {
  std::string style;
  double length_mm = 0.0;
  int drive = 0;
  int repeaters = 0;  ///< base count (one per mm) or one more
};

int base_repeaters(double length_mm) {
  return std::max(1, static_cast<int>(std::lround(length_mm)));
}

std::string eval_key(const GoldenLink& l) {
  std::ostringstream os;
  os << "evaluate:" << l.style << ":" << l.length_mm << ":" << l.drive << ":" << l.repeaters;
  return os.str();
}

std::string noise_key(const GoldenLink& l) {
  std::ostringstream os;
  os << "noise:" << l.style << ":" << l.length_mm << ":" << l.drive;
  return os.str();
}

api::LinkSpec spec_of(const GoldenLink& l) {
  api::LinkSpec spec;
  spec.tech = "65nm";
  spec.style = l.style;
  spec.length_mm = l.length_mm;
  spec.drive = l.drive;
  spec.repeaters = l.repeaters;
  return spec;
}

api::LinkEvalRequest eval_request(const GoldenLink& l) {
  api::LinkEvalRequest req;
  req.link = spec_of(l);
  req.golden = true;
  return req;
}

api::NoiseRequest noise_request(const GoldenLink& l) {
  api::NoiseRequest req;
  req.link = spec_of(l);
  return req;
}

// The seeded link set: all 24 (style, length) slots, the drive cycling
// over the slots, seeded repeater count per slot, seeded order.
std::vector<GoldenLink> seeded_links(uint64_t seed) {
  Rng rng(seed * 0x100000001B3ull + 0x5eed);
  std::vector<GoldenLink> links;
  for (size_t si = 0; si < std::size(kStyles); ++si)
    for (size_t li = 0; li < std::size(kLengthsMm); ++li) {
      GoldenLink l;
      l.style = kStyles[si];
      l.length_mm = kLengthsMm[li];
      l.drive = kDrives[(si + li) % std::size(kDrives)];
      l.repeaters = base_repeaters(l.length_mm) + static_cast<int>(rng.below(2));
      links.push_back(l);
    }
  for (size_t i = links.size() - 1; i > 0; --i) std::swap(links[i], links[rng.below(i + 1)]);
  return links;
}

// Every link any seed can draw.
std::vector<GoldenLink> catalogue() {
  std::vector<GoldenLink> links;
  for (const char* style : kStyles)
    for (double length : kLengthsMm)
      for (int drive : kDrives)
        for (int extra = 0; extra < 2; ++extra)
          links.push_back({style, length, drive, base_repeaters(length) + extra});
  return links;
}

// Canonical bytes of one batch item: the wire JSON of its result, or the
// wire error object.
std::string item_text(const pim::Expected<api::AnyResult>& item) {
  if (!item.ok()) return api::wire::error_to_json(item.error());
  return std::visit([](const auto& r) { return api::wire::to_json(r); }, item.value());
}

api::BatchRequest batch_of(const std::vector<GoldenLink>& links) {
  api::BatchRequest batch;
  for (const GoldenLink& l : links) {
    batch.items.emplace_back(eval_request(l));
    batch.items.emplace_back(noise_request(l));
  }
  return batch;
}

std::vector<std::string> batch_keys(const std::vector<GoldenLink>& links) {
  std::vector<std::string> keys;
  for (const GoldenLink& l : links) {
    keys.push_back(eval_key(l));
    keys.push_back(noise_key(l));
  }
  return keys;
}

double item_model_error(const pim::Expected<api::AnyResult>& item) {
  if (!item.ok()) return 0.0;
  if (const auto* e = std::get_if<api::LinkEvalResult>(&item.value()))
    return std::fabs(e->model_error_pct);
  if (const auto* n = std::get_if<api::NoiseResult>(&item.value()))
    return std::fabs(n->model_error_pct);
  return 0.0;
}

// The batch again, item by item, with spans around the layer calls the
// facade makes for each item (sta/signoff, sta/noise, models). Returns
// the item texts, built exactly as pim::api builds them, so the caller
// can check the traced path computed the same results.
std::vector<std::string> traced_pass(const std::vector<GoldenLink>& links) {
  const pim::Technology& base = pim::technology_from_spec("65nm");
  const pim::Technology& tech = pim::corner_technology(base, pim::Corner{});
  std::vector<std::string> texts;
  Scope root("golden.pass");
  std::shared_ptr<const pim::TechnologyFit> fit;
  {
    Scope s("api.resolve_fit");
    fit = pim::resident_corner_fit(base, pim::Corner{}).fit;
  }
  const pim::ProposedModel model(tech, *fit);
  int64_t id = 0;
  for (const GoldenLink& l : links) {
    Scope link("golden.link", id++);
    pim::LinkContext ctx;
    ctx.length = l.length_mm * mm;
    ctx.style = l.style == "SS"   ? pim::DesignStyle::SingleSpacing
                : l.style == "DS" ? pim::DesignStyle::DoubleSpacing
                                  : pim::DesignStyle::Shielded;
    ctx.input_slew = 100.0 * ps;
    ctx.frequency = base.clock_frequency;
    pim::LinkDesign design;
    design.drive = l.drive;
    design.num_repeaters = l.repeaters;

    api::LinkEvalResult er;
    pim::LinkEstimate est;
    {
      Scope s("models.evaluate");
      est = model.evaluate(ctx, design);
    }
    pim::SignoffResult golden;
    {
      Scope s("sta.signoff_link");
      golden = pim::signoff_link(tech, ctx, design);
    }
    er.tech_name = tech.name;
    er.style_name = pim::design_style_name(ctx.style);
    er.repeaters = design.num_repeaters;
    er.miller_factor = design.miller_factor;
    er.delay_ps = est.delay / ps;
    er.output_slew_ps = est.output_slew / ps;
    er.power_mw = est.total_power() / mW;
    er.area_um2 = est.repeater_area / um2;
    er.has_golden = true;
    er.golden_delay_ps = golden.delay / ps;
    er.golden_slew_ps = golden.output_slew / ps;
    er.golden_nodes = golden.node_count;
    er.model_error_pct = 100.0 * (est.delay - golden.delay) / golden.delay;
    texts.push_back(api::wire::to_json(er));

    pim::LinkDesign noise_design = design;
    noise_design.num_repeaters = 1;
    pim::NoiseCalibration cal;
    {
      Scope s("sta.noise_calibrate");
      cal = pim::calibrate_noise(tech, *fit);
    }
    double golden_peak = 0.0, model_peak = 0.0;
    {
      Scope s("sta.noise");
      golden_peak = pim::golden_noise_peak(tech, ctx, noise_design);
    }
    {
      Scope s("models.noise");
      model_peak = pim::noise_peak_model(tech, *fit, ctx, noise_design, cal.kappa_n);
    }
    api::NoiseResult nr;
    nr.tech_name = tech.name;
    nr.style_name = pim::design_style_name(ctx.style);
    nr.golden_peak_mv = golden_peak * 1e3;
    nr.golden_peak_pct_vdd = 100.0 * golden_peak / tech.vdd;
    nr.model_peak_mv = model_peak * 1e3;
    nr.model_error_pct = 100.0 * (model_peak - golden_peak) / std::max(golden_peak, 1e-9);
    texts.push_back(api::wire::to_json(nr));
  }
  return texts;
}

}  // namespace

Outcome run_golden_signoff(const Options& o) {
  Outcome out;
  const int threads = host_threads();
  pim::exec::set_threads(threads);
  const WarmCache warm = warm_base_cache(o);
  out.note("cache_temperature", "warm (fit loaded from the shared warm cache, read-only)");
  const std::string want_fit = expected(o).find("fit_sha256")->text;
  out.check(warm.fit_sha256 == want_fit,
            "warm cache fit sha256 " + warm.fit_sha256 + " != recorded " + want_fit);

  std::vector<double> setups;
  const double setup_s = probe_setup_s(o, kSetupProbes, setups);
  out.check(load_warm_fit(warm.dir), "warm fit load missed the warm cache or failed");

  const std::vector<GoldenLink> links = seeded_links(o.seed);
  const api::BatchRequest batch = batch_of(links);
  const std::vector<std::string> keys = batch_keys(links);
  const pim::obs::JsonValue* digests = expected(o).find("golden_items");

  std::vector<double> walls;
  double err_max = 0.0;
  std::vector<std::string> first_texts;
  const int count =
      o.trace ? 1 : std::max(1, static_cast<int>(std::lround(o.seconds / kNominalBatchS)));
  for (int n = 0; n < count; ++n) {
    const int64_t t0 = now_ns();
    const auto result = api::run_batch(batch);
    walls.push_back(seconds_since(t0));
    if (!result.ok()) {
      out.check(false, std::string("run_batch failed: ") + result.error().what());
      continue;
    }
    const api::BatchResult& br = result.value();
    std::vector<std::string> texts;
    for (size_t i = 0; i < br.items.size(); ++i) {
      texts.push_back(item_text(br.items[i]));
      const pim::obs::JsonValue* want = digests ? digests->find(keys[i]) : nullptr;
      const std::string got = pim::cache::sha256_hex(texts.back());
      out.check(br.items[i].ok() && want != nullptr && want->text == got,
                keys[i] + (want == nullptr ? " has no recorded digest"
                                           : " result digest " + got + " != recorded " +
                                                 want->text));
      err_max = std::max(err_max, item_model_error(br.items[i]));
    }
    if (first_texts.empty()) first_texts = texts;
  }

  std::string joined;
  for (const std::string& t : first_texts) joined += t + "\n";
  out.note("batch_digest", pim::cache::sha256_hex(joined));

  const double links_per_s = static_cast<double>(links.size()) / median(walls);
  const std::string fit_text = pim::write_fit(*pim::resident_corner_fit(
      pim::technology_from_spec("65nm"), pim::Corner{}).fit);

  out.metric("setup_s", "s", setup_s);
  out.metric("p50_ms", "ms", 1e3 * median(walls));
  out.metric("fit_r2_min", "1", fit_r2_min(fit_text));
  out.metric("model_err_max_pct", "%", err_max);
  out.metric("peak_rss_mb", "MB", self_peak_rss_mb());

  out.detail("signoff_links_per_s", "links/s", links_per_s);
  out.detail("model_err_max_pct", "%", err_max);
  out.detail("batches", "count", static_cast<double>(walls.size()));
  out.note("batch_s", join(walls));
  out.note("setup_s", join(setups));
  out.detail("links_per_batch", "count", static_cast<double>(links.size()));

  if (o.trace) {
    pim::obs::set_enabled(true);
    pim::obs::registry().reset();
    tracer().clear();
    tracer().enabled = true;
    const int64_t t0 = now_ns();
    const std::vector<std::string> texts = traced_pass(links);
    const double traced_wall = seconds_since(t0);
    const Counters counts = capture_counters();
    tracer().enabled = false;
    for (size_t i = 0; i < texts.size(); ++i)
      out.check(i < first_texts.size() && texts[i] == first_texts[i],
                keys[i] + ": traced layer calls disagree with run_batch");

    const auto ms_of = [](const SpanStats& s, double q) {
      return 1e3 * quantile(s.durations_s, q);  // q = 1 gives the maximum
    };
    const SpanStats signoff = tracer().stat("sta.signoff_link");
    const SpanStats noise = tracer().stat("sta.noise");
    const SpanStats evals = tracer().stat("models.evaluate");
    const SpanStats root = tracer().stat("golden.pass");
    out.metric("sta.signoff_link_ms.p50", "ms", ms_of(signoff, 0.5));
    out.metric("sta.signoff_link_ms.max", "ms", ms_of(signoff, 1.0));
    out.metric("sta.noise_ms.p50", "ms", ms_of(noise, 0.5));
    out.metric("sta.noise_ms.max", "ms", ms_of(noise, 1.0));
    out.metric("sta.noise_calibrate_s", "s", tracer().stat("sta.noise_calibrate").self_s);
    out.metric("models.evaluate_us.p50", "us", 1e6 * quantile(evals.durations_s, 0.5));
    out.metric("models.evaluate_us.p99", "us", 1e6 * tail(evals.durations_s).value);
    report_solver_layers(out, counts, threads, traced_wall);
    out.metric("trace.overhead_pct", "%", 100.0 * (traced_wall / median(walls) - 1.0));
    out.metric("trace.unattributed_pct", "%",
               100.0 * (root.self_s + tracer().stat("golden.link").self_s) / root.total_s);
    pim::obs::set_enabled(false);
  }
  return out;
}

void golden_signoff_setup(const Options& o) {
  pim::exec::set_threads(host_threads());
  if (!load_warm_fit(warm_base_cache(o).dir))
    throw std::runtime_error("warm fit load missed the warm cache or failed");
}

int record_golden_digests(const Options& o) {
  golden_signoff_setup(o);
  const std::vector<GoldenLink> links = catalogue();
  const api::BatchRequest batch = batch_of(links);
  const std::vector<std::string> keys = batch_keys(links);
  const auto result = api::run_batch(batch);
  if (!result.ok() || result.value().failed != 0) {
    std::fprintf(stderr, "record: catalogue batch failed\n");
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> entries;
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string digest = pim::cache::sha256_hex(item_text(result.value().items[i]));
    if (std::none_of(entries.begin(), entries.end(),
                     [&](const auto& e) { return e.first == keys[i]; }))
      entries.emplace_back(keys[i], digest);
  }
  std::ostringstream os;
  os << "{\n";
  for (size_t i = 0; i < entries.size(); ++i)
    os << "    \"" << entries[i].first << "\": \"" << entries[i].second << "\""
       << (i + 1 < entries.size() ? ",\n" : "\n");
  os << "  }";
  std::fputs(os.str().c_str(), stdout);
  std::fputs("\n", stdout);
  return 0;
}

}  // namespace perfbench
