#include "sta/calibrated.hpp"

#include <fstream>
#include <sstream>

#include "cache/manifest.hpp"
#include "cache/resident.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "deadline/deadline.hpp"
#include "obs/metrics.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace pim {
namespace {

// Everything that determines a calibrated fit: the technology content
// (as the SHA-256 of its canonical tech-file serialization — a parameter
// tweak changes the bytes and hence the key), the corner identity, plus
// every characterization and composition knob. The tech and corner enter
// as provenance facets, so the manifest records exactly the identities
// the key covers; the tech facet is named per corner ("<tech>@<corner>")
// because the derated descriptor is the actual input — retuning one
// corner must not dirty the others' fits. The corner id covers its
// factors at full precision, so retuning a corner re-keys its fits even
// though the derated tech hash already differs. See docs/caching.md.
cache::CacheKey fit_cache_key(const Technology& tech, const Corner& corner,
                              const CharacterizationOptions& copt,
                              const CompositionOptions& compt) {
  cache::KeyBuilder kb("fit");
  kb.facet("tech", tech.name + "@" + corner.name, technology_content_hash(tech));
  kb.facet("corner", corner.name, corner.cache_id());
  kb.field("char.slew_axis", copt.slew_axis);
  kb.field("char.fanout_axis", copt.fanout_axis);
  kb.field("char.drives", copt.drives);
  kb.field("char.inverters", copt.inverters);
  kb.field("char.buffers", copt.buffers);
  kb.field("char.dt_max", copt.dt_max);
  kb.field("char.sweep_quorum", copt.sweep_quorum);
  kb.field("comp.drives", compt.drives);
  kb.field("comp.segment_lengths", compt.segment_lengths);
  kb.field("comp.input_slews", compt.input_slews);
  kb.field("comp.chain_lengths", compt.chain_lengths);
  kb.field("comp.layer", static_cast<int>(compt.layer));
  kb.field("comp.signoff.pi_per_segment", compt.signoff.pi_per_segment);
  kb.field("comp.signoff.aggressors", static_cast<int>(compt.signoff.aggressors));
  kb.field("comp.signoff.dt", compt.signoff.dt);
  kb.field("comp.signoff.window_margin", compt.signoff.window_margin);
  return kb.finish();
}

void count_corner(const Corner& corner, const char* event) {
  obs::registry().counter("corner." + corner.name + ".fit." + event).add(1);
}

// Advertises the resolved fit as the artifact behind its coefficient
// hash — the token model cache signatures embed — and reports it to any
// enclosing provenance scope, so downstream cached wrappers (buffering,
// Monte-Carlo, cosi) can record the fit key as an upstream edge. Called
// on every return path, hit and compute alike, so the graph is complete
// wherever the fit came from.
TechnologyFit announce_fit(TechnologyFit fit, const cache::CacheKey& key,
                           const cache::Tracked& scope) {
  cache::register_artifact(cache::sha256_hex(write_fit(fit)), key);
  scope.publish(key);
  return fit;
}

TechnologyFit corner_calibrated_fit_impl(const Technology& tech, const Corner& corner,
                                         const std::string& cache_path,
                                         const CharacterizationOptions& characterization,
                                         const CompositionOptions& composition) {
  const TechNode node = tech.node;
  // Provenance scope: facets recorded by fit_cache_key (tech content,
  // corner, deck params) land here and are written as the entry's
  // manifest by Store::put.
  cache::Tracked scope;
  const cache::CacheKey key = fit_cache_key(tech, corner, characterization, composition);
  // The coefficient-file tier carries no corner identity, so it only
  // serves (and is only refreshed by) the nominal corner.
  const bool file_tier = !cache_path.empty() && corner.is_nominal();
  if (file_tier) {
    std::ifstream probe(cache_path);
    if (probe.good()) {
      try {
        TechnologyFit cached = load_fit(cache_path);
        if (cached.node == node) return announce_fit(std::move(cached), key, scope);
        log_warn("calibrated_fit: cache '", cache_path, "' holds a different node; refitting");
      } catch (const Error& e) {
        log_warn("calibrated_fit: ignoring unreadable cache '", cache_path, "': ", e.what());
      }
    }
  }
  // Content-addressed tier: keyed by the derated tech content, the
  // corner id, and every deck parameter, so a hit is exactly the fit
  // this flow would recompute.
  if (auto payload = cache::Store::global().get(key)) {
    try {
      TechnologyFit cached = parse_fit(*payload);
      require(cached.node == node, "calibrated_fit: cached fit node mismatch",
              ErrorCode::io_parse);
      count_corner(corner, "hit");
      if (file_tier) save_fit(cached, cache_path);
      return announce_fit(std::move(cached), key, scope);
    } catch (const Error& e) {
      // Fail-open (the store already verified the payload digest, so
      // this is effectively unreachable): recompute below. The store
      // counted cache.hit for the digest-valid payload but could not see
      // this payload-level corruption, so it is counted exactly once
      // here — never both here and in the store for one lookup.
      PIM_COUNT("cache.corrupt");
      log_warn("calibrated_fit: ignoring unparsable cache entry: ", e.what());
    }
  }
  log_info("calibrated_fit: characterizing ", tech.name, " at corner '", corner.name,
           "' (this runs transistor-level sims)");
  count_corner(corner, "compute");
  const CellLibrary library = characterize_library(tech, characterization);
  // A deadline/cancel stop during characterization yields a
  // neighbor-patched, biased library. Charlib flows have partial
  // semantics for it; a calibrated fit does not — and the cache key
  // carries no deadline state, so storing a fit regressed from patched
  // tables would poison warm full-budget runs. Refuse with the typed
  // stop error instead (docs/robustness.md: flows without partial
  // semantics surface deadline_exceeded/cancelled). The scope unwinds
  // with the exception, so nothing is cached or manifested.
  if (library.partial()) {
    const deadline::StopReason reason = library.stop_reason();
    count_corner(corner, "truncated");
    throw Error("calibrated_fit: characterization of " + tech.name + " at corner '" +
                    corner.name + "' was truncated (" +
                    deadline::stop_reason_name(reason) +
                    "); refusing to fit or cache biased coefficients",
                deadline::error_code_for(reason));
  }
  TechnologyFit fit = calibrate_composition(tech, fit_technology(tech, library), composition);
  // Leakage is exponential in threshold voltage, so it cannot be derived
  // from the strength/cap derates; corners carry it as an explicit factor
  // applied to the fitted coefficients (x1.0 exactly at nominal).
  fit.leakage.n0 *= corner.leakage;
  fit.leakage.n1 *= corner.leakage;
  fit.leakage.p0 *= corner.leakage;
  fit.leakage.p1 *= corner.leakage;
  cache::Store::global().put(key, write_fit(fit));
  if (file_tier) save_fit(fit, cache_path);
  return announce_fit(std::move(fit), key, scope);
}

// ---------------------------------------------------------------- residency

// The process-wide resident tier: parsed fits keyed by resident_key,
// shared immutably across threads. Bounded only by the number of
// distinct (tech, corner, deck-knob, coefficient-file) combinations a
// process touches — a fit is ~2 KB, so even a server holding every
// built-in node at every corner stays in the tens of kilobytes.
struct ResidentEntry {
  std::shared_ptr<const TechnologyFit> fit;
  std::string coeff_hash;
};

cache::ResidentMemo<ResidentEntry>& resident_fits() {
  static cache::ResidentMemo<ResidentEntry> memo;
  return memo;
}

// The resident key of the fit a call serves. The content-cache key does
// not cover the nominal coefficient-file tier, which serves the file's
// fit ahead of the store, so where that tier applies the key also names
// the file's content (or, for a file that cannot be read yet, its path:
// that call computes and writes it).
std::string resident_key(const cache::CacheKey& key, const Corner& corner,
                         const std::string& cache_path) {
  if (cache_path.empty() || !corner.is_nominal()) return key.hex;
  std::ifstream in(cache_path);
  if (!in.good()) return key.hex + "+unread:" + cache_path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return key.hex + "+file:" + cache::sha256_hex(bytes.str());
}

}  // namespace

ResidentFit resident_corner_fit(const Technology& base, const Corner& corner,
                                const std::string& cache_path,
                                const CharacterizationOptions& characterization,
                                const CompositionOptions& composition) {
  const Technology& tech = corner_technology(base, corner);
  cache::CacheKey key;
  {
    // A local provenance scope absorbs the facets fit_cache_key records,
    // exactly like the store path's scope — the caller's manifest must
    // see the fit as one upstream key, never its raw facets.
    const cache::Tracked scope;
    key = fit_cache_key(tech, corner, characterization, composition);
  }
  const std::string memo_key = resident_key(key, corner, cache_path);
  const ResidentEntry entry = resident_fits().get(
      memo_key,
      [&] {
        auto fit = std::make_shared<const TechnologyFit>(corner_calibrated_fit_impl(
            tech, corner, cache_path, characterization, composition));
        std::string coeff_hash = cache::sha256_hex(write_fit(*fit));
        return ResidentEntry{std::move(fit), std::move(coeff_hash)};
      },
      [&](const ResidentEntry& hit) {
        // Same observable side effects as a store hit (minus the store
        // I/O): the corner hit counter, the artifact registration, and
        // the provenance edge into the enclosing scope.
        count_corner(corner, "hit");
        PIM_COUNT("fit.resident.hit");
        cache::register_artifact(hit.coeff_hash, key);
        if (cache::Tracked* enclosing = cache::Tracked::current())
          enclosing->upstream(key);
      });
  return {entry.fit, key.hex, entry.coeff_hash, memo_key};
}

void clear_resident_fits() { resident_fits().clear(); }

TechnologyFit calibrated_fit(TechNode node, const std::string& cache_path,
                             const CharacterizationOptions& characterization,
                             const CompositionOptions& composition) {
  return corner_calibrated_fit(node, Corner{}, cache_path, characterization, composition);
}

TechnologyFit corner_calibrated_fit(TechNode node, const Corner& corner,
                                    const std::string& cache_path,
                                    const CharacterizationOptions& characterization,
                                    const CompositionOptions& composition) {
  return corner_calibrated_fit_impl(corner_technology(node, corner), corner, cache_path,
                                    characterization, composition);
}

TechnologyFit corner_calibrated_fit(const Technology& base, const Corner& corner,
                                    const std::string& cache_path,
                                    const CharacterizationOptions& characterization,
                                    const CompositionOptions& composition) {
  return corner_calibrated_fit_impl(corner_technology(base, corner), corner, cache_path,
                                    characterization, composition);
}

}  // namespace pim
