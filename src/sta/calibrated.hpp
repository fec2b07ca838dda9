// One-call model construction: characterize -> fit -> composition-
// calibrate, with an optional coefficient-file cache so repeated tool
// runs skip the (simulation-heavy) characterization.
#pragma once

#include <memory>
#include <string>

#include "charlib/characterize.hpp"
#include "charlib/fit.hpp"
#include "sta/composition.hpp"

namespace pim {

/// Returns the fully calibrated coefficient set for `node`. When
/// `cache_path` is non-empty and holds a parseable fit for the same node,
/// it is returned directly; otherwise the full flow runs and (when a path
/// was given) the result is saved there. Equivalent to
/// `corner_calibrated_fit` at the nominal corner.
TechnologyFit calibrated_fit(TechNode node, const std::string& cache_path = "",
                             const CharacterizationOptions& characterization = {},
                             const CompositionOptions& composition = {});

/// Per-corner calibration: runs the same characterize -> fit -> calibrate
/// flow against the derated descriptor from corner_technology(), applies
/// the corner's leakage derate to the fitted leakage coefficients, and
/// folds the corner id into the content-cache key so each corner caches
/// independently. The `cache_path` coefficient-file tier only applies to
/// the nominal corner (.pimfit files carry no corner identity). Counts
/// corner.<name>.fit.{hit,compute} obs metrics.
TechnologyFit corner_calibrated_fit(TechNode node, const Corner& corner,
                                    const std::string& cache_path = "",
                                    const CharacterizationOptions& characterization = {},
                                    const CompositionOptions& composition = {});

/// Same flow against an arbitrary base descriptor (e.g. one loaded from
/// a tech file) instead of the built-in table: derates via
/// corner_technology(base, corner), so equal-content bases share fits.
TechnologyFit corner_calibrated_fit(const Technology& base, const Corner& corner,
                                    const std::string& cache_path = "",
                                    const CharacterizationOptions& characterization = {},
                                    const CompositionOptions& composition = {});

/// A calibrated fit held resident in process RAM, plus the identities a
/// serving layer keys further memoization on (resident models, cached
/// wrappers). The fit is shared and immutable — safe to read from any
/// thread.
struct ResidentFit {
  std::shared_ptr<const TechnologyFit> fit;
  std::string key_hex;     ///< hex id of the fit's content-cache key
  std::string coeff_hash;  ///< SHA-256 of write_fit(*fit) — the signature token
  /// Resident-memo key of the fit served: key_hex, plus the content
  /// digest of the coefficient file when its tier applies. Memos of
  /// values derived from the fit key on this, not on key_hex.
  std::string memo_key;
};

/// corner_calibrated_fit with a process-wide residency memo in front of
/// the content-addressed store: a warm call skips the store read, the
/// payload parse, AND the coefficient re-hash, returning the same shared
/// fit a previous call resolved. Every observable contract of the store
/// path is preserved — corner.<name>.fit.hit is counted, the coefficient
/// hash is registered as the fit artifact, and the fit key is published
/// to the enclosing provenance scope — so downstream manifests are
/// identical whichever tier served the fit. A memo hit additionally
/// counts fit.resident.hit. Concurrent misses on one fit compute it once
/// (the other callers wait, then count a hit), and a fit whose compute
/// fails or is stopped is not stored. The memo is bypassed entirely
/// (reads and inserts) while cache mode is `off` or the fault harness is
/// armed, mirroring the store's own bypass semantics (cache/resident.hpp).
/// This is the hot path a long-running server (pimd) evaluates millions
/// of links through.
ResidentFit resident_corner_fit(const Technology& base, const Corner& corner,
                                const std::string& cache_path = "",
                                const CharacterizationOptions& characterization = {},
                                const CompositionOptions& composition = {});

/// Drops every resident fit (tests / explicit invalidation flows).
void clear_resident_fits();

}  // namespace pim
