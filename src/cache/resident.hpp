// Process-resident memos: the RAM tier in front of the content-addressed
// store. The resident fits (sta/calibrated.cpp), the resident models and
// the resident noise calibrations (api/pim_api.cpp) each keep immutable
// values keyed by a content-cache key, so a warm request skips the work
// that produced them. All three share this one helper and its rules:
//
//  - Bypass: while cache mode is `off` or the fault harness is armed, the
//    memo is neither read nor filled, mirroring the store's own bypass,
//    so injected faults and cache-off runs exercise the real compute path.
//  - Single flight: when several threads miss on one key at once, one of
//    them computes and the others wait, then take the hit path. Only a
//    completed value is stored: a compute that throws (a failure, or a
//    deadline/cancel stop) stores nothing, and its waiters retry — the
//    next one computes under its own deadline.
#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "cache/store.hpp"
#include "util/faultinject.hpp"

namespace pim::cache {

/// True when resident memos may serve and store values: the cache is not
/// `off` and the fault harness is disarmed.
inline bool resident_enabled() { return mode() != Mode::Off && !fault::armed(); }

/// A keyed, single-flight, process-lifetime memo of immutable values.
template <typename V>
class ResidentMemo {
 public:
  /// The value under `key`. A hit calls on_hit(value) — the caller's hit
  /// counter and side effects — and returns a copy. A miss runs compute()
  /// without holding the memo's lock and stores what it returns. Bypassed
  /// (compute() only) while !resident_enabled().
  template <typename Compute, typename OnHit>
  V get(const std::string& key, Compute&& compute, OnHit&& on_hit) {
    if (!resident_enabled()) return compute();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (const auto it = values_.find(key); it != values_.end()) {
        V value = it->second;
        lock.unlock();
        on_hit(value);
        return value;
      }
      if (computing_.insert(key).second) break;
      flight_done_.wait(lock);
    }
    lock.unlock();
    // Ends this thread's flight on every path: a thrown compute stores
    // nothing, and the waiters wake either way.
    struct Land {
      ResidentMemo& memo;
      const std::string& key;
      ~Land() {
        {
          std::lock_guard<std::mutex> lock(memo.mu_);
          memo.computing_.erase(key);
        }
        memo.flight_done_.notify_all();
      }
    };
    const Land land{*this, key};
    V value = compute();
    std::lock_guard<std::mutex> store_lock(mu_);
    values_.emplace(key, value);
    return value;
  }

  /// Drops every stored value (tests / explicit invalidation flows).
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    values_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable flight_done_;
  std::map<std::string, V> values_;
  std::set<std::string> computing_;  // keys with a compute in flight
};

}  // namespace pim::cache
