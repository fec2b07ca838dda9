// Cooperative cancellation and wall-clock time budgets.
//
// The ambient token has two parts: (a) an absolute steady-clock deadline
// armed from a millisecond budget, and (b) an external cancel flag
// tripped by request_cancel() — typically from the CLI's SIGINT/SIGTERM
// handlers. The deadline (and the grace depth, see GraceScope) is
// thread-scoped: each request arms its own budget on the thread serving
// it, so concurrent requests (pimd workers, the items of one run_batch)
// never truncate each other. The exec engine hands the entering thread's
// deadline and grace to every thread slot of a parallel region (see
// inherited()/Inherit), so a budget covers all the work a request fans
// out. The cancel flag is process-wide: one SIGINT stops everything.
// Long-running code does not receive a token argument; it polls check()
// at item boundaries (the exec engine does this automatically for every
// parallel region), which keeps the API surface identical whether or not
// a budget is set.
//
// check() is engineered for the hot path: when no deadline is armed on
// the calling thread, no cancel is pending, and the fault harness is
// disarmed, it is three loads and a branch with no clock read — regions
// without budgets run at full speed and produce byte-identical output to
// a build without this layer.
//
// Determinism contract (docs/robustness.md): wall-clock expiry is
// inherently timing-dependent, so the engine converts any stop into a
// *prefix cutoff* — the completed item set is always exactly [0, cutoff)
// and per-item results are bit-identical at any --threads. For tests, the
// `deadline-expire` and `cancel-midchunk` fault sites make the stop
// itself deterministic: their per-item streams are pure functions of
// (seed, item index), so the cutoff is identical at any thread count.
//
// Metrics: cancel.checks counts engaged polls (zero when idle),
// deadline.remaining_ns is force-set at region stops and scope exit so
// the run ledger captures truncated runs even without --profile.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/error.hpp"

namespace pim::deadline {

/// Why a cooperative region stopped early. `none` means it ran to
/// completion.
enum class StopReason {
  none,
  deadline_exceeded,  ///< wall-clock budget expired (or deadline-expire fault)
  cancelled,          ///< external cancel: SIGINT/SIGTERM or request_cancel()
};

/// Stable lowercase name, e.g. "deadline_exceeded".
const char* stop_reason_name(StopReason reason);

/// The ErrorCode a stop maps to (deadline_exceeded / cancelled).
/// `reason` must not be none.
ErrorCode error_code_for(StopReason reason);

/// Arms the calling thread's wall-clock budget: check() starts reporting
/// deadline_exceeded once `budget_ms` milliseconds of steady-clock time
/// have elapsed from this call. budget_ms <= 0 clears any armed deadline.
/// Does not touch the cancel flag.
void set_budget_ms(int64_t budget_ms);

/// Disarms the calling thread's deadline AND clears the process-wide
/// cancel flag (tests / request boundaries). The CLI's signal handlers
/// can re-trip cancel afterwards.
void reset();

/// Trips the external cancel flag. Async-signal-safe (one lock-free
/// atomic store), so SIGINT/SIGTERM handlers may call it directly.
void request_cancel();

/// True when request_cancel() has been called since the last reset().
bool cancel_requested();

/// Nanoseconds of the calling thread's budget left; INT64_MAX when no
/// deadline is armed, clamped at 0 once expired.
int64_t remaining_ns();

/// True when a deadline is armed on the calling thread or a cancel is
/// pending — i.e. check() is off its zero-cost fast path for a reason
/// other than fault arming.
bool engaged();

/// The poll. Order of precedence: fault sites (deterministic, drawn from
/// the current fault stream so the exec engine's per-item ScopedStream
/// makes them index-pure) > cancel flag > wall clock. Increments
/// cancel.checks only when off the fast path.
StopReason check();

/// Installs SIGINT/SIGTERM handlers that call request_cancel(), with
/// SA_RESETHAND so a second signal force-kills a stuck process. Idempotent.
void install_signal_handlers();

/// The typed error a stopped region raises when it cannot degrade to a
/// partial result: code from error_code_for(reason), message carrying the
/// completed-item count ("stopped after 137/1000 items: deadline
/// exceeded").
Error stop_error(StopReason reason, size_t completed, size_t total);

/// Force-sets the deadline.remaining_ns and partial.items gauges (they
/// appear in reports and the ledger even with collection off, like the
/// proc.* gauges). The exec engine calls this at every stopped region;
/// api entry points call it at scope exit.
void record_stop_metrics(size_t partial_items);

/// The calling thread's deadline state, as a value: what a parallel
/// region captures on entry and installs on each of its thread slots.
struct Inherited {
  int64_t deadline_ns = 0;  ///< absolute; 0 = none armed
  int grace_depth = 0;      ///< live GraceScopes
};

/// The calling thread's armed deadline and grace depth.
Inherited inherited();

/// RAII: installs `state` as the calling thread's deadline and grace for
/// the scope, and restores the thread's own state on exit. The exec
/// engine wraps every thread slot in one, so the items of a region poll
/// the budget (and honor the grace) of the thread that entered it.
class Inherit {
 public:
  explicit Inherit(const Inherited& state);
  ~Inherit();
  Inherit(const Inherit&) = delete;
  Inherit& operator=(const Inherit&) = delete;

 private:
  Inherited prev_;
};

/// Suppresses check() on the calling thread — and, through Inherit, in
/// the parallel regions it enters — for the scope: every poll reports
/// none while at least one GraceScope is alive. For the *bounded*
/// finalization work that must still complete after a stop was
/// acknowledged — re-evaluating an already-built best-so-far
/// architecture, flushing reports — not for dodging the budget.
class GraceScope {
 public:
  GraceScope();
  ~GraceScope();
  GraceScope(const GraceScope&) = delete;
  GraceScope& operator=(const GraceScope&) = delete;
};

/// RAII budget scope for api entry points: arms set_budget_ms(budget_ms)
/// on the calling thread on entry (<= 0 arms nothing) and on exit
/// restores the previously armed deadline (absolute, not re-derived) and
/// records deadline.remaining_ns. Does not clear the cancel flag — a
/// SIGINT must survive into the caller's finish path.
class Scope {
 public:
  explicit Scope(int64_t budget_ms);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int64_t prev_deadline_ns_;  // absolute; 0 = none was armed
};

}  // namespace pim::deadline
