#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"

namespace pim::exec {
namespace {

// ------------------------------------------------------------ threads

std::atomic<int>& pinned_threads() {
  static std::atomic<int> pinned{0};
  return pinned;
}

int env_threads() {
  const char* env = std::getenv("PIM_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  // A malformed value must not abort the process at an arbitrary point;
  // it just falls back to the hardware default.
  try {
    const long n = parse_long(env);
    return n >= 1 ? static_cast<int>(n) : 0;
  } catch (const Error&) {
    return 0;
  }
}

// -------------------------------------------------------------- pool

// Work-queue thread pool shared by every parallel region. Workers are
// spawned lazily up to the largest count any region has requested and
// parked on the queue's condition variable between regions; the
// destructor (static destruction at process exit) drains and joins them.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void ensure_workers(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < n) workers_.emplace_back([this] { worker_loop(); });
  }

  void submit(const void* owner, size_t slot, std::function<void()> run) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(Task{owner, slot, std::move(run)});
    }
    cv_.notify_one();
  }

  // Removes the tasks of `owner` that no worker has started yet and
  // returns their slot numbers. A region's join then waits only for
  // slots already running: a worker blocked elsewhere (say, waiting on a
  // resident memo another thread is filling through this very region)
  // can never hold the region up.
  std::vector<size_t> take_back(const void* owner) {
    std::vector<size_t> slots;
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(queue_, [&](const Task& t) {
      if (t.owner != owner) return false;
      slots.push_back(t.slot);
      return true;
    });
    return slots;
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

 private:
  struct Task {
    const void* owner;  // the submitting region
    size_t slot;
    std::function<void()> run;
  };

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested and drained
        task = std::move(queue_.front().run);
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

// True while this thread is executing a slot of some region; nested
// regions then run inline instead of re-entering the pool.
bool& in_region() {
  thread_local bool inside = false;
  return inside;
}

// -------------------------------------------------------------- slots

// Claim state shared by a region's slots. Blocks of `grain` indices are
// handed out in ascending order, so every index below any claimed one has
// itself been claimed — and a slot polls every item of its block unless
// it stopped at a lower one.
struct Claims {
  Claims(size_t n, size_t grain, bool fanned_out)
      : n(n), grain(grain), fanned_out(fanned_out) {}
  const size_t n;
  const size_t grain;
  // True when the region runs on more than one slot: its items then run
  // nested regions inline. A one-slot region on a top-level thread leaves
  // them free to fan out — a one-item batch keeps the parallelism of a
  // direct call.
  const bool fanned_out;
  // Fault-stream ids, resolved on the thread entering the region so a
  // nested region's items derive from the enclosing item's stream.
  const fault::StreamFork streams;
  // The entering thread's deadline and grace, installed on every slot so
  // the region polls the budget of the request that entered it.
  const deadline::Inherited deadline = deadline::inherited();
  std::atomic<size_t> next{0};
  // Set by the first slot that stops (deadline/cancel stop, or a
  // fail-fast failure): the others stop claiming. Indices below the
  // stopping item were all claimed already, so this only drops work the
  // reduction would discard anyway.
  std::atomic<bool> halt{false};
};

struct SlotResult {
  std::vector<detail::ItemFailure> failures;  // ascending within the slot
  // Item index at which a deadline/cancel stop triggered (the item did
  // NOT run); SIZE_MAX when the slot never saw a stop.
  size_t stop_index = SIZE_MAX;
  deadline::StopReason stop = deadline::StopReason::none;
  size_t claimed = 0;  // items this slot started, stop item included
};

// Runs one thread slot on the current thread: claims blocks of items
// until the region is exhausted or halted, runs each item under its own
// fault stream and deadline/cancel poll, with error capture per item and
// one metric shard for the slot (merged before returning). fail_fast
// halts the region at the slot's first failure.
void run_slot(Claims& claims, bool fail_fast, const std::function<void(size_t)>& body,
              SlotResult& result) {
  obs::MetricShard shard;
  obs::ShardScope scope(shard);
  const deadline::Inherit inherit(claims.deadline);
  const bool was_inside = in_region();
  in_region() = was_inside || claims.fanned_out;
  // The block is finished even after another slot halts the region: an
  // item below that slot's stop may sit in it, and must still be polled
  // for the cutoff and the lowest failure to stay thread-count-invariant.
  bool done = false;
  while (!done && !claims.halt.load(std::memory_order_relaxed)) {
    const size_t begin = claims.next.fetch_add(claims.grain, std::memory_order_relaxed);
    if (begin >= claims.n) break;
    const size_t end = std::min(claims.n, begin + claims.grain);
    for (size_t i = begin; i < end && !done; ++i) {
      ++result.claimed;
      fault::ScopedStream stream(claims.streams.item(i));
      // Poll under the item's fault stream so the injected stop sites
      // draw streams that depend only on the item's index path — which
      // items trigger a stop is then identical at any thread count
      // (docs/robustness.md).
      const deadline::StopReason stop = deadline::check();
      if (stop != deadline::StopReason::none) {
        result.stop = stop;
        result.stop_index = i;
        done = true;
        break;
      }
      try {
        body(i);
        continue;
      } catch (const Error& e) {
        result.failures.push_back({i, e});
      } catch (const std::exception& e) {
        result.failures.push_back(
            {i, Error(std::string("parallel item threw a non-pim exception: ") + e.what(),
                      ErrorCode::internal)});
      } catch (...) {
        result.failures.push_back(
            {i, Error("parallel item threw an unknown exception", ErrorCode::internal)});
      }
      // Only a failed item gets here.
      done = fail_fast;
    }
  }
  if (done) claims.halt.store(true, std::memory_order_relaxed);
  in_region() = was_inside;
  shard.flush();
}

// --------------------------------------------------- scheduler metrics

// exec.* scheduler metrics (docs/observability.md). Handles resolve once;
// recording happens once per slot or region, OUTSIDE the slot's
// MetricShard (which run_slot uninstalls before returning), so the
// disabled path costs one relaxed load + branch per slot — nothing per
// item.
struct ExecMetrics {
  obs::Timer& queue_wait = obs::registry().timer("exec.queue.wait");
  obs::Timer& chunk_run = obs::registry().timer("exec.chunk.run");
  obs::Timer& chunk_items = obs::registry().timer("exec.chunk.items");
  obs::Gauge& busy = obs::registry().gauge("exec.thread.busy_ns");
  obs::Gauge& idle = obs::registry().gauge("exec.thread.idle_ns");
  obs::Gauge& imbalance = obs::registry().gauge("exec.region.imbalance");

  static ExecMetrics& get() {
    static ExecMetrics m;
    return m;
  }
};

// run_slot plus instrumentation: queue-wait latency (`queued_ns` is the
// submit timestamp; < 0 means the slot never sat in the pool queue —
// serial regions and the caller's slot 0), slot wall time, items claimed,
// and a chrome-trace span carrying the worker's real thread id. Every
// slot records, including one that found nothing left to claim. Returns
// the slot duration in ns (0 when collection is off).
int64_t run_slot_instr(Claims& claims, bool fail_fast,
                       const std::function<void(size_t)>& body, SlotResult& result,
                       int64_t queued_ns) {
  const bool timing = obs::enabled();
  const bool tracing = obs::trace_enabled();
  if (!timing && !tracing) {
    run_slot(claims, fail_fast, body, result);
    return 0;
  }
  ExecMetrics& m = ExecMetrics::get();
  const int64_t start = obs::now_ns();
  if (timing && queued_ns >= 0) m.queue_wait.record_ns(start - queued_ns);
  run_slot(claims, fail_fast, body, result);
  const int64_t dur = obs::now_ns() - start;
  if (timing) {
    m.chunk_run.record_ns(dur);
    m.chunk_items.record_ns(static_cast<int64_t>(result.claimed));
  }
  obs::record_trace_event("exec.chunk.run", start, dur);
  return dur;
}

// The metrics of a slot taken back from the pool queue before any worker
// started it: its queue wait, and a chunk that claimed no items.
void record_empty_slot(int64_t queued_ns) {
  if (queued_ns < 0 || !obs::enabled()) return;
  ExecMetrics& m = ExecMetrics::get();
  m.queue_wait.record_ns(obs::now_ns() - queued_ns);
  m.chunk_run.record_ns(0);
  m.chunk_items.record_ns(0);
}

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void set_threads(int n) { pinned_threads().store(n < 0 ? 0 : n, std::memory_order_relaxed); }

int threads() {
  const int pinned = pinned_threads().load(std::memory_order_relaxed);
  if (pinned >= 1) return pinned;
  const int env = env_threads();
  if (env >= 1) return env;
  return hardware_threads();
}

namespace detail {

namespace {

// Reduces slot results into the region outcome: cutoff = the minimum
// stop index over slots (completed set = [0, cutoff)), stop reason from
// that slot, and only failures below the cutoff survive, sorted by item.
RegionOutcome reduce_slots(size_t n, std::vector<SlotResult>& results) {
  RegionOutcome out;
  out.cutoff = n;
  for (const SlotResult& r : results) {
    if (r.stop_index < out.cutoff) {
      out.cutoff = r.stop_index;
      out.stop = r.stop;
    }
  }
  // Failures at or above the cutoff belong to discarded items and are
  // dropped with them.
  for (SlotResult& r : results)
    for (ItemFailure& f : r.failures)
      if (f.item < out.cutoff) out.failures.push_back(std::move(f));
  std::sort(out.failures.begin(), out.failures.end(),
            [](const ItemFailure& a, const ItemFailure& b) { return a.item < b.item; });
  if (out.stop != deadline::StopReason::none)
    deadline::record_stop_metrics(out.cutoff);
  return out;
}

}  // namespace

RegionOutcome run_region(size_t n, const ParallelOptions& options,
                         bool fail_fast,
                         const std::function<void(size_t)>& body) {
  if (n == 0) return {{}, deadline::StopReason::none, 0};
  size_t want = static_cast<size_t>(options.threads >= 1 ? options.threads : threads());
  const size_t grain = options.grain == 0 ? 1 : options.grain;
  want = std::min(want, (n + grain - 1) / grain);
  if (want < 1) want = 1;

  // Serial (or nested) regions run the identical claim loop on this
  // thread, so results are bit-identical to any parallel schedule.
  const bool serial = want == 1 || in_region();
  Claims claims(n, grain, !serial);
  if (serial) {
    std::vector<SlotResult> results(1);
    run_slot_instr(claims, fail_fast, body, results[0], /*queued_ns=*/-1);
    return reduce_slots(n, results);
  }

  const bool timing = obs::enabled();
  const int64_t region_start = timing ? obs::now_ns() : 0;

  std::vector<SlotResult> results(want);
  // Written only by the slot's runner; read after the join to derive the
  // region's busy/idle/imbalance gauges.
  std::vector<int64_t> slot_dur(want, 0);

  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  } join{{}, {}, want - 1};

  ThreadPool& pool = ThreadPool::instance();
  pool.ensure_workers(want - 1);
  std::vector<int64_t> submit_ns(want, -1);
  for (size_t c = 1; c < want; ++c) {
    submit_ns[c] = timing ? obs::now_ns() : -1;
    pool.submit(&claims, c, [&, c] {
      slot_dur[c] = run_slot_instr(claims, fail_fast, body, results[c], submit_ns[c]);
      // Notify under the lock: the caller destroys `join` as soon as it
      // observes remaining == 0, which it can only do after we release
      // the mutex — so the condition variable outlives this call.
      {
        std::lock_guard<std::mutex> lock(join.mu);
        --join.remaining;
        join.cv.notify_one();
      }
    });
  }
  // The calling thread runs slot 0, then joins. Slot 0 returns only once
  // the claims are exhausted or halted, so a slot still queued now would
  // find nothing to claim: take it back instead of waiting for a worker,
  // and record it as the empty slot it would have been.
  slot_dur[0] = run_slot_instr(claims, fail_fast, body, results[0], /*queued_ns=*/-1);
  const std::vector<size_t> unstarted = pool.take_back(&claims);
  for (size_t c : unstarted) record_empty_slot(submit_ns[c]);
  {
    std::unique_lock<std::mutex> lock(join.mu);
    join.remaining -= unstarted.size();
    join.cv.wait(lock, [&] { return join.remaining == 0; });
  }

  if (timing) {
    const int64_t wall = obs::now_ns() - region_start;
    int64_t busy = 0, max_dur = 0;
    for (int64_t d : slot_dur) {
      busy += d;
      max_dur = std::max(max_dur, d);
    }
    ExecMetrics& m = ExecMetrics::get();
    // busy/idle accumulate over the run; idle is the time the region's
    // thread slots were not running (queue wait, join).
    m.busy.add(static_cast<double>(busy));
    const int64_t idle = static_cast<int64_t>(want) * wall - busy;
    m.idle.add(static_cast<double>(idle > 0 ? idle : 0));
    // Imbalance = slowest slot / mean slot (1.0 = perfectly even); a
    // per-region reading, last region wins.
    if (busy > 0)
      m.imbalance.set(static_cast<double>(max_dur) * static_cast<double>(want) /
                      static_cast<double>(busy));
  }

  return reduce_slots(n, results);
}

void rethrow_first(const ItemFailure& failure) {
  throw failure.error.with_context("parallel item #" + std::to_string(failure.item));
}

}  // namespace detail
}  // namespace pim::exec
