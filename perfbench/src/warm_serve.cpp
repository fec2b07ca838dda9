// warm_serve: the shipped pimd (--workers = nproc, --warm 65nm, a copy of
// the pre-populated warm cache) driven open loop from this process over
// nproc Unix-socket connections, at a ladder of fixed seeded-Poisson
// rates. Latency is timed from each request's scheduled send time.
//
// Mix by count: 85 % evaluate (model only), 8 % buffer, 5 % yield (2000
// samples), 2 % synthesis (vproc or dvopd). 80 % of link specs come from
// a fixed hot set of 32, warmed before anything is timed; the rest are
// unique, so buffer and yield miss the result cache, compute, and write.
// 20 % of requests carry a deadline_ms that never expires, which routes
// them through pimd's exclusive deadline lock.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "exec/engine.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace perfbench {
namespace {

namespace api = pim::api;
namespace wire = pim::api::wire;

// The ladder of offered rates, each with its share of --seconds. Every
// rung runs on every run, so a run does the same work on any machine; a
// traced run runs each rung once, for the rung's whole share.
//  - The latency metrics are read at the reference rung, the lowest, in
//    one-second repeats. The p50_ms metric is the lowest of the repeats'
//    medians: the host's neighbours slow it in bursts of a few seconds,
//    which raise some repeats' medians but not the calmest one, while a
//    slower pimd raises them all. serve_p50_ms and serve_p99_ms are over
//    all the repeats' samples pooled. At 400 req/s pimd runs at about a
//    tenth of its capacity (3000-4500 req/s on the reference host), so a
//    host that slows down for a while does not turn the reference into a
//    queueing test.
//  - The top rung offers far more than pimd can serve; the rate at which
//    it completes those requests is pimd's capacity (median over its
//    repeats).
//  - A rung passes when most of its repeats meet the latency limit; the
//    highest rate whose rung and every rung below it pass is
//    serve_max_rps.
struct Rung {
  double rate;   ///< req/s offered
  double share;  ///< of --seconds, over all repeats
  int repeats;
};
const Rung kLadder[] = {{400, 0.8, 16}, {800, 0.05, 1}, {1600, 0.05, 1}, {6400, 0.1, 3}};
constexpr size_t kReference = 0;
constexpr size_t kOverload = 3;
// A step meets the limit when its latency tail is at most this...
constexpr double kLatencyLimitMs = 50.0;
// ...and the generator itself kept to its schedule within this.
constexpr double kLateLimitMs = 10.0;
constexpr int kHotSpecs = 32;
constexpr double kHotShare = 0.8;
constexpr double kDeadlineShare = 0.2;
constexpr int64_t kGenerousDeadlineMs = 600000;
constexpr int kYieldSamples = 2000;
constexpr int kSamplePerOp = 6;  // correctness sample per op kind
constexpr int64_t kWarmupIdBase = 1000000000;

enum class Op { Evaluate, Buffer, Yield, Synthesis };
const char* op_name(Op op) {
  switch (op) {
    case Op::Evaluate: return "evaluate";
    case Op::Buffer: return "buffer";
    case Op::Yield: return "yield";
    case Op::Synthesis: return "synthesis";
  }
  return "?";
}

struct Request {
  int64_t id = 0;
  double at_s = 0.0;  ///< scheduled send time from the step start
  Op op = Op::Evaluate;
  bool deadline = false;
  api::AnyRequest request;
  std::string line;
};

const char* const kStyles[] = {"SS", "DS", "SH"};
const int kDrives[] = {4, 8, 12, 16, 24};

api::LinkSpec random_spec(Rng& rng, double length_mm) {
  api::LinkSpec spec;
  spec.tech = "65nm";
  spec.style = kStyles[rng.below(3)];
  spec.length_mm = length_mm;
  spec.drive = kDrives[rng.below(5)];
  spec.input_slew_ps = 50.0 + 25.0 * static_cast<double>(rng.below(5));
  return spec;
}

// Seeded request streams. The hot set and every arrival time, op,
// deadline flag and unique spec derive from the seed only.
class StreamMaker {
 public:
  // The hot set is the same for every seed (lengths 10/32 .. 10 mm,
  // styles, drives and slews cycling), so the cost mix of the requests
  // does not move with the seed; the seed picks which spec each request
  // uses.
  explicit StreamMaker(uint64_t seed) : seed_(seed), unique_rng_(seed ^ 0xC0FFEEull) {
    for (int i = 0; i < kHotSpecs; ++i) {
      api::LinkSpec spec;
      spec.tech = "65nm";
      spec.style = kStyles[i % std::size(kStyles)];
      spec.length_mm = 10.0 * (i + 1) / kHotSpecs;
      spec.drive = kDrives[i % std::size(kDrives)];
      spec.input_slew_ps = 50.0 + 25.0 * (i % 5);
      hot_.push_back(spec);
    }
  }

  // One evaluate, buffer and yield per hot spec plus both synthesis
  // specs: run once before anything is timed, so the hot set is warm in
  // pimd's caches as it is in a long-running daemon.
  std::vector<std::string> warmup_lines() const {
    std::vector<std::string> lines;
    int64_t id = kWarmupIdBase;
    for (const api::LinkSpec& spec : hot_) {
      api::LinkEvalRequest e;
      e.link = spec;
      api::BufferRequest b;
      b.link = spec;
      api::YieldRequest y;
      y.link = spec;
      y.samples = kYieldSamples;
      for (const api::AnyRequest& q : {api::AnyRequest(e), api::AnyRequest(b), api::AnyRequest(y)})
        lines.push_back(wire::write_request_line(id++, q));
    }
    for (const char* soc : {"vproc", "dvopd"}) {
      api::SynthesisRequest q;
      q.spec = soc;
      q.tech = "65nm";
      lines.push_back(wire::write_request_line(id++, q));
    }
    return lines;
  }

  std::vector<Request> step(int step_index, double rate, double duration_s) {
    Rng rng(seed_ * 1000003ull + static_cast<uint64_t>(step_index));
    std::vector<Request> out;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= duration_s) break;
      Request r;
      r.id = next_id_++;
      r.at_s = t;
      const double u = rng.uniform();
      r.op = u < 0.85 ? Op::Evaluate : u < 0.93 ? Op::Buffer : u < 0.98 ? Op::Yield
                                                                        : Op::Synthesis;
      r.deadline = rng.uniform() < kDeadlineShare;
      const int64_t deadline_ms = r.deadline ? kGenerousDeadlineMs : 0;
      api::LinkSpec spec = rng.uniform() < kHotShare ? hot_[rng.below(kHotSpecs)] : unique();
      switch (r.op) {
        case Op::Evaluate: {
          api::LinkEvalRequest q;
          q.link = spec;
          q.deadline_ms = deadline_ms;
          r.request = q;
          break;
        }
        case Op::Buffer: {
          api::BufferRequest q;
          q.link = spec;
          q.deadline_ms = deadline_ms;
          r.request = q;
          break;
        }
        case Op::Yield: {
          api::YieldRequest q;
          q.link = spec;
          q.samples = kYieldSamples;
          q.deadline_ms = deadline_ms;
          r.request = q;
          break;
        }
        case Op::Synthesis: {
          api::SynthesisRequest q;
          q.spec = rng.below(2) == 0 ? "vproc" : "dvopd";
          q.tech = "65nm";
          q.deadline_ms = deadline_ms;
          r.request = q;
          break;
        }
      }
      r.line = wire::write_request_line(r.id, r.request);
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  // Distinct lengths (a low-discrepancy walk over 1-10 mm at 1 um
  // resolution), so a unique spec never repeats within a run.
  api::LinkSpec unique() {
    phase_ = std::fmod(phase_ + 0.6180339887498949, 1.0);
    const double length = std::round((1.0 + 9.0 * phase_) * 1e3) / 1e3 + 1e-6 * (++unique_n_);
    return random_spec(unique_rng_, length);
  }

  uint64_t seed_;
  Rng unique_rng_;
  std::vector<api::LinkSpec> hot_;
  int64_t next_id_ = 1;
  double phase_ = 0.0;
  int64_t unique_n_ = 0;
};

// ------------------------------------------------------------------ pimd

// pimd runs --workers = nproc and --threads 1: the workers already keep
// every core busy, so flows inside one request run single-threaded
// rather than oversubscribing the cores.
class Pimd {
 public:
  Pimd(const Options& o, const std::string& cache_dir, const std::string& socket, int workers) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    const std::string log = o.state + "/pimd.log";
    const std::string w = std::to_string(workers);
    const std::vector<std::string> args = {
        o.pimd,         "--socket", socket,     "--workers", w,          "--threads", "1",
        "--queue",      "1000000",  "--warm",   "65nm",      "--cache-dir", cache_dir,
        "--out-dir",    o.state,    "--ledger", "off",       "--log-level", "warn"};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(out[0]);
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
    // Block on the machine-readable ready line.
    std::string buf;
    const int64_t deadline = now_ns() + int64_t{60} * 1000000000;
    while (buf.find("\"ready\"") == std::string::npos) {
      pollfd p{stdout_fd_, POLLIN, 0};
      const int64_t left_ms = (deadline - now_ns()) / 1000000;
      if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
        stop();
        throw std::runtime_error("pimd did not print its ready line");
      }
      char chunk[512];
      const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        stop();
        throw std::runtime_error("pimd exited before its ready line");
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
  }
  ~Pimd() { stop(); }
  Pimd(const Pimd&) = delete;
  Pimd& operator=(const Pimd&) = delete;

  /// Peak RSS (VmHWM) in MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
  }

  /// SIGTERM (pimd drains), then waits; SIGKILL after 30 s.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = now_ns() + int64_t{30} * 1000000000;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_ns() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error("cannot connect to " + path);
  return fd;
}

bool send_all(int fd, const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads newline-framed responses from one connection.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// Next line, or false on EOF / error / the absolute deadline.
  bool next(std::string& line, int64_t deadline_ns) {
    for (;;) {
      const size_t pos = buf_.find('\n');
      if (pos != std::string::npos) {
        line = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      const int64_t left_ms = (deadline_ns - now_ns()) / 1000000;
      if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left_ms, 1000))) < 0)
        return false;
      if ((p.revents & (POLLIN | POLLHUP)) == 0) continue;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

struct StepResult {
  double rate = 0.0;
  int repeat = 0;
  std::vector<double> latency_ms;  ///< per request, from scheduled send time
  std::vector<double> late_ms;     ///< generator lateness per request
  std::vector<char> ok;            ///< response arrived, ok, with the expected id
  std::vector<std::string> kept;   ///< responses of sampled and failed requests
  int64_t backlog_at_end = 0;      ///< outstanding when the schedule ended
  double completed_per_s = 0.0;    ///< responses / (last response - first due)
  bool passed = false;
  Tail tail_ms;
  Tail late_tail_ms;
};

// Drives one open-loop step: one sender (this thread) on the seeded
// schedule and one reader thread polling every connection. Request i goes
// to connection i % C, so each connection's responses arrive in a known
// order.
StepResult drive_step(std::vector<int>& fds, const std::vector<Request>& reqs,
                      const std::set<size_t>& keep) {
  const size_t n = reqs.size(), c = fds.size();
  StepResult res;
  res.latency_ms.assign(n, -1.0);  // < 0: no response yet
  res.late_ms.assign(n, 0.0);
  res.ok.assign(n, 0);
  res.kept.assign(n, std::string());
  std::vector<int64_t> due(n, 0);
  std::atomic<int64_t> received{0};
  const int64_t start = now_ns() + 5000000;  // 5 ms lead
  for (size_t i = 0; i < n; ++i) due[i] = start + static_cast<int64_t>(reqs[i].at_s * 1e9);
  const int64_t give_up =
      start + static_cast<int64_t>((n == 0 ? 0.0 : reqs.back().at_s) * 1e9) +
      int64_t{90} * 1000000000;

  std::thread reader([&] {
    std::vector<std::string> bufs(c);
    std::vector<size_t> next(c);  // next request index expected per connection
    for (size_t k = 0; k < c; ++k) next[k] = k;
    std::vector<pollfd> pfds(c);
    const auto busy = [&] {
      return std::any_of(next.begin(), next.end(), [&](size_t i) { return i < n; });
    };
    while (busy() && now_ns() < give_up) {
      for (size_t k = 0; k < c; ++k)
        pfds[k] = pollfd{fds[k], static_cast<short>(next[k] < n ? POLLIN : 0), 0};
      if (::poll(pfds.data(), c, 100) < 0 && errno != EINTR) return;
      for (size_t k = 0; k < c; ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char chunk[65536];
        const ssize_t got = ::recv(fds[k], chunk, sizeof(chunk), 0);
        if (got <= 0) {
          next[k] = n;  // connection lost: its remaining requests stay failed
          continue;
        }
        const int64_t t = now_ns();
        bufs[k].append(chunk, static_cast<size_t>(got));
        size_t pos;
        while (next[k] < n && (pos = bufs[k].find('\n')) != std::string::npos) {
          const std::string line = bufs[k].substr(0, pos);
          bufs[k].erase(0, pos + 1);
          const size_t i = next[k];
          next[k] += c;
          res.latency_ms[i] = static_cast<double>(t - due[i]) * 1e-6;
          const std::string want_id = "{\"id\":" + std::to_string(reqs[i].id) + ",";
          res.ok[i] = line.rfind(want_id, 0) == 0 &&
                      line.find("\"ok\":true") != std::string::npos;
          if (keep.count(i) || !res.ok[i]) res.kept[i] = line;
          received.fetch_add(1);
        }
      }
    }
  });
  for (size_t i = 0; i < n; ++i) {
    while (now_ns() < due[i]) {
      const int64_t left = due[i] - now_ns();
      if (left > 200000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    }
    res.late_ms[i] = static_cast<double>(now_ns() - due[i]) * 1e-6;
    send_all(fds[i % c], reqs[i].line + "\n");
  }
  res.backlog_at_end = static_cast<int64_t>(n) - received.load();
  reader.join();
  // A request that never got its response counts with the time the
  // reader gave up on it, so lost responses never read as fast ones.
  const int64_t end = now_ns();
  for (size_t i = 0; i < n; ++i)
    if (res.latency_ms[i] < 0.0) res.latency_ms[i] = static_cast<double>(end - due[i]) * 1e-6;
  if (n > 0) {
    double last_ms = 0.0;
    for (size_t i = 0; i < n; ++i)
      last_ms = std::max(last_ms, static_cast<double>(due[i] - due[0]) * 1e-6 + res.latency_ms[i]);
    res.completed_per_s = static_cast<double>(received.load()) / (last_ms * 1e-3);
  }
  return res;
}

void judge(StepResult& s) {
  s.tail_ms = tail(s.latency_ms);
  s.late_tail_ms = tail(s.late_ms);
  const bool all_ok = std::all_of(s.ok.begin(), s.ok.end(), [](char b) { return b != 0; });
  const double backlog_limit = std::max(16.0, s.rate * kLatencyLimitMs * 1e-3);
  s.passed = all_ok && s.tail_ms.value <= kLatencyLimitMs &&
             static_cast<double>(s.backlog_at_end) <= backlog_limit &&
             s.late_tail_ms.value <= kLateLimitMs;
}

// A seeded sample of request indices per op kind for the byte-identity
// check against in-process wire::execute_line.
std::set<size_t> sample_indices(const std::vector<Request>& reqs, uint64_t seed) {
  Rng rng(seed ^ 0x5A3D1Eull);
  std::set<size_t> keep;
  for (Op op : {Op::Evaluate, Op::Buffer, Op::Yield, Op::Synthesis}) {
    std::vector<size_t> of;
    for (size_t i = 0; i < reqs.size(); ++i)
      if (reqs[i].op == op) of.push_back(i);
    for (int k = 0; k < kSamplePerOp && !of.empty(); ++k) {
      const size_t j = rng.below(of.size());
      keep.insert(of[j]);
      of.erase(of.begin() + static_cast<long>(j));
    }
  }
  return keep;
}

std::string fresh_cache_copy(const Options& o, const std::string& base, const std::string& name) {
  const std::string dir = o.state + "/serve-cache/" + name;
  remove_tree(dir);
  copy_tree(base, dir);
  return dir;
}

std::vector<double> of_kind(const std::vector<double>& v, const std::vector<Request>& reqs,
                            bool deadline) {
  std::vector<double> out;
  for (size_t i = 0; i < v.size(); ++i)
    if (reqs[i].deadline == deadline) out.push_back(v[i]);
  return out;
}

int64_t counter(const char* name) { return pim::obs::registry().counter(name).value(); }

}  // namespace

Outcome run_warm_serve(const Options& o) {
  Outcome out;
  const int workers = host_threads();
  pim::exec::set_threads(workers);
  const WarmCache warm = warm_base_cache(o);
  const std::string& base = warm.dir;
  const std::string want_fit = expected(o).find("fit_sha256")->text;
  out.check(warm.fit_sha256 == want_fit,
            "warm cache fit sha256 " + warm.fit_sha256 + " != recorded " + want_fit);
  const std::string socket = o.state.substr(o.root.size() + 1) + "/pimd.sock";
  out.note("cache_temperature", "warm (pimd --warm 65nm over a copy of the warm cache)");
  out.note("pimd_workers", std::to_string(workers));
  out.note("pimd_threads", "1");
  out.note("connections", std::to_string(workers));

  // Set-up, seven times: cache copy, pimd spawn until its ready line, and
  // the warm-up requests over one connection.
  StreamMaker streams(o.seed);
  const std::vector<std::string> warmup = streams.warmup_lines();
  std::vector<double> setups;
  std::unique_ptr<Pimd> pimd;
  for (int i = 0; i < (o.trace ? 1 : 7); ++i) {
    pimd.reset();
    const int64_t t0 = now_ns();
    const std::string dir = fresh_cache_copy(o, base, "pimd");
    pimd = std::make_unique<Pimd>(o, dir, socket, workers);
    const int fd = connect_unix(socket);
    std::string batch;
    for (const std::string& line : warmup) batch += line + "\n";
    send_all(fd, batch);
    LineReader reader(fd);
    for (size_t k = 0; k < warmup.size(); ++k) {
      std::string line;
      const bool got = reader.next(line, now_ns() + int64_t{60} * 1000000000);
      out.check(got && line.find("\"ok\":true") != std::string::npos,
                "warm-up request " + warmup[k] + " got " + (got ? line : "no response"));
    }
    ::close(fd);
    setups.push_back(seconds_since(t0));
  }

  std::vector<int> fds;
  for (int k = 0; k < workers; ++k) fds.push_back(connect_unix(socket));

  std::vector<StepResult> steps;
  std::vector<size_t> ref_steps;  // indices of the reference repeats in steps
  std::vector<Request> ref_reqs;  // the first reference repeat's stream
  std::set<size_t> keep;
  // pimd's peak RSS after the reference rung: the metric. Its peak over
  // the whole ladder depends on how many rungs ran, so it is only a
  // figure.
  double ref_rss = 0.0;
  double max_rps = 0.0;
  bool below_passed = true;
  for (size_t k = 0; k < std::size(kLadder); ++k) {
    const Rung& rung = kLadder[k];
    const int repeats = o.trace ? 1 : rung.repeats;
    int passes = 0;
    for (int r = 0; r < repeats; ++r) {
      std::vector<Request> reqs = streams.step(static_cast<int>(16 * k) + r, rung.rate,
                                               rung.share * o.seconds / repeats);
      const bool first_ref = k == kReference && r == 0;
      const std::set<size_t> kk = first_ref ? sample_indices(reqs, o.seed) : std::set<size_t>{};
      StepResult s = drive_step(fds, reqs, kk);
      s.rate = rung.rate;
      s.repeat = r;
      judge(s);
      for (size_t i = 0; i < reqs.size(); ++i)
        out.check(s.ok[i], std::string(op_name(reqs[i].op)) + " request " + reqs[i].line +
                               " got " + (s.kept[i].empty() ? "no response" : s.kept[i]));
      passes += s.passed ? 1 : 0;
      steps.push_back(std::move(s));
      if (k == kReference) ref_steps.push_back(steps.size() - 1);
      if (first_ref) {
        ref_reqs = std::move(reqs);
        keep = kk;
      }
    }
    if (k == kReference) ref_rss = pimd->peak_rss_mb();
    below_passed = below_passed && 2 * passes > repeats;
    if (below_passed) max_rps = rung.rate;
  }
  std::vector<double> capacity;
  for (const StepResult& s : steps)
    if (s.rate == kLadder[kOverload].rate) capacity.push_back(s.completed_per_s);

  // Daemon-side counters, then shut it down.
  int64_t rejected = 0;
  {
    const int fd = connect_unix(socket);
    send_all(fd, "{\"op\":\"stats\",\"id\":0}\n");
    LineReader reader(fd);
    std::string line;
    if (reader.next(line, now_ns() + int64_t{10} * 1000000000)) {
      const pim::obs::JsonValue v = pim::obs::parse_json(line);
      if (const auto* r = v.find("result"))
        if (const auto* rej = r->find("rejected")) rejected = static_cast<int64_t>(rej->number);
    }
    ::close(fd);
  }
  for (int fd : fds) ::close(fd);
  const double pimd_rss = pimd->peak_rss_mb();
  pimd.reset();

  // Byte identity of the sampled responses against in-process execution
  // on a fresh copy of the same warm cache.
  use_private_cache(fresh_cache_copy(o, base, "check"));
  const StepResult& ref = steps[ref_steps.front()];
  for (size_t i : keep) {
    const std::string local = wire::execute_line(ref_reqs[i].line);
    out.check(!ref.kept[i].empty() && local == ref.kept[i],
              std::string(op_name(ref_reqs[i].op)) + " request " +
                  std::to_string(ref_reqs[i].id) + " differs from wire::execute_line");
  }
  api::FitRequest fit_req;
  fit_req.tech = "65nm";
  const auto fit = api::run_fit(fit_req);
  out.check(fit.ok(), "fit of the served technology failed");
  const std::string fit_text = fit.ok() ? fit.value().fit_text : std::string();

  // The p50_ms metric: the lowest of the reference repeats' medians.
  // serve_p50_ms / serve_p99_ms: over their samples pooled (~6 000 at
  // 20 s).
  std::vector<double> ref_latency, ref_p50;
  for (size_t i : ref_steps) {
    ref_latency.insert(ref_latency.end(), steps[i].latency_ms.begin(),
                       steps[i].latency_ms.end());
    ref_p50.push_back(median(steps[i].latency_ms));
  }
  const Tail ref_tail = tail(ref_latency);
  const double serve_p50 = median(ref_latency), serve_p99 = ref_tail.value;
  const double calm_p50 = *std::min_element(ref_p50.begin(), ref_p50.end());
  if (!o.trace) {
    out.metric("setup_s", "s", median(setups));
    out.metric("p50_ms", "ms", calm_p50);
    out.metric("fit_r2_min", "1", fit_text.empty() ? 0.0 : fit_r2_min(fit_text));
    out.metric("model_err_max_pct", "%",
               fit_text.empty() ? 0.0 : fit_calibration_err_pct(fit_text));
    out.metric("peak_rss_mb", "MB", ref_rss);
  }
  out.detail("pimd_peak_rss_mb.ladder", "MB", pimd_rss);
  out.detail("serve_p50_ms", "ms", serve_p50);
  out.detail("serve_p50_ms.calmest_repeat", "ms", calm_p50);
  out.detail("serve_p99_ms", "ms", serve_p99);
  out.detail("serve_max_rps", "req/s", max_rps);
  out.detail("serve_capacity_rps", "req/s", median(capacity));
  out.detail("reference_rate", "req/s", kLadder[kReference].rate);
  out.note("serve_p99_ms", ref_tail.label + " of " + std::to_string(ref_tail.samples) +
                               " requests over " + std::to_string(ref_steps.size()) +
                               " reference repeats");
  out.note("setup_s", join(setups));
  for (const StepResult& s : steps) {
    const std::string r =
        std::to_string(static_cast<int>(s.rate)) + "." + std::to_string(s.repeat);
    out.detail("step." + r + ".p50_ms", "ms", median(s.latency_ms));
    out.detail("step." + r + "." + s.tail_ms.label + "_ms", "ms", s.tail_ms.value);
    out.detail("step." + r + ".late_" + s.late_tail_ms.label + "_ms", "ms",
               s.late_tail_ms.value);
    out.detail("step." + r + ".backlog_at_end", "count", static_cast<double>(s.backlog_at_end));
    out.detail("step." + r + ".completed_per_s", "req/s", s.completed_per_s);
    out.detail("step." + r + ".requests", "count", static_cast<double>(s.latency_ms.size()));
    out.detail("step." + r + ".passed", "1", s.passed ? 1.0 : 0.0);
  }

  if (o.trace) {
    // Service time of the same stream in-process, untraced then traced,
    // each on a fresh copy of the warm cache, single-threaded like a
    // pimd worker (--threads 1).
    pim::exec::set_threads(1);
    use_private_cache(fresh_cache_copy(o, base, "replay"));
    for (const std::string& line : warmup) wire::execute_line(line);
    pim::obs::set_enabled(false);
    std::vector<double> service_ms;
    const int64_t u0 = now_ns();
    for (const Request& r : ref_reqs) {
      const int64_t t0 = now_ns();
      const wire::RequestLine parsed = wire::parse_request_line(r.line);
      const std::string text = wire::write_result_line(parsed, api::run_any(parsed.request));
      service_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    const double untraced_s = seconds_since(u0);

    use_private_cache(fresh_cache_copy(o, base, "replay-traced"));
    for (const std::string& line : warmup) wire::execute_line(line);
    pim::obs::set_enabled(true);
    tracer().clear();
    tracer().enabled = true;
    int64_t hit = 0, miss = 0, write = 0, model_hit = 0, model_users = 0;
    std::vector<double> wire_us;
    const int64_t t0 = now_ns();
    for (const Request& r : ref_reqs) {
      Scope request("serve.request", r.id);
      const int64_t w0 = now_ns();
      int64_t wire_ns = 0;
      {
        Scope s("api.wire.write_request", r.id);
        wire::write_request_line(r.id, r.request);
      }
      wire::RequestLine parsed;
      {
        Scope s("api.wire.parse", r.id);
        parsed = wire::parse_request_line(r.line);
      }
      wire_ns += now_ns() - w0;
      pim::Expected<api::AnyResult> result = pim::Error("not run", pim::ErrorCode::internal);
      {
        Scope s(std::string("api.run_") + op_name(r.op), r.id);
        result = api::run_any(parsed.request);
      }
      hit += counter("cache.hit");
      miss += counter("cache.miss");
      write += counter("cache.write");
      if (r.op != Op::Synthesis) {
        ++model_users;
        model_hit += counter("model.resident.hit");
      }
      const int64_t w1 = now_ns();
      {
        Scope s("api.wire.write_result", r.id);
        wire::write_result_line(parsed, result);
      }
      wire_ns += now_ns() - w1;
      wire_us.push_back(static_cast<double>(wire_ns) * 1e-3);
    }
    const double traced_s = seconds_since(t0);
    tracer().enabled = false;
    pim::obs::set_enabled(false);

    std::vector<double> overhead_ms;
    for (size_t i = 0; i < ref_reqs.size(); ++i)
      overhead_ms.push_back(ref.latency_ms[i] - service_ms[i]);
    const auto us = [](const char* name, double q) {
      const SpanStats s = tracer().stat(name);
      return 1e6 * (q >= 0.99 ? tail(s.durations_s).value : quantile(s.durations_s, q));
    };
    out.metric("models.evaluate_us.p50", "us", us("api.run_evaluate", 0.5));
    out.metric("models.evaluate_us.p99", "us", us("api.run_evaluate", 0.99));
    out.metric("buffering.buffer_us.p50", "us", us("api.run_buffer", 0.5));
    out.metric("buffering.buffer_us.p99", "us", us("api.run_buffer", 0.99));
    out.metric("variation.yield_us.p50", "us", us("api.run_yield", 0.5));
    out.metric("variation.yield_us.p99", "us", us("api.run_yield", 0.99));
    out.metric("cosi.synthesis_ms.p50", "ms", 1e-3 * us("api.run_synthesis", 0.5));
    out.metric("cosi.synthesis_ms.p99", "ms", 1e-3 * us("api.run_synthesis", 0.99));
    out.metric("api.wire_us.p50", "us", quantile(wire_us, 0.5));
    out.metric("api.wire_us.p99", "us", tail(wire_us).value);
    out.metric("serve.overhead_ms.p50", "ms", quantile(overhead_ms, 0.5));
    out.metric("serve.overhead_ms.p99", "ms", tail(overhead_ms).value);
    out.metric("serve.rejected", "count", static_cast<double>(rejected));
    out.metric("serve.capacity_rps", "req/s", median(capacity));
    out.metric("serve.max_rps", "req/s", max_rps);
    out.metric("serve.p99_ms", "ms", ref.tail_ms.value);
    out.metric("serve.p99_ms.deadline", "ms", tail(of_kind(ref.latency_ms, ref_reqs, true)).value);
    out.metric("serve.p99_ms.nodeadline", "ms",
               tail(of_kind(ref.latency_ms, ref_reqs, false)).value);
    out.metric("loadgen.late_p99_ms", "ms", ref.late_tail_ms.value);
    out.metric("cache.hit", "count", static_cast<double>(hit));
    out.metric("cache.miss", "count", static_cast<double>(miss));
    out.metric("cache.write", "count", static_cast<double>(write));
    out.metric("cache.hit_rate", "1", hit + miss > 0 ? double(hit) / double(hit + miss) : 0.0);
    out.metric("cache.resident_hit_rate", "1",
               model_users > 0 ? double(model_hit) / double(model_users) : 0.0);
    out.metric("trace.overhead_pct", "%", 100.0 * (traced_s / untraced_s - 1.0));
    const SpanStats root = tracer().stat("serve.request");
    out.metric("trace.unattributed_pct", "%", 100.0 * root.self_s / root.total_s);
  }
  return out;
}

}  // namespace perfbench
