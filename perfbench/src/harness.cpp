#include "harness.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "api/pim_api.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "exec/engine.hpp"
#include "sta/calibrated.hpp"
#include "util/version.hpp"

namespace perfbench {

namespace fs = std::filesystem;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

int Tracer::open(const std::string& name, int64_t request) {
  if (!enabled) return -1;
  Span s;
  s.name = name;
  s.parent = current_;
  s.request = request;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  spans_.back().start_ns = now_ns();
  return current_;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[id].end_ns = now_ns();
  current_ = spans_[id].parent;
}

void Tracer::clear() {
  spans_.clear();
  current_ = -1;
}

std::vector<SpanStats> Tracer::stats() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_s[s.parent] += (s.end_ns - s.start_ns) * 1e-9;
  std::vector<SpanStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const SpanStats& a) { return a.name == s.name; });
    if (it == out.end()) {
      out.push_back(SpanStats{s.name, {}, 0.0, 0.0});
      it = out.end() - 1;
    }
    const double dur = (s.end_ns - s.start_ns) * 1e-9;
    it->durations_s.push_back(dur);
    it->total_s += dur;
    it->self_s += dur - child_s[i];
  }
  return out;
}

SpanStats Tracer::stat(const std::string& name) const {
  for (SpanStats& s : stats())
    if (s.name == name) return s;
  return SpanStats{name, {}, 0.0, 0.0};
}

void Tracer::write(const std::string& path) const {
  std::ostringstream os;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << (s.start_ns - epoch)
       << ",\"end_ns\":" << (s.end_ns - epoch) << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}\n";
  }
  write_file(path, os.str());
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[idx];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string join(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  for (size_t i = 0; i < values.size(); ++i) os << (i ? " " : "") << values[i];
  return os.str();
}

Tail tail(const std::vector<double>& values) {
  static const std::pair<double, const char*> kLevels[] = {
      {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}, {0.50, "p50"}};
  const double n = static_cast<double>(values.size());
  for (const auto& [q, label] : kLevels)
    if ((1.0 - q) * n >= 10.0) return Tail{quantile(values, q), label, values.size()};
  return Tail{values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()),
              "max", values.size()};
}

// ---------------------------------------------------------------- outcome

void Outcome::check(bool ok, const std::string& problem) {
  ++attempted;
  if (ok) return;
  ++failed;
  mismatches.push_back(problem);
}

Counters capture_counters() { return Counters{pim::obs::registry().snapshot()}; }

int64_t Counters::count(const std::string& name) const {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

double Counters::gauge(const std::string& name) const {
  for (const auto& [n, v] : snap.gauges)
    if (n == name) return v;
  return 0.0;
}

double Counters::timer_total_s(const std::string& name) const {
  for (const pim::obs::TimerSnapshot& t : snap.timers)
    if (t.name == name) return static_cast<double>(t.total_ns) * 1e-9;
  return 0.0;
}

void report_solver_layers(Outcome& out, const Counters& c, int threads, double wall_s) {
  const int64_t steps = c.count("spice.timestep.count");
  out.metric("spice.transient.runs", "count", c.count("spice.transient.runs"));
  out.metric("spice.timestep.count", "count", steps);
  out.metric("spice.newton_per_step", "1",
             steps > 0 ? static_cast<double>(c.count("spice.newton.iterations")) / steps : 0.0);
  out.metric("numeric.banded.factorizations", "count",
             c.count("numeric.banded.factorizations"));
  out.metric("numeric.leastsq.solves", "count", c.count("numeric.leastsq.solves"));
  out.metric("exec.busy_frac", "1", c.gauge("exec.thread.busy_ns") * 1e-9 / (threads * wall_s));
  out.metric("exec.queue_wait_s", "s", c.timer_total_s("exec.queue.wait"));
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- environment

int host_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Median wall time of a fixed single-threaded integer loop: a yardstick
// for the host's speed at the moment of the run, so a drift in the
// metrics can be told apart from a drift of a shared host.
double ref_loop_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 7; ++rep) {
    const int64_t t0 = now_ns();
    uint64_t x = 1;
    for (int i = 0; i < 4000000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    volatile uint64_t sink = x;
    (void)sink;
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

}  // namespace

std::string fingerprint_json() {
  std::ostringstream os;
  os << "\"nproc\":" << host_threads() << ",\"threads\":" << host_threads()
     << ",\"cpu\":\"" << json_escape(cpu_model()) << "\",\"compiler\":\""
     << json_escape(__VERSION__) << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"pim_version\":\"" << pim::kVersion << "\",\"ref_loop_ms\":" << ref_loop_ms();
  return os.str();
}

void make_dirs(const std::string& path) { fs::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

void copy_tree(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  fs::copy(from, to, fs::copy_options::recursive | fs::copy_options::overwrite_existing);
}

bool file_exists(const std::string& path) { return fs::exists(path); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

const pim::obs::JsonValue& expected(const Options& options) {
  static const pim::obs::JsonValue doc =
      pim::obs::parse_json(read_file(options.root + "/perfbench/expected.json"));
  return doc;
}

void use_private_cache(const std::string& dir) {
  pim::cache::set_mode(pim::cache::Mode::ReadWrite);
  pim::cache::set_dir(dir);
  pim::cache::Store::global().clear_memory();
  pim::clear_resident_fits();
}

double run_self(const Options& options, const std::vector<std::string>& args) {
  std::vector<std::string> all = {"/proc/self/exe"};
  all.insert(all.end(), args.begin(), args.end());
  all.insert(all.end(), {"--root", options.root, "--state", options.state, "--pimd", options.pimd});
  std::vector<char*> argv;
  for (const std::string& a : all) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int64_t t0 = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  const double dt = seconds_since(t0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("driver child " + args.front() + " failed");
  return dt;
}

double probe_setup_s(const Options& options, int probes, std::vector<double>& samples) {
  std::vector<double> own;
  for (int i = 0; i < probes; ++i)
    own.push_back(run_self(options, {"--setup-probe", "1", "--workload", options.workload}));
  samples.insert(samples.end(), own.begin(), own.end());
  return median(own);
}

namespace {

// Size and mtime of a file, "-" when absent: a rebuilt binary changes them.
std::string file_identity(const std::string& path) {
  struct stat st {};
  if (path.empty() || ::stat(path.c_str(), &st) != 0) return "-";
  return std::to_string(st.st_size) + "@" + std::to_string(st.st_mtim.tv_sec) + "." +
         std::to_string(st.st_mtim.tv_nsec);
}

}  // namespace

WarmCache warm_base_cache(const Options& options) {
  const std::string want = expected(options).find("fit_sha256")->text;
  const std::string id = pim::cache::sha256_hex(
      file_identity("/proc/self/exe") + "|" + want + "|" + std::to_string(pim::kCacheFormatVersion));
  const std::string root = options.state + "/warm-cache";
  const std::string dir = root + "/" + id.substr(0, 16);
  make_dirs(options.state);
  // Exclusive lock: two runs in one checkout never populate concurrently.
  const int fd = ::open((options.state + "/warm-cache.lock").c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) throw std::runtime_error("cannot open warm-cache lock");
  ::flock(fd, LOCK_EX);
  try {
    if (!file_exists(dir + ".done")) {
      remove_tree(root);  // caches of earlier builds
      make_dirs(dir);
      run_self(options, {"--populate-warm", dir});
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  std::string sha = read_file(dir + ".done");
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) sha.pop_back();
  return WarmCache{dir, sha};
}

void populate_warm_cache(const std::string& dir) {
  pim::exec::set_threads(host_threads());
  use_private_cache(dir);
  pim::api::FitRequest req;
  req.tech = "65nm";
  const auto fit = pim::api::run_fit(req);
  if (!fit.ok())
    throw std::runtime_error(std::string("warm cache population failed: ") + fit.error().what());
  write_file(dir + ".done", pim::cache::sha256_hex(fit.value().fit_text) + "\n");
}

bool load_warm_fit(const std::string& warm_dir) {
  use_private_cache(warm_dir);
  pim::cache::set_mode(pim::cache::Mode::ReadOnly);
  const bool counting = pim::obs::enabled();
  pim::obs::set_enabled(true);
  pim::api::FitRequest req;
  req.tech = "65nm";
  const bool ok = pim::api::run_fit(req).ok();
  const bool hit = pim::obs::registry().counter("cache.hit").value() > 0;
  pim::obs::set_enabled(counting);
  return ok && hit;
}

double fit_r2_min(const std::string& fit_text) {
  const pim::TechnologyFit fit = pim::parse_fit(fit_text);
  double r2 = 1.0;
  for (const pim::RepeaterEdgeFit* e : {&fit.inv_rise, &fit.inv_fall, &fit.buf_rise, &fit.buf_fall})
    r2 = std::min({r2, e->r2_intrinsic, e->r2_drive_res});
  return r2;
}

double fit_calibration_err_pct(const std::string& fit_text) {
  const pim::TechnologyFit fit = pim::parse_fit(fit_text);
  return 100.0 * std::max(fit.comp_coupled.worst_rel_error, fit.comp_shielded.worst_rel_error);
}

}  // namespace perfbench
