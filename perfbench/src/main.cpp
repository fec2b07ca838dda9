// perfbench_driver — runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload cold_fit|golden_signoff|warm_serve
//                    --seed N --seconds S --trace 0|1
//                    --root <checkout> --state <dir> --pimd <path>
//   perfbench_driver --record golden ...   (prints the golden digests)
//   perfbench_driver --setup-probe 1 --workload W ...   (set-up only; timed
//                    by the parent as setup_s)
//   perfbench_driver --populate-warm DIR ...   (fills the shared warm cache)
//
// perfbench/run.py builds this binary and supplies --root/--state/--pimd.
// Every line before the last is commentary (named figures, the
// host fingerprint, any mismatch); the last stdout line is the result
// object {"correct","attempted","failed","metrics"}. The exit code is 0
// only when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every --trace 0 run reports (BENCHMARK.json).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},    {"p50_ms", "ms"},      {"fit_r2_min", "1"}, {"model_err_max_pct", "%"},
    {"peak_rss_mb", "MB"}, {"ok_frac", "1"},
};

// The per-layer metrics every --trace 1 run reports. A layer the
// workload does not exercise did no work there and reads 0.
const MetricSpec kPerLayer[] = {
    {"spice.transient.runs", "count"},
    {"spice.timestep.count", "count"},
    {"spice.newton_per_step", "1"},
    {"numeric.banded.factorizations", "count"},
    {"numeric.leastsq.solves", "count"},
    {"charlib.characterize_s", "s"},
    {"charlib.fit_s", "s"},
    {"charlib.deck.simulated", "count"},
    {"sta.composition_s", "s"},
    {"sta.composition_pct", "%"},
    {"sta.signoff_link_ms.p50", "ms"},
    {"sta.signoff_link_ms.max", "ms"},
    {"sta.noise_ms.p50", "ms"},
    {"sta.noise_ms.max", "ms"},
    {"sta.noise_calibrate_s", "s"},
    {"exec.busy_frac", "1"},
    {"exec.queue_wait_s", "s"},
    {"cache.get_s", "s"},
    {"cache.put_s", "s"},
    {"cache.hit", "count"},
    {"cache.miss", "count"},
    {"cache.write", "count"},
    {"cache.hit_rate", "1"},
    {"cache.resident_hit_rate", "1"},
    {"models.evaluate_us.p50", "us"},
    {"models.evaluate_us.p99", "us"},
    {"buffering.buffer_us.p50", "us"},
    {"buffering.buffer_us.p99", "us"},
    {"variation.yield_us.p50", "us"},
    {"variation.yield_us.p99", "us"},
    {"cosi.synthesis_ms.p50", "ms"},
    {"cosi.synthesis_ms.p99", "ms"},
    {"api.wire_us.p50", "us"},
    {"api.wire_us.p99", "us"},
    {"serve.overhead_ms.p50", "ms"},
    {"serve.overhead_ms.p99", "ms"},
    {"serve.rejected", "count"},
    {"serve.p99_ms", "ms"},
    {"serve.capacity_rps", "req/s"},
    {"serve.max_rps", "req/s"},
    {"serve.p99_ms.deadline", "ms"},
    {"serve.p99_ms.nodeadline", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage() {
  std::fputs(
      "usage: perfbench_driver --workload cold_fit|golden_signoff|warm_serve --seed N\n"
      "                        --seconds S --trace 0|1 --root DIR --state DIR --pimd PATH\n"
      "                        | --record golden\n",
      stderr);
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  std::string record, populate;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--root") o.root = value;
    else if (flag == "--state") o.state = value;
    else if (flag == "--pimd") o.pimd = value;
    else if (flag == "--record") record = value;
    else if (flag == "--populate-warm") populate = value;
    else if (flag == "--setup-probe") o.setup_probe = value == "1";
    else return usage();
  }
  if (o.root.empty() || o.state.empty()) return usage();
  make_dirs(o.state);
  if (record == "golden") return record_golden_digests(o);
  if (!populate.empty()) {
    populate_warm_cache(populate);
    return 0;
  }
  if (o.setup_probe) {
    if (o.workload == "cold_fit") cold_fit_setup(o);
    else if (o.workload == "golden_signoff") golden_signoff_setup(o);
    else return usage();
    return 0;
  }

  Outcome out;
  if (o.workload == "cold_fit") out = run_cold_fit(o);
  else if (o.workload == "golden_signoff") out = run_golden_signoff(o);
  else if (o.workload == "warm_serve") out = run_warm_serve(o);
  else return usage();

  std::map<std::string, Metric> got;
  for (const Metric& m : out.metrics) got[m.name] = m;
  got["ok_frac"] = Metric{"ok_frac", "1",
                          out.attempted > 0
                              ? static_cast<double>(out.attempted - out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0};

  // Commentary: named figures, fingerprint, notes, mismatches.
  std::ostringstream detail;
  detail << "{\"workload\":" << quoted(o.workload) << ",\"seed\":" << o.seed
         << ",\"seconds\":" << num(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
         << ",\"fingerprint\":{" << fingerprint_json() << "},\"figures\":{";
  for (size_t i = 0; i < out.details.size(); ++i) {
    const Metric& m = out.details[i];
    detail << (i ? "," : "") << quoted(m.name) << ":{\"value\":" << num(m.value)
           << ",\"unit\":" << quoted(m.unit) << "}";
    std::printf("# %s = %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  detail << "},\"notes\":{";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    detail << (i ? "," : "") << quoted(out.notes[i].first) << ":" << quoted(out.notes[i].second);
    std::printf("# %s: %s\n", out.notes[i].first.c_str(), out.notes[i].second.c_str());
  }
  detail << "},\"mismatches\":[";
  for (size_t i = 0; i < out.mismatches.size(); ++i) {
    detail << (i ? "," : "") << quoted(out.mismatches[i]);
    std::printf("# MISMATCH %s\n", out.mismatches[i].c_str());
  }
  detail << "]}";
  std::printf("%s\n", detail.str().c_str());

  const std::string stem = o.state + "/results/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0");
  make_dirs(o.state + "/results");
  write_file(stem + ".json", detail.str() + "\n");
  if (o.trace) tracer().write(stem + ".spans.jsonl");

  std::ostringstream result;
  result << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
         << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
         << ",\"metrics\":{";
  bool first = true;
  const MetricSpec* begin = o.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = o.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricSpec* s = begin; s != end; ++s) {
    const auto it = got.find(s->name);
    const double v = it == got.end() ? 0.0 : it->second.value;
    result << (first ? "" : ",") << quoted(s->name) << ":{\"value\":" << num(v)
           << ",\"unit\":" << quoted(s->unit) << "}";
    first = false;
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
}
