// The wire codec contract (src/api/wire.hpp): one canonical JSON shape
// per facade struct, strict decoding, version gating before dispatch,
// the shared error envelope, and run_batch's per-item semantics —
// including its concurrent items.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "deadline/deadline.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sta/calibrated.hpp"
#include "util/error.hpp"

namespace pim::api {
namespace {

using wire::from_json;
using wire::to_json;

// Round-trip helper: serialize, parse back, serialize again. Any field
// the bind() pair drops or renames breaks the byte equality.
template <typename T>
std::string reserialized(const T& value) {
  const T back = from_json<T>(to_json(value), "test");
  return to_json(back);
}

template <typename T>
void expect_roundtrip(const T& value) {
  EXPECT_EQ(to_json(value), reserialized(value));
}

LinkSpec sample_link() {
  LinkSpec link;
  link.tech = "65nm";
  link.length_mm = 3.25;
  link.style = "DP";
  link.input_slew_ps = 85.5;
  link.drive = 8;
  link.repeaters = 4;
  link.coeffs_path = "/tmp/coeffs.pimfit";
  link.corner = "ss_vlow_hot";
  return link;
}

TEST(WireCodec, LinkSpecRoundTripsFieldByField) {
  const LinkSpec link = sample_link();
  const LinkSpec back = from_json<LinkSpec>(to_json(link), "test");
  EXPECT_EQ(back.tech, link.tech);
  EXPECT_EQ(back.length_mm, link.length_mm);
  EXPECT_EQ(back.style, link.style);
  EXPECT_EQ(back.input_slew_ps, link.input_slew_ps);
  EXPECT_EQ(back.drive, link.drive);
  EXPECT_EQ(back.repeaters, link.repeaters);
  EXPECT_EQ(back.coeffs_path, link.coeffs_path);
  EXPECT_EQ(back.corner, link.corner);
}

TEST(WireCodec, EveryRequestStructRoundTrips) {
  TechfileRequest techfile;
  techfile.tech = "45nm";
  techfile.deadline_ms = 250;
  expect_roundtrip(techfile);

  CharlibRequest charlib;
  charlib.tech = "65nm";
  charlib.drives = {2, 8, 32};
  charlib.want_fit = true;
  charlib.corner = "ff_vhigh_cold";
  expect_roundtrip(charlib);

  FitRequest fit;
  fit.tech = "32nm";
  fit.coeffs_path = "x.pimfit";
  fit.corner = "nominal";
  expect_roundtrip(fit);

  LinkEvalRequest evaluate;
  evaluate.link = sample_link();
  evaluate.golden = true;
  expect_roundtrip(evaluate);

  BufferRequest buffer;
  buffer.link = sample_link();
  buffer.weight = 0.75;
  buffer.budget_ps = 320.0;
  expect_roundtrip(buffer);

  YieldRequest yield;
  yield.link = sample_link();
  yield.samples = 2500;
  yield.seed = 42;
  expect_roundtrip(yield);

  NoiseRequest noise;
  noise.link = sample_link();
  expect_roundtrip(noise);

  TimerRequest timer;
  timer.link = sample_link();
  expect_roundtrip(timer);

  CornersRequest corners;
  corners.link = sample_link();
  corners.corners = "nominal,ss_vlow_hot";
  corners.target_period_ps = 444.0;
  expect_roundtrip(corners);

  ExportRequest exp;
  exp.link = sample_link();
  exp.want_deck = true;
  exp.want_spef = true;
  expect_roundtrip(exp);

  SynthesisRequest synthesis;
  synthesis.spec = "dvopd";
  synthesis.tech = "65nm";
  synthesis.model = "pamunuwa";
  synthesis.mesh = true;
  synthesis.rows = 3;
  synthesis.cols = 4;
  synthesis.want_dot = true;
  synthesis.coeffs_path = "c.pimfit";
  synthesis.corners = "all";
  expect_roundtrip(synthesis);

  InvalidateRequest invalidate;
  invalidate.tech = "65nm.tech";
  invalidate.apply = true;
  expect_roundtrip(invalidate);

  CacheAdminRequest cache;
  cache.action = "prune";
  cache.budget_bytes = 1 << 20;
  expect_roundtrip(cache);
}

TEST(WireCodec, EveryResultStructRoundTrips) {
  TechfileResult techfile;
  techfile.text = "technology \"x\" {\n}\n";
  expect_roundtrip(techfile);

  CharlibResult charlib;
  charlib.liberty_text = "library(x) {}";
  charlib.fit_text = "fit v1";
  charlib.partial = true;
  expect_roundtrip(charlib);

  FitResult fit;
  fit.fit_text = "coeffs";
  expect_roundtrip(fit);

  LinkEvalResult evaluate;
  evaluate.tech_name = "65nm";
  evaluate.style_name = "SS";
  evaluate.repeaters = 3;
  evaluate.miller_factor = 1.51;
  evaluate.delay_ps = 231.75233747701827;  // shortest-round-trip doubles
  evaluate.output_slew_ps = 204.9;
  evaluate.power_mw = 0.1447;
  evaluate.area_um2 = 6.94;
  evaluate.has_golden = true;
  evaluate.golden_delay_ps = 229.9;
  evaluate.golden_slew_ps = 200.1;
  evaluate.golden_nodes = 1234;
  evaluate.model_error_pct = 0.8;
  expect_roundtrip(evaluate);

  BufferResult buffer;
  buffer.feasible = true;
  buffer.kind = "INV";
  buffer.drive = 16;
  buffer.repeaters = 5;
  buffer.miller_factor = 1.4;
  buffer.evaluations = 960;
  buffer.delay_ps = 301.0;
  buffer.power_mw = 0.2;
  buffer.area_um2 = 12.5;
  expect_roundtrip(buffer);

  YieldResult yield;
  yield.samples = 900;
  yield.failed_samples = 100;
  yield.requested_samples = 1000;
  yield.nominal_delay_ps = 250.0;
  yield.mean_delay_ps = 260.5;
  yield.sigma_delay_ps = 9.25;
  yield.p90_delay_ps = 272.0;
  yield.p99_delay_ps = 281.0;
  yield.yield_at_nominal = 0.31;
  yield.yield_ci95 = 0.028;
  yield.partial = true;
  expect_roundtrip(yield);

  NoiseResult noise;
  noise.tech_name = "65nm";
  noise.style_name = "SS";
  noise.golden_peak_mv = 101.0;
  noise.golden_peak_pct_vdd = 10.1;
  noise.model_peak_mv = 99.0;
  noise.model_error_pct = -2.0;
  expect_roundtrip(noise);

  TimerResult timer;
  timer.tech_name = "65nm";
  timer.repeaters = 2;
  timer.awe_delay_ps = 240.0;
  timer.awe_slew_ps = 210.0;
  timer.elmore_delay_ps = 265.0;
  timer.partial = false;
  expect_roundtrip(timer);

  CornersResult corners;
  corners.tech_name = "65nm";
  corners.style_name = "DP";
  corners.repeaters = 2;
  corners.target_period_ps = 444.0;
  corners.corners = {{"nominal", 240.0, 210.0, 204.0, 55.0},
                     {"ss_vlow_hot", 310.0, 280.0, 134.0, 66.0}};
  corners.worst_corner = "ss_vlow_hot";
  corners.worst_slack_ps = 134.0;
  const CornersResult corners_back =
      from_json<CornersResult>(to_json(corners), "test");
  ASSERT_EQ(corners_back.corners.size(), 2u);
  EXPECT_EQ(corners_back.corners[1].corner, "ss_vlow_hot");
  EXPECT_EQ(corners_back.corners[1].noise_peak_mv, 66.0);
  expect_roundtrip(corners);

  ExportResult exp;
  exp.deck_text = "* deck\n.end\n";
  exp.deck_nodes = 321;
  exp.spef_text = "*SPEF";
  expect_roundtrip(exp);

  SynthesisResult synthesis;
  synthesis.spec_name = "dvopd";
  synthesis.tech_name = "65nm";
  synthesis.model_name = "proposed";
  synthesis.dynamic_power_mw = 12.5;
  synthesis.leakage_power_mw = 2.5;
  synthesis.worst_link_delay_ps = 390.0;
  synthesis.delay_budget_ps = 444.0;
  synthesis.area_mm2 = 0.55;
  synthesis.num_links = 18;
  synthesis.num_routers = 9;
  synthesis.avg_hops = 1.8;
  synthesis.max_hops = 3;
  synthesis.merges_applied = 2;
  synthesis.partial = true;
  synthesis.dot_text = "digraph {}";
  expect_roundtrip(synthesis);

  InvalidateResult invalidate;
  invalidate.manifests = 40;
  invalidate.dirty_keys = 7;
  invalidate.reuse_keys = 33;
  invalidate.evicted = 7;
  invalidate.applied = true;
  invalidate.kinds = {{"charlib", 3, 10}, {"fit", 4, 23}};
  expect_roundtrip(invalidate);

  CacheAdminResult cache;
  cache.action = "stats";
  cache.dir = "/tmp/cache";
  cache.kinds = {{"charlib", 4, 1000, 200}};
  cache.total_bytes = 1200;
  cache.scanned_entries = 4;
  cache.removed_entries = 1;
  cache.removed_bytes = 100;
  cache.kept_bytes = 1100;
  cache.entries = 4;
  cache.manifests = 4;
  cache.orphan_manifests = 0;
  cache.unmanifested_entries = 0;
  cache.corrupt_manifests = 0;
  cache.scrubbed = 0;
  expect_roundtrip(cache);
}

TEST(WireCodec, AbsentFieldsKeepStructDefaults) {
  const LinkEvalRequest req =
      from_json<LinkEvalRequest>("{\"link\":{\"tech\":\"65nm\"}}", "test");
  EXPECT_EQ(req.api_version, kApiVersion);
  EXPECT_EQ(req.deadline_ms, 0);
  EXPECT_FALSE(req.golden);
  EXPECT_EQ(req.link.tech, "65nm");
  EXPECT_EQ(req.link.style, "SS");        // LinkSpec defaults survive too
  EXPECT_EQ(req.link.input_slew_ps, 100.0);
  EXPECT_EQ(req.link.drive, 12);
}

TEST(WireCodec, UnknownFieldIsRejectedAsBadInput) {
  try {
    from_json<TechfileRequest>("{\"tech\":\"65nm\",\"tch\":\"oops\"}", "test");
    FAIL() << "unknown field accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("tch"), std::string::npos);
  }
}

TEST(WireCodec, DuplicateFieldIsRejectedAsBadInput) {
  EXPECT_THROW(
      from_json<TechfileRequest>("{\"tech\":\"a\",\"tech\":\"b\"}", "test"),
      Error);
}

TEST(WireCodec, TypeMismatchIsRejectedAsBadInput) {
  try {
    from_json<TechfileRequest>("{\"tech\":12}", "test");
    FAIL() << "type mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
  // Integer fields reject fractional numbers instead of truncating.
  EXPECT_THROW(from_json<YieldRequest>(
                   "{\"link\":{\"tech\":\"x\"},\"samples\":2.5}", "test"),
               Error);
}

TEST(WireEnvelope, RequestLineRoundTripsWithIdentity) {
  LinkEvalRequest req;
  req.link = sample_link();
  const std::string line = wire::write_request_line(7, AnyRequest(req));
  const wire::RequestLine parsed = wire::parse_request_line(line);
  EXPECT_TRUE(parsed.has_id);
  EXPECT_EQ(parsed.id, 7);
  EXPECT_EQ(parsed.op, "evaluate");
  EXPECT_FALSE(parsed.is_batch);
  // Re-serializing the parsed request reproduces the canonical line.
  EXPECT_EQ(wire::write_request_line(parsed.id, parsed.request), line);
}

TEST(WireEnvelope, BatchLineRoundTrips) {
  BatchRequest batch;
  batch.deadline_ms = 500;
  TechfileRequest t;
  t.tech = "45nm";
  batch.items.emplace_back(t);
  LinkEvalRequest e;
  e.link = sample_link();
  batch.items.emplace_back(e);
  const std::string line = wire::write_request_line(9, batch);
  const wire::RequestLine parsed = wire::parse_request_line(line);
  EXPECT_TRUE(parsed.is_batch);
  EXPECT_EQ(parsed.op, wire::kBatchOp);
  EXPECT_EQ(parsed.batch.deadline_ms, 500);
  ASSERT_EQ(parsed.batch.items.size(), 2u);
  EXPECT_EQ(wire::op_of(parsed.batch.items[0]), "techfile");
  EXPECT_EQ(wire::op_of(parsed.batch.items[1]), "evaluate");
  EXPECT_EQ(wire::write_request_line(9, parsed.batch), line);
}

TEST(WireEnvelope, UnknownOpListsTheValidOnes) {
  try {
    wire::parse_request_line("{\"op\":\"frobnicate\"}");
    FAIL() << "unknown op accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("evaluate"), std::string::npos);
  }
}

TEST(WireEnvelope, NestedBatchIsRejected) {
  EXPECT_THROW(wire::parse_request_line(
                   "{\"op\":\"batch\",\"items\":[{\"op\":\"batch\",\"items\":[]}]}"),
               Error);
}

TEST(WireEnvelope, ApiVersionIsValidatedBeforeDispatch) {
  // An unknown op WITH a bad version still reports the version problem
  // at parse time for known ops; dispatch never runs (the tech does not
  // exist, so dispatch would fail differently).
  try {
    wire::parse_request_line(
        "{\"op\":\"techfile\",\"api_version\":999,\"tech\":\"no-such-tech\"}");
    FAIL() << "future api_version accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("api_version"), std::string::npos);
  }
}

TEST(WireErrors, ErrorEnvelopeCarriesCodeExitCodeAndContext) {
  Error error("something broke", ErrorCode::singular_matrix);
  const std::string json =
      wire::error_to_json(Error(error).with_context("while testing"));
  const obs::JsonValue v = obs::parse_json(json);
  EXPECT_EQ(v.find("code")->text, "singular_matrix");
  EXPECT_EQ(v.find("exit_code")->number, 3.0);
  EXPECT_NE(v.find("message")->text.find("something broke"), std::string::npos);
  ASSERT_EQ(v.find("context")->items.size(), 1u);
  EXPECT_EQ(v.find("context")->items[0].text, "while testing");
}

TEST(WireErrors, ExitCodeContractMatchesTheCli) {
  EXPECT_EQ(wire::exit_code_for(ErrorCode::bad_input), 2);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::internal), 4);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::deadline_exceeded), 5);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::cancelled), 5);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::io_parse), 3);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::overloaded), 3);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::singular_matrix), 3);
}

TEST(WireExecute, MalformedLineBecomesTypedErrorResponse) {
  const std::string response = wire::execute_line("this is not json");
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
}

TEST(WireExecute, ErrorResponseEchoesTheRequestId) {
  const std::string response =
      wire::execute_line("{\"op\":\"techfile\",\"id\":31,\"tech\":\"no-such\"}");
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 31.0);
  EXPECT_EQ(v.find("op")->text, "techfile");
  EXPECT_FALSE(v.find("ok")->boolean);
}

TEST(WireExecute, RepeatLinesAreByteIdentical) {
  const std::string line = "{\"op\":\"techfile\",\"id\":1,\"tech\":\"65nm\"}";
  const std::string first = wire::execute_line(line);
  const std::string second = wire::execute_line(line);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
}

TEST(RunBatch, ResultsAreOrderPreservingAndPerItem) {
  BatchRequest batch;
  TechfileRequest good;
  good.tech = "65nm";
  TechfileRequest bad;
  bad.tech = "no-such-tech";
  TechfileRequest good2;
  good2.tech = "45nm";
  batch.items.emplace_back(good);
  batch.items.emplace_back(bad);
  batch.items.emplace_back(good2);
  const Expected<BatchResult> out = run_batch(batch);
  ASSERT_TRUE(out.ok());
  const BatchResult& result = out.value();
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.failed, 1);
  EXPECT_FALSE(result.partial);
  ASSERT_TRUE(result.items[0].ok());
  EXPECT_FALSE(result.items[1].ok());  // one bad item never kills the batch
  ASSERT_TRUE(result.items[2].ok());
  EXPECT_NE(std::get<TechfileResult>(result.items[0].value()).text.find("65nm"),
            std::string::npos);
  EXPECT_NE(std::get<TechfileResult>(result.items[2].value()).text.find("45nm"),
            std::string::npos);
}

TEST(RunBatch, EmptyBatchSucceedsTrivially) {
  const Expected<BatchResult> out = run_batch(BatchRequest{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().items.empty());
  EXPECT_EQ(out.value().failed, 0);
  EXPECT_FALSE(out.value().partial);
}

TEST(RunBatch, VersionMismatchRejectsTheWholeBatch) {
  BatchRequest batch;
  batch.api_version = 999;
  TechfileRequest t;
  t.tech = "65nm";
  batch.items.emplace_back(t);
  const Expected<BatchResult> out = run_batch(batch);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code(), ErrorCode::bad_input);
}

TEST(RunBatch, PendingCancelTruncatesWithStopErrorsPerItem) {
  deadline::reset();
  deadline::request_cancel();
  BatchRequest batch;
  TechfileRequest t;
  t.tech = "65nm";
  batch.items.emplace_back(t);
  batch.items.emplace_back(t);
  const Expected<BatchResult> out = run_batch(batch);
  deadline::reset();
  ASSERT_TRUE(out.ok());  // the batch itself returns gracefully
  const BatchResult& result = out.value();
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.failed, 2);
  ASSERT_EQ(result.items.size(), 2u);
  for (const Expected<AnyResult>& item : result.items) {
    ASSERT_FALSE(item.ok());
    EXPECT_EQ(item.error().code(), ErrorCode::cancelled);
    EXPECT_NE(std::string(item.error().what()).find("never started"),
              std::string::npos);
  }
}

// ------------------------------------------------- concurrent batches

// Canonical bytes of one item: its result's wire JSON, or the error's.
std::string item_text(const Expected<AnyResult>& item) {
  if (!item.ok()) return wire::error_to_json(item.error());
  return std::visit([](const auto& r) { return to_json(r); }, item.value());
}

template <typename R>
std::string item_text(const Expected<R>& direct) {
  if (!direct.ok()) return wire::error_to_json(direct.error());
  return to_json(direct.value());
}

// Link flows against a scratch cache. Most cases name a reduced-deck
// 45 nm fit from a coefficient file, so no case but the cold one
// characterizes the full deck.
class ConcurrentBatchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pim_wire_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    cache::set_dir(dir_);
    cache::set_mode(cache::Mode::ReadWrite);
    cache::Store::global().clear_memory();
    deadline::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    exec::set_threads(0);
    obs::set_enabled(false);
    obs::registry().reset();
    cache::Store::global().clear_memory();
    cache::reset_mode();
    cache::set_dir("");
    std::filesystem::remove_all(dir_);
    std::filesystem::remove(dir_ + ".pimfit");
  }

  LinkSpec reduced_45nm_link(double length_mm, const char* style) {
    const std::string coeffs = dir_ + ".pimfit";
    if (!std::filesystem::exists(coeffs)) {
      CharacterizationOptions copt;
      copt.drives = {2, 8, 32};
      copt.buffers = false;
      CompositionOptions comp;
      comp.drives = {8, 32};
      comp.segment_lengths = {0.5e-3, 1.5e-3};
      comp.input_slews = {50e-12, 300e-12};
      comp.chain_lengths = {1, 3};
      save_fit(calibrated_fit(TechNode::N45, "", copt, comp), coeffs);
    }
    LinkSpec link;
    link.tech = "45nm";
    link.length_mm = length_mm;
    link.style = style;
    link.drive = 8;
    link.coeffs_path = coeffs;
    return link;
  }

  static int64_t counter(const char* name) {
    return obs::registry().counter(name).value();
  }

  std::string dir_;
};

TEST_F(ConcurrentBatchFixture, MixedBatchIsByteIdenticalAtAnyThreadCount) {
  LinkEvalRequest golden;
  golden.link = reduced_45nm_link(1.0, "SH");
  golden.golden = true;
  NoiseRequest noise;
  noise.link = golden.link;
  BufferRequest buffer;
  buffer.link = reduced_45nm_link(5.0, "SS");
  YieldRequest yield;
  yield.link = buffer.link;
  yield.samples = 200;
  yield.seed = 11;
  LinkEvalRequest bad = golden;
  bad.link.tech = "no-such-tech";

  // The direct calls come first and warm the resident memos, so every
  // batch below does the same work whatever its thread count.
  const std::vector<std::string> direct = {
      item_text(run_evaluate(golden)), item_text(run_noise(noise)),
      item_text(run_buffer(buffer)), item_text(run_yield(yield)),
      item_text(run_evaluate(bad))};
  BatchRequest batch;
  batch.items = {golden, noise, buffer, yield, bad};

  std::vector<int64_t> runs;
  for (int threads : {1, 2, 4}) {
    exec::set_threads(threads);
    const Expected<BatchResult> out = run_batch(batch);
    ASSERT_TRUE(out.ok()) << out.error().what();
    ASSERT_EQ(out.value().items.size(), direct.size());
    EXPECT_EQ(out.value().failed, 1) << "threads=" << threads;
    for (size_t i = 0; i < direct.size(); ++i)
      EXPECT_EQ(item_text(out.value().items[i]), direct[i])
          << "threads=" << threads << " item " << i;
    runs.push_back(counter("spice.transient.runs"));
  }
  EXPECT_GT(runs.front(), 0);
  EXPECT_EQ(runs.back(), runs.front()) << "a batch counts every item at any thread count";
}

TEST_F(ConcurrentBatchFixture, BudgetedItemStopsWithoutTruncatingItsSibling) {
  LinkEvalRequest sibling;
  sibling.link = reduced_45nm_link(1.0, "SH");
  sibling.golden = true;
  LinkEvalRequest rushed;
  rushed.link = reduced_45nm_link(10.0, "SS");
  rushed.golden = true;
  rushed.deadline_ms = 1;
  const std::string want = item_text(run_evaluate(sibling));

  exec::set_threads(4);
  BatchRequest batch;
  batch.items = {rushed, sibling};
  const Expected<BatchResult> out = run_batch(batch);
  ASSERT_TRUE(out.ok()) << out.error().what();
  const BatchResult& result = out.value();
  ASSERT_EQ(result.items.size(), 2u);
  ASSERT_FALSE(result.items[0].ok());
  EXPECT_EQ(result.items[0].error().code(), ErrorCode::deadline_exceeded);
  EXPECT_EQ(std::string(result.items[0].error().what()).find("never started"),
            std::string::npos)
      << "the budget is the item's own, not the batch's";
  EXPECT_EQ(item_text(result.items[1]), want);
  EXPECT_EQ(result.failed, 1);
  EXPECT_TRUE(result.partial);
}

TEST_F(ConcurrentBatchFixture, ColdBatchCharacterizesOnce) {
  clear_resident_fits();
  LinkSpec link;
  link.tech = "65nm";
  link.length_mm = 1.0;
  LinkEvalRequest evaluate;
  evaluate.link = link;
  BufferRequest buffer;
  buffer.link = link;
  NoiseRequest noise;
  noise.link = link;
  BatchRequest batch;
  batch.items = {evaluate, buffer, noise};

  const Expected<BatchResult> out = run_batch(batch);
  ASSERT_TRUE(out.ok()) << out.error().what();
  EXPECT_EQ(out.value().failed, 0);
  for (const Expected<AnyResult>& item : out.value().items)
    EXPECT_TRUE(item.ok()) << item.error().what();
  EXPECT_EQ(counter("corner.nominal.fit.compute"), 1);
  // The batch resolves the fit up front; each item then takes a hit.
  EXPECT_EQ(counter("fit.resident.hit"), 3);
}

TEST_F(ConcurrentBatchFixture, ResidentFitFollowsTheCoefficientFileItServes) {
  // The coefficient-file tier serves the file's fit ahead of the content
  // store, whose key does not cover it. Two requests that differ only in
  // the file they name must not share a resident fit or model: in either
  // order, each returns what a fresh process (nothing resident) returns.
  LinkEvalRequest plain;
  plain.link.tech = "65nm";
  plain.link.length_mm = 5.0;
  std::string text = write_fit(calibrated_fit(TechNode::N65));
  const std::string field = "kappa_c_coupled ";
  const size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  const size_t value = at + field.size();
  text.replace(value, text.find('\n', value) - value, "2.5");
  LinkEvalRequest edited = plain;
  edited.link.coeffs_path = dir_ + "-edited.pimfit";
  std::ofstream(edited.link.coeffs_path) << text;

  // Fresh-process answers: with the cache off no memo is read or filled.
  cache::set_mode(cache::Mode::Off);
  const std::string want_plain = item_text(run_evaluate(plain));
  const std::string want_edited = item_text(run_evaluate(edited));
  ASSERT_NE(want_plain, want_edited) << "the edit must change the answer";
  cache::set_mode(cache::Mode::ReadWrite);

  for (const bool edited_first : {true, false}) {
    clear_resident_fits();
    const LinkEvalRequest& first = edited_first ? edited : plain;
    const LinkEvalRequest& second = edited_first ? plain : edited;
    const std::string order = edited_first ? "edited first" : "plain first";
    EXPECT_EQ(item_text(run_evaluate(first)), edited_first ? want_edited : want_plain)
        << order;
    EXPECT_EQ(item_text(run_evaluate(second)), edited_first ? want_plain : want_edited)
        << order;
  }
  std::filesystem::remove(edited.link.coeffs_path);
}

}  // namespace
}  // namespace pim::api
