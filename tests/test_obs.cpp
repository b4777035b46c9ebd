// Tests of the observability subsystem (src/obs): span recording and its
// determinism under the kernel-thread sweep, traffic bracketing against
// parx's own counters, the report / Chrome-trace schemas round-tripped
// through the obs JSON parser, and the disabled-tracer bit-identity
// guarantee the solver gates rely on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "common/error.h"
#include "common/parallel.h"
#include "fem/assembly.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parx/runtime.h"

namespace prom {
namespace {

/// RAII: recording on for one test, restored (and off) after.
class ScopedTracing {
 public:
  ScopedTracing() : was_(obs::tracing()) {
    obs::Tracer::instance().set_enabled(true);
  }
  ~ScopedTracing() { obs::Tracer::instance().set_enabled(was_); }

 private:
  bool was_;
};

/// ctest runs test binaries concurrently in one directory; keep temp
/// filenames per-process.
std::string temp_path(const std::string& stem) {
  return stem + "." + std::to_string(::getpid()) + ".json";
}

// ---- obs::json ------------------------------------------------------------

TEST(ObsJson, ParsesScalarsArraysAndObjects) {
  const obs::json::Value v = obs::json::Value::parse(
      R"({"a": 1.5, "b": [true, false, null], "c": {"d": "x\n\"y\""}, )"
      R"("e": -2e3})");
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  ASSERT_EQ(v.at("b").items().size(), 3u);
  EXPECT_TRUE(v.at("b").items()[0].as_bool());
  EXPECT_FALSE(v.at("b").items()[1].as_bool());
  EXPECT_TRUE(v.at("b").items()[2].is_null());
  EXPECT_EQ(v.at("c").at("d").as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(v.at("e").as_number(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ObsJson, RejectsMalformedDocuments) {
  EXPECT_THROW(obs::json::Value::parse("{"), Error);
  EXPECT_THROW(obs::json::Value::parse("[1, 2,]"), Error);
  EXPECT_THROW(obs::json::Value::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(obs::json::Value::parse("\"unterminated"), Error);
  EXPECT_THROW(obs::json::Value::parse("nul"), Error);
}

TEST(ObsJson, DecodesUnicodeEscapesToUtf8) {
  // BMP code points: 1-, 2-, and 3-byte UTF-8.
  EXPECT_EQ(obs::json::Value::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(obs::json::Value::parse("\"\\u00e9\"").as_string(),
            "\xC3\xA9");  // e-acute
  EXPECT_EQ(obs::json::Value::parse("\"\\u20ac\"").as_string(),
            "\xE2\x82\xAC");  // euro sign
  // Supplementary plane: the surrogate pair combines to one 4-byte
  // sequence (U+1F600).
  EXPECT_EQ(obs::json::Value::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // Control characters as \u00XX escapes.
  EXPECT_EQ(obs::json::Value::parse("\"\\u0001\\u001f\"").as_string(),
            "\x01\x1F");

  // Broken surrogates and truncated escapes are malformed, not silently
  // passed through.
  EXPECT_THROW(obs::json::Value::parse("\"\\ud83d\""), Error);
  EXPECT_THROW(obs::json::Value::parse("\"\\ud83dx\""), Error);
  EXPECT_THROW(obs::json::Value::parse("\"\\ud83d\\u0041\""), Error);
  EXPECT_THROW(obs::json::Value::parse("\"\\ude00\""), Error);
  EXPECT_THROW(obs::json::Value::parse("\"\\u12\""), Error);
  EXPECT_THROW(obs::json::Value::parse("\"\\u12gz\""), Error);
}

TEST(ObsJson, EscapedRoundTripsAdversarialStrings) {
  const std::string cases[] = {
      "plain",
      "quote \" backslash \\ slash /",
      "newline\nreturn\rtab\t",
      std::string("nul\0byte", 8),
      "\x01\x02\x1F control run",
      "non-ascii: émile \xE2\x82\xAC \xF0\x9F\x98\x80",
      "looks like an escape: \\u0041 \\n",
      "{\"json\": [\"inside\", 1]}",
  };
  for (const std::string& s : cases) {
    std::string doc = "\"";
    doc += obs::json::escaped(s);
    doc += '"';
    EXPECT_EQ(obs::json::Value::parse(doc).as_string(), s) << doc;
  }
}

// ---- span recording -------------------------------------------------------

/// A nested-span workload whose inner work runs through parallel_for.
void traced_workload() {
  const obs::Span outer("test.outer");
  std::vector<real> x(4096, 1);
  common::parallel_for(0, static_cast<idx>(x.size()), 256,
                       [&](idx b, idx e) {
                         for (idx i = b; i < e; ++i) x[i] = 2 * x[i] + 1;
                       });
  {
    const obs::Span inner("test.inner", 3);
    common::parallel_reduce(0, static_cast<idx>(x.size()), 256,
                            [&](idx b, idx e) {
                              real s = 0;
                              for (idx i = b; i < e; ++i) s += x[i];
                              return s;
                            });
  }
  const obs::Span tail("test.tail");
}

/// This thread's spans opened since `mark`, in open (seq) order.
std::vector<obs::SpanRecord> my_spans_since(std::int64_t mark) {
  std::vector<obs::SpanRecord> spans =
      obs::Tracer::instance().spans_since(mark);
  std::erase_if(spans, [](const obs::SpanRecord& s) {
    return std::string_view(s.name).substr(0, 5) != "test.";
  });
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.seq < b.seq;
            });
  return spans;
}

TEST(ObsTrace, SpanNestingIsDeterministicAcrossKernelThreads) {
  const ScopedTracing tracing;
  struct Shape {
    std::string name;
    int level;
    std::uint32_t depth;
  };
  std::vector<std::vector<Shape>> shapes;
  for (const int threads : {1, 2, 8}) {
    common::set_kernel_threads(threads);
    const std::int64_t mark = obs::Tracer::now_ns();
    traced_workload();
    const std::vector<obs::SpanRecord> spans = my_spans_since(mark);
    ASSERT_EQ(spans.size(), 3u) << threads << " threads";
    std::vector<Shape> shape;
    for (const obs::SpanRecord& s : spans) {
      shape.push_back({s.name, s.level, s.depth});
      EXPECT_EQ(s.rank, obs::kHostRank);
      EXPECT_LE(s.t0_ns, s.t1_ns);
    }
    // The tree: outer at depth 0 encloses inner and tail at depth 1.
    EXPECT_EQ(shape[0].name, "test.outer");
    EXPECT_EQ(shape[0].depth, 0u);
    EXPECT_EQ(shape[1].name, "test.inner");
    EXPECT_EQ(shape[1].level, 3);
    EXPECT_EQ(shape[1].depth, 1u);
    EXPECT_EQ(shape[2].name, "test.tail");
    EXPECT_EQ(shape[2].depth, 1u);
    // Nesting in time: children open and close inside the parent.
    const auto outer_it = std::find_if(
        spans.begin(), spans.end(),
        [](const obs::SpanRecord& s) { return s.depth == 0; });
    for (const obs::SpanRecord& s : spans) {
      if (s.depth == 0) continue;
      EXPECT_GE(s.t0_ns, outer_it->t0_ns);
      EXPECT_LE(s.t1_ns, outer_it->t1_ns);
    }
    shapes.push_back(std::move(shape));
  }
  common::set_kernel_threads(0);  // restore default policy
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    ASSERT_EQ(shapes[i].size(), shapes[0].size());
    for (std::size_t k = 0; k < shapes[0].size(); ++k) {
      EXPECT_EQ(shapes[i][k].name, shapes[0][k].name);
      EXPECT_EQ(shapes[i][k].level, shapes[0][k].level);
      EXPECT_EQ(shapes[i][k].depth, shapes[0][k].depth);
    }
  }
}

TEST(ObsTrace, SpanTrafficDeltasMatchCommTraffic) {
  const ScopedTracing tracing;
  constexpr int kRanks = 4;
  std::vector<std::int64_t> expect_messages(kRanks), expect_bytes(kRanks);
  const std::int64_t mark = obs::Tracer::now_ns();
  parx::Runtime::run(kRanks, [&](parx::Comm& comm) {
    const parx::TrafficStats before = comm.traffic();
    {
      const obs::Span span("test.collective");
      comm.allreduce_sum(static_cast<double>(comm.rank()));
      comm.allgatherv(std::vector<std::int32_t>(
          static_cast<std::size_t>(comm.rank() + 1), comm.rank()));
      comm.barrier();
    }
    const parx::TrafficStats after = comm.traffic();
    expect_messages[comm.rank()] =
        after.messages_sent - before.messages_sent;
    expect_bytes[comm.rank()] = after.bytes_sent - before.bytes_sent;
  });
  std::vector<obs::SpanRecord> spans =
      obs::Tracer::instance().spans_since(mark);
  std::erase_if(spans, [](const obs::SpanRecord& s) {
    return std::string_view(s.name) != "test.collective";
  });
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kRanks));
  std::int64_t total_messages = 0;
  for (const obs::SpanRecord& s : spans) {
    ASSERT_GE(s.rank, 0);
    ASSERT_LT(s.rank, kRanks);
    EXPECT_EQ(s.messages, expect_messages[s.rank]) << "rank " << s.rank;
    EXPECT_EQ(s.bytes, expect_bytes[s.rank]) << "rank " << s.rank;
    total_messages += s.messages;
  }
  EXPECT_GT(total_messages, 0);
}

// ---- report ---------------------------------------------------------------

TEST(ObsReport, AggregatesPhasesMetricsAndRoundTripsThroughJson) {
  const ScopedTracing tracing;
  const std::int64_t mark = obs::Tracer::now_ns();
  {
    const obs::Span phase("phase.alpha");
    const obs::Span comp("test.work", 2);
  }
  obs::counter_add("test.count", 2.0, 0);
  obs::counter_add("test.count", 3.0, 0);
  obs::gauge_set("test.gauge", 1.0);
  obs::gauge_set("test.gauge", 7.5);
  obs::series_push("test.series", 1.0);
  obs::series_push("test.series", 0.5);
  parx::Runtime::run(2, [&](parx::Comm& comm) {
    const obs::Span phase("phase.beta");
    comm.barrier();
    obs::counter_add("test.count", 1.0, 0);
  });

  const obs::Report rep = obs::build_report(mark);
  EXPECT_EQ(rep.ranks, 2);
  ASSERT_NE(rep.phase("alpha"), nullptr);
  ASSERT_NE(rep.phase("beta"), nullptr);
  EXPECT_GT(rep.phase("alpha")->host_seconds, 0);
  EXPECT_EQ(rep.phase("beta")->per_rank.size(), 2u);
  EXPECT_GT(rep.phase_seconds("beta"), 0);
  ASSERT_NE(rep.component("test.work", 2), nullptr);
  EXPECT_EQ(rep.component("test.work", 2)->count, 1);
  // 2 + 3 on the host plus 1 on each of the two ranks.
  EXPECT_DOUBLE_EQ(rep.counter("test.count", 0), 7.0);
  EXPECT_DOUBLE_EQ(rep.gauge("test.gauge"), 7.5);
  ASSERT_NE(rep.find_series("test.series"), nullptr);
  EXPECT_EQ(rep.find_series("test.series")->values,
            (std::vector<double>{1.0, 0.5}));

  // Serialize, parse back through the schema check, compare.
  const obs::Report back = obs::Report::from_json(rep.to_json());
  EXPECT_EQ(back.ranks, rep.ranks);
  ASSERT_EQ(back.phases.size(), rep.phases.size());
  for (std::size_t i = 0; i < rep.phases.size(); ++i) {
    EXPECT_EQ(back.phases[i].name, rep.phases[i].name);
    EXPECT_EQ(back.phases[i].per_rank.size(), rep.phases[i].per_rank.size());
    EXPECT_EQ(back.phases[i].messages, rep.phases[i].messages);
    EXPECT_NEAR(back.phases[i].seconds(), rep.phases[i].seconds(), 1e-12);
  }
  ASSERT_EQ(back.components.size(), rep.components.size());
  for (std::size_t i = 0; i < rep.components.size(); ++i) {
    EXPECT_EQ(back.components[i].name, rep.components[i].name);
    EXPECT_EQ(back.components[i].level, rep.components[i].level);
    EXPECT_EQ(back.components[i].count, rep.components[i].count);
  }
  EXPECT_DOUBLE_EQ(back.counter("test.count", 0), rep.counter("test.count", 0));
  EXPECT_DOUBLE_EQ(back.gauge("test.gauge"), 7.5);
  EXPECT_EQ(back.find_series("test.series")->values,
            rep.find_series("test.series")->values);

  EXPECT_THROW(obs::Report::from_json("{\"schema\": \"other\"}"), Error);
}

TEST(ObsReport, DerivesOperatorComplexityFromLevelCounters) {
  const ScopedTracing tracing;
  const std::int64_t mark = obs::Tracer::now_ns();
  obs::counter_add("mg.nnz", 1000.0, 0);
  obs::counter_add("mg.nnz", 400.0, 1);
  obs::counter_add("mg.nnz", 100.0, 2);
  obs::gauge_set("mg.rows", 90.0, 0);
  const obs::Report rep = obs::build_report(mark);
  EXPECT_NEAR(rep.gauge("mg.operator_complexity"), 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(rep.gauge("mg.rows", 0), 90.0);
}

TEST(ObsReport, WindowMarkExcludesEarlierRecords) {
  const ScopedTracing tracing;
  { const obs::Span old_span("phase.stale"); }
  const std::int64_t mark = obs::Tracer::now_ns();
  { const obs::Span fresh("phase.fresh"); }
  const obs::Report rep = obs::build_report(mark);
  EXPECT_EQ(rep.phase("stale"), nullptr);
  EXPECT_NE(rep.phase("fresh"), nullptr);
}

// ---- Chrome trace ---------------------------------------------------------

TEST(ObsTrace, ChromeTraceFileMatchesSchema) {
  const ScopedTracing tracing;
  {
    const obs::Span span("test.chrome", 1);
  }
  parx::Runtime::run(2, [&](parx::Comm& comm) {
    const obs::Span span("test.chrome_rank");
    comm.barrier();
  });
  const std::string path = temp_path("test_obs_chrome");
  obs::Tracer::instance().write_chrome_trace(path);
  const obs::json::Value doc = obs::json::parse_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());
  bool saw_host = false, saw_rank = false, saw_metadata = false;
  for (const obs::json::Value& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_metadata = true;
      EXPECT_EQ(e.at("name").as_string(), "process_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    const auto& args = e.at("args");
    EXPECT_NE(args.find("messages"), nullptr);
    EXPECT_NE(args.find("flops"), nullptr);
    if (e.at("name").as_string() == "test.chrome") {
      saw_host = true;
      EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 0.0);
      EXPECT_DOUBLE_EQ(args.at("level").as_number(), 1.0);
    }
    if (e.at("name").as_string() == "test.chrome_rank") saw_rank = true;
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_rank);
}

// ---- adversarial labels ---------------------------------------------------

// Span and metric labels flow verbatim into report.json and the Chrome
// trace; quotes, backslashes, control characters, and non-ASCII bytes in
// a label must produce valid JSON documents whose strings round-trip
// byte-for-byte (satellite of the shared json::escape_into fix).
TEST(ObsReport, AdversarialLabelsSurviveJsonRoundTrip) {
  const ScopedTracing tracing;
  static const char kPhase[] = "phase.bad \"quote\" \\back\nline\x01";
  static const char kComp[] = "comp \"x\"\t\\end\x1f\xC3\xA9";
  static const char kCount[] = "count \"c\" \\\n\x02";
  static const char kGauge[] = "gauge \"g\"\r\x03\xE2\x82\xAC";
  static const char kSeries[] = "series \"s\"\\u0041\x04";
  const std::int64_t mark = obs::Tracer::now_ns();
  {
    const obs::Span phase(kPhase);
    const obs::Span comp(kComp, 1);
  }
  obs::counter_add(kCount, 2.0, 0);
  obs::gauge_set(kGauge, 1.5);
  obs::series_push(kSeries, 0.5);

  const obs::Report rep = obs::build_report(mark);
  const std::string json = rep.to_json();
  // The document must parse despite the hostile labels...
  const obs::Report back = obs::Report::from_json(json);
  // ...and every label must round-trip byte-for-byte.
  ASSERT_NE(back.phase(std::string(kPhase).substr(6)), nullptr);
  ASSERT_NE(back.component(kComp, 1), nullptr);
  EXPECT_DOUBLE_EQ(back.counter(kCount, 0), 2.0);
  EXPECT_DOUBLE_EQ(back.gauge(kGauge), 1.5);
  ASSERT_NE(back.find_series(kSeries), nullptr);
  EXPECT_EQ(back.find_series(kSeries)->values, (std::vector<double>{0.5}));
}

TEST(ObsTrace, ChromeTraceSurvivesAdversarialSpanNames) {
  const ScopedTracing tracing;
  static const char kName[] = "test.bad \"quote\"\\slash\nline\x01\xC3\xA9";
  {
    const obs::Span span(kName, 2);
  }
  const std::string path = temp_path("test_obs_chrome_adversarial");
  obs::Tracer::instance().write_chrome_trace(path);
  const obs::json::Value doc = obs::json::parse_file(path);
  std::remove(path.c_str());

  bool found = false;
  for (const obs::json::Value& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("name").as_string() == kName) found = true;
  }
  EXPECT_TRUE(found) << "hostile span name must survive the trace writer";
}

// ---- bit-identity ---------------------------------------------------------

TEST(ObsTrace, DisabledTracerLeavesSolveBitIdentical) {
  const app::ModelProblem problem = app::make_box_problem(6);
  fem::FeProblem fe(problem.mesh, problem.materials, problem.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);

  auto solve = [&] {
    mg::Hierarchy h =
        mg::Hierarchy::build(problem.mesh, problem.dofmap, sys.stiffness, {});
    std::vector<real> x(sys.rhs.size(), 0);
    mg::MgSolveOptions opts;
    opts.rtol = 1e-8;
    opts.track_history = true;
    const la::KrylovResult r = mg_pcg_solve(h, sys.rhs, x, opts);
    return std::make_pair(r.history, x);
  };

  ASSERT_FALSE(obs::tracing());
  const auto [history_off, x_off] = solve();
  std::pair<std::vector<real>, std::vector<real>> on;
  {
    const ScopedTracing tracing;
    on = solve();
  }
  const auto [history_off2, x_off2] = solve();

  // Tracing on or off, iterate histories and solutions are bit-identical.
  ASSERT_EQ(on.first.size(), history_off.size());
  for (std::size_t i = 0; i < history_off.size(); ++i) {
    EXPECT_EQ(on.first[i], history_off[i]) << "history entry " << i;
    EXPECT_EQ(history_off2[i], history_off[i]);
  }
  ASSERT_EQ(on.second.size(), x_off.size());
  for (std::size_t i = 0; i < x_off.size(); ++i) {
    EXPECT_EQ(on.second[i], x_off[i]) << "solution entry " << i;
    EXPECT_EQ(x_off2[i], x_off[i]);
  }
}

// ---- end-to-end through the driver ---------------------------------------

TEST(ObsReport, LinearStudyReportCarriesPhasesAndLevelMetrics) {
  const app::ModelProblem problem = app::make_box_problem(8);
  app::LinearStudyConfig cfg;
  cfg.nranks = 2;
  const std::string path = temp_path("test_obs_report");
  cfg.report_path = path;
  const app::LinearStudyReport r = app::run_linear_study(problem, cfg);

  for (const char* name :
       {"partition", "fine_grid", "mesh_setup", "matrix_setup", "solve"}) {
    ASSERT_NE(r.obs.phase(name), nullptr) << name;
  }
  EXPECT_EQ(r.obs.phase("matrix_setup")->per_rank.size(), 2u);
  EXPECT_EQ(r.obs.phase("solve")->per_rank.size(), 2u);
  // Derived wall times come from the report itself.
  EXPECT_DOUBLE_EQ(r.wall_solve, r.obs.phase_seconds("solve"));
  // Level metrics: rows gauge and nnz counter on every level, and the
  // derived operator complexity >= 1.
  for (int l = 0; l < r.levels; ++l) {
    EXPECT_GT(r.obs.gauge("mg.rows", l), 0) << "level " << l;
    EXPECT_GT(r.obs.counter("mg.nnz", l), 0) << "level " << l;
  }
  EXPECT_GE(r.obs.gauge("mg.operator_complexity"), 1.0);
  // PCG residual history: ||b|| followed by one entry per iteration.
  const obs::SeriesEntry* res = r.obs.find_series("pcg.residual");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(static_cast<int>(res->values.size()), r.iterations + 1);
  // Cycle components are level-resolved.
  EXPECT_NE(r.obs.component("mg.smooth", 0), nullptr);

  // The written report parses back through the schema check.
  const obs::Report back = obs::Report::read_json(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.ranks, r.obs.ranks);
  EXPECT_NEAR(back.phase_seconds("solve"), r.wall_solve, 1e-9);
}

}  // namespace
}  // namespace prom
