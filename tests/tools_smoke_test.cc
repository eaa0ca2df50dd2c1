// End-to-end smoke tests of the command-line tools: a small join is run
// through rdmajoin_cli, its artifacts are fed to rdmajoin_trace and
// rdmajoin_analyze, and every output is checked to parse and every exit code
// to match the documented contract. The tool binaries are injected by CMake
// via compile definitions.

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/query_profile.h"
#include "sched/scheduler.h"
#include "util/json.h"

#ifndef RDMAJOIN_CLI_BIN
#error "RDMAJOIN_CLI_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_TRACE_BIN
#error "RDMAJOIN_TRACE_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_ANALYZE_BIN
#error "RDMAJOIN_ANALYZE_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_WHATIF_BIN
#error "RDMAJOIN_WHATIF_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_CHAOS_BIN
#error "RDMAJOIN_CHAOS_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_EXPLAIN_BIN
#error "RDMAJOIN_EXPLAIN_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_CHECK_BIN
#error "RDMAJOIN_CHECK_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_LINT_BIN
#error "RDMAJOIN_LINT_BIN must be defined by the build"
#endif

namespace rdmajoin {
namespace {

/// Runs `command` through the shell (stdout/stderr silenced) and returns its
/// exit status, or -1 when the child did not exit normally.
int RunTool(const std::string& command) {
  const std::string full = command + " >/dev/null 2>&1";
  const int raw = std::system(full.c_str());
  if (raw == -1) return -1;
#ifdef WIFEXITED
  if (!WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
#else
  return raw;
#endif
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string();
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Scratch directory private to this process. ctest runs every test in its
/// own process and each process's SetUpTestSuite rewrites the suite's shared
/// artifacts, so a path common to all processes would let one of them
/// overwrite files a sibling is still reading under `ctest -j`.
const std::string& ScratchDir() {
  static const std::string* const dir = [] {
    std::string pattern = testing::TempDir() + "tools_smoke_XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    return new std::string(pattern + "/");
  }();
  return *dir;
}

std::string TempPath(const std::string& name) { return ScratchDir() + name; }

/// Removes the scratch directory after the last test of the process.
class ScratchCleanup : public testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(ScratchDir()); }
};
[[maybe_unused]] const testing::Environment* const kScratchCleanup =
    testing::AddGlobalTestEnvironment(new ScratchCleanup);

/// One shared CLI run whose artifacts several tests inspect.
class ToolsSmokeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_path_ = new std::string(TempPath("join.trace"));
    spans_path_ = new std::string(TempPath("spans.json"));
    chrome_path_ = new std::string(TempPath("chrome.json"));
    const std::string cmd = std::string(RDMAJOIN_CLI_BIN) +
                            " --cluster=qdr --machines=4 --inner=2048"
                            " --outer=2048 --scale=65536 --seed=42" +
                            " --trace-out=" + *trace_path_ +
                            " --spans-json=" + *spans_path_ +
                            " --chrome-trace=" + *chrome_path_;
    cli_exit_ = RunTool(cmd);
  }
  static void TearDownTestSuite() {
    delete trace_path_;
    delete spans_path_;
    delete chrome_path_;
    trace_path_ = spans_path_ = chrome_path_ = nullptr;
  }

  static std::string* trace_path_;
  static std::string* spans_path_;
  static std::string* chrome_path_;
  static int cli_exit_;
};

std::string* ToolsSmokeTest::trace_path_ = nullptr;
std::string* ToolsSmokeTest::spans_path_ = nullptr;
std::string* ToolsSmokeTest::chrome_path_ = nullptr;
int ToolsSmokeTest::cli_exit_ = -1;

TEST_F(ToolsSmokeTest, CliRunSucceedsAndWritesParsableArtifacts) {
  ASSERT_EQ(cli_exit_, 0);

  const std::string spans_text = ReadFileOrEmpty(*spans_path_);
  ASSERT_FALSE(spans_text.empty());
  auto spans = ParseJson(spans_text);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_TRUE(spans->is_object());
  const JsonValue* span_list = spans->Find("spans");
  ASSERT_NE(span_list, nullptr);
  ASSERT_TRUE(span_list->is_array());
  EXPECT_GT(span_list->array_items.size(), 0u);

  const std::string chrome_text = ReadFileOrEmpty(*chrome_path_);
  ASSERT_FALSE(chrome_text.empty());
  auto chrome = ParseJson(chrome_text);
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  const JsonValue* events = chrome->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The causal arrows made it into the export.
  bool has_flow_start = false, has_flow_end = false;
  for (const JsonValue& e : events->array_items) {
    const std::string ph = e.StringOr("ph", "");
    if (ph == "s") has_flow_start = true;
    if (ph == "f") has_flow_end = true;
  }
  EXPECT_TRUE(has_flow_start);
  EXPECT_TRUE(has_flow_end);
}

TEST_F(ToolsSmokeTest, AnalyzeSpansReportsAndChecksCleanly) {
  ASSERT_EQ(cli_exit_, 0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + *spans_path_),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + *spans_path_ + " --check"),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + *spans_path_ + " --check --top=3"),
            0);
}

TEST_F(ToolsSmokeTest, TraceToolReplaysTraceAndReexportsSpans) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string out = TempPath("replayed_chrome.json");
  const std::string respans = TempPath("replayed_spans.json");
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_TRACE_BIN) + " --trace=" +
                    *trace_path_ + " --out=" + out + " --spans-json=" +
                    respans),
            0);
  auto chrome = ParseJson(ReadFileOrEmpty(out));
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  EXPECT_NE(chrome->Find("traceEvents"), nullptr);
  // The replayed span dataset passes the analyzer's invariant gate too.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    respans + " --check"),
            0);
}

TEST_F(ToolsSmokeTest, NoSpansRunOmitsRecorderAndRejectsContradictoryFlags) {
  const std::string trace = TempPath("nospans.trace");
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --no-spans --trace-out=" + trace),
            0);
  // --no-spans with --spans-json is a usage error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --no-spans --spans-json=" + TempPath("never.json")),
            1);
}

TEST_F(ToolsSmokeTest, AnalyzeSpansExitCodesFollowTheContract) {
  // Missing file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + TempPath("does_not_exist.json")),
            2);
  // Malformed JSON -> bad input (2).
  const std::string malformed = TempPath("malformed.json");
  {
    std::ofstream out(malformed, std::ios::binary);
    out << "{\"version\": 1, \"spans\": [";
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    malformed),
            2);
  // Bad --top -> usage error (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    malformed + " --top=0"),
            2);
  // A well-formed dataset that violates the invariants -> exit 1: one span
  // posted but never delivered or completed.
  const std::string violating = TempPath("violating.json");
  {
    std::ofstream out(violating, std::ios::binary);
    out << "{\"version\":1,"
        << "\"spans_recorded\":1,\"spans_dropped\":0,"
        << "\"segments_recorded\":0,\"segments_dropped\":0,"
        << "\"late_stage_updates\":0,"
        << "\"spans\":[{\"id\":1,\"machine\":0,\"thread\":0,\"slot\":0,"
        << "\"src\":0,\"dst\":1,\"wire_bytes\":65536,\"flow\":1,"
        << "\"pull\":false,\"posted\":0,\"credit_acquired\":0,"
        << "\"fabric_admitted\":0,\"delivered\":-1,\"completed\":-1,"
        << "\"recv_start\":-1,\"recv_end\":-1}],"
        << "\"segments\":[],\"threads\":[],\"devices\":[]}";
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    violating),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    violating + " --check"),
            1);
}

TEST_F(ToolsSmokeTest, AnalyzeSpansCheckRejectsMutatedDatasetsNamingTheField) {
  // One field of the run's span dataset mutated at a time. Each one passes
  // the JSON types and used to pass --check; ValidateSpanDataset rejects it.
  ASSERT_EQ(cli_exit_, 0);
  const std::string valid = ReadFileOrEmpty(*spans_path_);
  ASSERT_FALSE(valid.empty());
  struct Mutation {
    const char* name;
    const char* from;
    const char* to;
    const char* field;
  };
  const Mutation mutations[] = {
      {"machine", "\"machine\":0,", "\"machine\":99,", "machine 99"},
      {"src_eq_dst", "\"src\":0,\"dst\":2,", "\"src\":2,\"dst\":2,",
       "src == dst"},
      {"rate", "\"rate\":", "\"rate\":-", "rate"},
      // The run wraps the span ring: prefixing a 9 to its drop count
      // exceeds the recorded count.
      {"spans_dropped", "\"spans_dropped\":", "\"spans_dropped\":9",
       "> spans_recorded"},
      {"segments_dropped", "\"segments_dropped\":0,",
       "\"segments_dropped\":1e+12,",
       "segments_dropped 1000000000000 > segments_recorded"},
      // The first span's id above the second's.
      {"id_order", "{\"id\":", "{\"id\":9", "does not ascend"},
  };
  for (const Mutation& m : mutations) {
    std::string text = valid;
    const size_t at = text.find(m.from);
    ASSERT_NE(at, std::string::npos) << m.name;
    text.replace(at, std::string(m.from).size(), m.to);
    const std::string path = TempPath(std::string("mutated_spans_") + m.name + ".json");
    const std::string err = path + ".err";
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    // `timeout` turns a hang into exit 124.
    EXPECT_EQ(RunTool("(timeout 10 " + std::string(RDMAJOIN_ANALYZE_BIN) +
                      " --spans=" + path + " --check 2>" + err + ")"),
              2)
        << m.name;
    EXPECT_NE(ReadFileOrEmpty(err).find(m.field), std::string::npos)
        << m.name << ": " << ReadFileOrEmpty(err);
  }
}

TEST_F(ToolsSmokeTest, ExplainUtilizationReplaysAndChecksTheIdentity) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string json_out = TempPath("util.json");
  // The replayed trace's idle-window totals reproduce the attribution.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization" +
                    " --trace=" + *trace_path_ + " --check --json-out=" +
                    json_out),
            0);
  auto parsed = ParseJson(ReadFileOrEmpty(json_out));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("idle_windows"), nullptr);
  EXPECT_NE(parsed->Find("timelines"), nullptr);
  // Missing trace file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization" +
                    " --trace=" + TempPath("no_such.trace")),
            2);
}

TEST_F(ToolsSmokeTest, ExplainCongestionReportsAndChecksLabels) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string json_out = TempPath("congestion.json");
  // The replayed trace's binding-constraint labels are tight against the
  // replay's own fabric configuration.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --congestion" +
                    " --trace=" + *trace_path_ + " --check --json-out=" +
                    json_out),
            0);
  auto parsed = ParseJson(ReadFileOrEmpty(json_out));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("totals"), nullptr);
  EXPECT_NE(parsed->Find("hosts"), nullptr);
  EXPECT_NE(parsed->Find("incasts"), nullptr);
  // Missing trace file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --congestion" +
                    " --trace=" + TempPath("no_such.trace")),
            2);
}

/// Writes a small two-row bench JSON document for the explain diff/ledger
/// smoke tests; `r1_seconds` varies the second row's measurement.
std::string WriteBenchDoc(const std::string& name, double r1_seconds,
                          uint64_t seed = 42) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary);
  out << "{\"schema_version\":1,\"bench\":\"smoke\",\"scale_up\":65536,"
      << "\"seed\":" << seed << ",\"rows\":["
      << "{\"label\":\"r0\",\"ok\":true,\"verified\":true,"
      << "\"measured_seconds\":1.5,\"phases\":{\"histogram\":0.1,"
      << "\"network-partition\":0.9,\"local-partition\":0.2,"
      << "\"build-probe\":0.3}},"
      << "{\"label\":\"r1\",\"ok\":true,\"verified\":true,"
      << "\"measured_seconds\":" << r1_seconds
      << ",\"phases\":{\"histogram\":0.1,\"network-partition\":"
      << (r1_seconds - 0.6) << ",\"local-partition\":0.2,"
      << "\"build-probe\":0.3}}]}";
  return path;
}

TEST(ExplainSmokeTest, DiffExitCodesFollowTheContract) {
  const std::string a = WriteBenchDoc("explain_a.json", 1.5);
  const std::string same = WriteBenchDoc("explain_same.json", 1.5);
  const std::string slow = WriteBenchDoc("explain_slow.json", 3.0);
  // Identical runs diff clean even at zero tolerance.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    same + " --tolerance=0 --abs-tolerance=0"),
            0);
  // A row slower beyond both margins -> divergence (1), with or without the
  // improvements drill-down.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    slow),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + slow +
                    " " + a + " --report-improvements"),
            1);
  // The JSON export rides along without changing the verdict.
  const std::string json_out = TempPath("explain_diff.json");
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    slow + " --json-out=" + json_out),
            1);
  auto parsed = ParseJson(ReadFileOrEmpty(json_out));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("rows"), nullptr);
  // Missing or malformed input -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    TempPath("no_such_bench.json")),
            2);
  const std::string malformed = TempPath("explain_malformed.json");
  {
    std::ofstream out(malformed, std::ios::binary);
    out << "{\"schema_version\":1,";
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    malformed),
            2);
}

TEST(ExplainSmokeTest, ChangedCountRowIsDivergence) {
  auto write = [](const std::string& name, const std::string& messages) {
    const std::string path = TempPath(name);
    std::ofstream(path, std::ios::binary)
        << "{\"schema_version\":1,\"bench\":\"smoke\",\"scale_up\":1024,"
        << "\"seed\":42,\"rows\":[{\"label\":\"push\",\"ok\":true,"
        << "\"measured_seconds\":0.0172},{\"label\":\"push_messages\","
        << "\"ok\":true,\"measured_value\":" << messages
        << ",\"unit\":\"messages\"}]}";
    return path;
  };
  const std::string a = write("count_a.json", "112458");
  const std::string b = write("count_b.json", "999999");
  const std::string out = TempPath("count_diff.txt");
  EXPECT_EQ(RunTool("(" + std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a +
                    " " + b + " --tolerance=0 --abs-tolerance=0 >" + out + ")"),
            1);
  const std::string text = ReadFileOrEmpty(out);
  EXPECT_EQ(text.find("identical"), std::string::npos) << text;
  EXPECT_NE(text.find("push_messages"), std::string::npos) << text;
  // The gate agrees.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + a + " " +
                    b),
            1);
}

TEST(ExplainSmokeTest, LedgerAppendsRendersAndFlagsDrift) {
  const std::string ledger = TempPath("explain_ledger.jsonl");
  std::remove(ledger.c_str());
  const std::string steady = WriteBenchDoc("explain_ledger_a.json", 1.5);
  const std::string drifted = WriteBenchDoc("explain_ledger_b.json", 3.0);
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger-append=" +
                    ledger + " --bench-json=" + steady + " --commit=c1"),
            0);
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger-append=" +
                    ledger + " --bench-json=" + steady + " --commit=c2"),
            0);
  // Two steady points: trends render, no drift.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger=" + ledger),
            0);
  // A third point far above the median of its history -> drift (1).
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger-append=" +
                    ledger + " --bench-json=" + drifted + " --commit=c3"),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger=" + ledger),
            1);
  // Wide tolerances absorb the same jump.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger=" + ledger +
                    " --tolerance=2.0 --abs-tolerance=5.0"),
            0);
  std::remove(ledger.c_str());
}

TEST_F(ToolsSmokeTest, LedgerAppendRecordsDominantConstraintFromSpans) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string ledger = TempPath("explain_ledger_spans.jsonl");
  std::remove(ledger.c_str());
  const std::string bench = WriteBenchDoc("explain_ledger_spans.json", 1.5);
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger-append=" +
                    ledger + " --bench-json=" + bench + " --commit=c1" +
                    " --spans=" + *spans_path_),
            0);
  // The entry carries the run's dominant binding constraint.
  const std::string line = ReadFileOrEmpty(ledger);
  auto entry = ParseJson(line);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  const JsonValue* pcs = entry->Find("phase_constraints");
  ASSERT_NE(pcs, nullptr);
  ASSERT_TRUE(pcs->is_array());
  ASSERT_EQ(pcs->array_items.size(), 1u);
  EXPECT_EQ(pcs->array_items[0].StringOr("phase", ""), "network_partition");
  EXPECT_FALSE(pcs->array_items[0].StringOr("bound", "").empty());
  // A bad spans path -> bad input (2), nothing appended.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger-append=" +
                    ledger + " --bench-json=" + bench +
                    " --spans=" + TempPath("no_such_spans.json")),
            2);
  std::remove(ledger.c_str());
}

TEST(ExplainSmokeTest, UsageErrorsExitTwo) {
  // No mode selected.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN)), 2);
  // Unknown flag.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --no-such-flag"), 2);
  // --utilization / --congestion without a trace.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization"), 2);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --congestion"), 2);
  // --diff needs two documents.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " +
                    TempPath("only_one.json")),
            2);
  // --ledger-append needs --bench-json.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --ledger-append=" +
                    TempPath("never.jsonl")),
            2);
}

/// Replaces the value of the `nth` (0-based) `"key":` member of a compact
/// JSON document; false when there is no such member.
bool SetNthValue(std::string* text, const std::string& key, int nth,
                 const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  size_t at = text->find(needle);
  for (int i = 0; i < nth && at != std::string::npos; ++i) {
    at = text->find(needle, at + 1);
  }
  if (at == std::string::npos) return false;
  const size_t begin = at + needle.size();
  const size_t end = text->find_first_of(",}", begin);
  text->replace(begin, end - begin, value);
  return true;
}

TEST(ExplainSmokeTest, HostileScheduleJsonExitsTwoNamingTheField) {
  // A real schedule: three staggered queries of 0.5 s compute, 1 s network
  // and 0.5 s compute, run serially so the fabric and the cores both sit
  // idle with a candidate query waiting.
  QueryProfile profile;
  profile.label = "q";
  profile.phases[static_cast<size_t>(JoinPhase::kHistogram)].cpu_seconds = 0.5;
  profile.phases[static_cast<size_t>(JoinPhase::kNetworkPartition)]
      .net_seconds = 1.0;
  profile.phases[static_cast<size_t>(JoinPhase::kLocalPartition)].cpu_seconds =
      0.5;
  profile.solo_seconds = 2.0;
  std::vector<SchedQuery> queries(3);
  for (size_t q = 0; q < queries.size(); ++q) {
    queries[q].profile = profile;
    queries[q].arrival_seconds = 0.1 * static_cast<double>(q);
  }
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kSerial;
  auto report = RunSchedule(queries, sc);
  ASSERT_TRUE(report.ok());
  const std::string valid = ScheduleReportToJson(*report);
  ASSERT_NE(valid.find("\"candidate_query\":"), std::string::npos);

  // `timeout` turns a hang into exit 124.
  auto run = [](const std::string& sched, const std::string& err) {
    return RunTool("(timeout 10 " + std::string(RDMAJOIN_EXPLAIN_BIN) +
                   " --utilization --sched=" + sched + " --check 2>" + err +
                   ")");
  };
  const std::string base = TempPath("valid_sched.json");
  {
    std::ofstream out(base, std::ios::binary);
    out << valid;
  }
  ASSERT_EQ(run(base, TempPath("valid_sched.err")), 0);

  // One field mutated at a time. Each passes the JSON types; unvalidated,
  // explain used to accept every one of them and exit 0.
  struct Mutation {
    const char* name;
    const char* key;
    int nth;
    const char* value;
    const char* field;
  };
  const Mutation mutations[] = {
      {"weight", "weight", 0, "0", "weight must be >= 1"},
      {"candidate_high", "candidate_query", 0, "99", "candidate_query 99"},
      {"candidate_low", "candidate_query", 0, "-5", "candidate_query -5"},
      {"duplicate_id", "id", 1, "0", "duplicate id 0"},
      {"completed", "completed", 0, "9999", "completed 9999"},
      {"arrival", "arrival_seconds", 0, "-1", "arrival_seconds"},
  };
  for (const Mutation& m : mutations) {
    std::string text = valid;
    ASSERT_TRUE(SetNthValue(&text, m.key, m.nth, m.value)) << m.name;
    const std::string path =
        TempPath(std::string("mutated_sched_") + m.name + ".json");
    const std::string err = path + ".err";
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    EXPECT_EQ(run(path, err), 2) << m.name;
    EXPECT_NE(ReadFileOrEmpty(err).find(m.field), std::string::npos)
        << m.name << ": " << ReadFileOrEmpty(err);
  }
}

TEST(AnalyzeDiffSmokeTest, ReportImprovementsDoesNotChangeTheVerdict) {
  const std::string a = WriteBenchDoc("analyze_a.json", 1.5);
  const std::string slow = WriteBenchDoc("analyze_slow.json", 3.0);
  // Pure improvements (slow -> fast) pass the gate with and without the flag.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + slow +
                    " " + a),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + slow +
                    " " + a + " --report-improvements"),
            0);
  // A regression still fails regardless of the flag.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + a + " " +
                    slow + " --report-improvements"),
            1);
}

TEST(AnalyzeDiffSmokeTest, SeedMismatchExitsTwo) {
  const std::string a = WriteBenchDoc("analyze_seed42.json", 1.5, 42);
  const std::string b = WriteBenchDoc("analyze_seed43.json", 1.5, 43);
  const std::string err = TempPath("analyze_seed.err");
  EXPECT_EQ(RunTool("(" + std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + a +
                    " " + b + " 2>" + err + ")"),
            2);
  EXPECT_NE(ReadFileOrEmpty(err).find("seed mismatch"), std::string::npos);
  // The run differ compares across seeds.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    b),
            0);
}

TEST(AnalyzeDiffSmokeTest, InvalidRowsExitTwo) {
  const std::string a = WriteBenchDoc("analyze_valid.json", 1.5);
  const std::string negative = WriteBenchDoc("analyze_negative.json", -3.0);
  const std::string duplicate = TempPath("analyze_duplicate.json");
  std::ofstream(duplicate, std::ios::binary)
      << "{\"schema_version\":1,\"bench\":\"smoke\",\"scale_up\":65536,"
      << "\"seed\":42,\"rows\":[{\"label\":\"r0\",\"measured_seconds\":1.5},"
      << "{\"label\":\"r0\",\"measured_seconds\":9}]}";
  for (const std::string& bad : {negative, duplicate}) {
    EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + a + " " +
                      bad),
              2)
        << bad;
    EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + bad +
                      " " + a),
              2)
        << bad;
  }
}

TEST(WhatifSmokeTest, CaptureReplayAndExitCodesFollowTheContract) {
  const std::string trace = TempPath("whatif.trace");
  // Capture a tiny join trace.
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) +
                    " --capture=" + trace +
                    " --machines=2 --inner=32 --outer=32 --scale=65536"),
            0);
  // Replay it on the same cluster shape.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --machines=2"),
            0);
  // Replay it under a what-if knob.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --machines=2 --bandwidth-gbps=1"),
            0);
  // Unknown flag -> usage error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --no-such-flag"), 1);
  // Neither --capture nor --trace -> usage error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --machines=2"), 1);
  // Unknown cluster preset -> error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --cluster=nope"),
            1);
  // Missing trace file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) +
                    " --trace=" + TempPath("missing.trace")),
            2);
  // Machine-count mismatch between trace and replay cluster -> error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --machines=3"),
            1);
}

TEST(TraceToolSmokeTest, MutatedTracesExitTwoNamingTheFieldWithinTenSeconds) {
  // One field of a valid two-machine trace mutated at a time; unvalidated,
  // these crash, hang or pass silently in the replay.
  const std::string valid =
      "{\"scale_up\":512,\"machines\":["
      "{\"net_threads\":[{\"compute_bytes\":1000,"
      "\"sends\":[[1,0,64,500],[1,1,64,900]]}]},"
      "{\"net_threads\":[{\"compute_bytes\":1000,\"sends\":[[0,0,64,400]]}]}]}";
  struct Mutation {
    const char* name;
    const char* from;
    const char* to;
    const char* field;
  };
  const Mutation mutations[] = {
      {"dst", "[1,0,64,500]", "[99,0,64,500]", "dst_machine"},
      {"slot", "[1,0,64,500]", "[1,4294967295,64,500]", "slot"},
      {"scale_up", "\"scale_up\":512", "\"scale_up\":0", "scale_up"},
      {"position", "[1,1,64,900]", "[1,1,64,400]", "compute_bytes_before"},
      {"wire_bytes", "[1,1,64,900]", "[1,1,0,900]", "wire_bytes"},
  };
  // `timeout` turns a hang into exit 124.
  auto run = [](const std::string& trace, const std::string& err) {
    return RunTool("(timeout 10 " + std::string(RDMAJOIN_TRACE_BIN) +
                   " --trace=" + trace + " --out=" + TempPath("mutated.json") +
                   " 2>" + err + ")");
  };
  const std::string base = TempPath("valid.trace");
  {
    std::ofstream out(base, std::ios::binary);
    out << valid;
  }
  ASSERT_EQ(run(base, TempPath("valid.err")), 0);
  for (const Mutation& m : mutations) {
    std::string text = valid;
    const size_t at = text.find(m.from);
    ASSERT_NE(at, std::string::npos) << m.name;
    text.replace(at, std::string(m.from).size(), m.to);
    const std::string path = TempPath(std::string("mutated_") + m.name + ".trace");
    const std::string err = path + ".err";
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    EXPECT_EQ(run(path, err), 2) << m.name;
    EXPECT_NE(ReadFileOrEmpty(err).find(m.field), std::string::npos)
        << m.name << ": " << ReadFileOrEmpty(err);
  }
}

TEST(ChaosSmokeTest, MatrixRunsCleanAndEmitsIdenticalJsonOnRerun) {
  const std::string common =
      std::string(RDMAJOIN_CHAOS_BIN) +
      " --machines=2 --cores=4 --inner=16 --outer=16 --scale=65536 --seed=7" +
      " --presets=qp-error,link-degrade,straggler --policy=both";
  const std::string a = TempPath("chaos_a.json");
  const std::string b = TempPath("chaos_b.json");
  ASSERT_EQ(RunTool(common + " --json=" + a), 0);
  ASSERT_EQ(RunTool(common + " --json=" + b), 0);
  const std::string text_a = ReadFileOrEmpty(a);
  ASSERT_FALSE(text_a.empty());
  // Identical (schedule, seed) -> byte-identical machine-readable output.
  EXPECT_EQ(text_a, ReadFileOrEmpty(b));
  auto parsed = ParseJson(text_a);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  EXPECT_EQ(rows->array_items.size(), 6u);  // 3 presets x 2 policies
  for (const JsonValue& row : rows->array_items) {
    EXPECT_TRUE(row.BoolOr("acceptable", false));
  }

  // Contract violations exit nonzero.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) + " --no-such-flag"), 1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) + " --policy=nope"), 1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) + " --cluster=nope"), 1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) +
                    " --machines=2 --inner=16 --outer=16 --scale=65536" +
                    " --presets=no-such-preset"),
            1);
}

TEST(CliFaultSmokeTest, FaultedRunsAreCleanDeterministicAndCheckable) {
  const std::string common =
      std::string(RDMAJOIN_CLI_BIN) +
      " --machines=2 --inner=512 --outer=512 --scale=65536 --seed=42" +
      " --faults=chaos --fault-policy=recover";
  const std::string spans_a = TempPath("fault_spans_a.json");
  const std::string spans_b = TempPath("fault_spans_b.json");
  ASSERT_EQ(RunTool(common + " --spans-json=" + spans_a), 0);
  ASSERT_EQ(RunTool(common + " --spans-json=" + spans_b), 0);
  const std::string text_a = ReadFileOrEmpty(spans_a);
  ASSERT_FALSE(text_a.empty());
  // Same (schedule, seed) -> byte-identical span dataset.
  EXPECT_EQ(text_a, ReadFileOrEmpty(spans_b));
  // The analyzer's invariant gate holds under an active fault schedule too.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" + spans_a +
                    " --check"),
            0);

  // An abort-policy run against a QP fault fails with a nonzero exit but
  // still exits cleanly (no crash -> RunTool reports the exit code, not -1).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --faults=qp-error --fault-policy=abort"),
            1);
  // Unknown preset / policy are usage errors.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --faults=no-such-preset"),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --faults=chaos --fault-policy=nope"),
            1);
}

TEST_F(ToolsSmokeTest, ReplayToolsValidateThePresetAndTheWhatIfKnobs) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string trace = " --trace=" + *trace_path_;
  const std::string out = " --out=" + TempPath("validated_chrome.json");
  // A 4-machine QDR cluster with one core has no core left to partition
  // once the receiver core is reserved: rejected by
  // ClusterConfig::Validate() with each tool's usage code, not a crash.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_TRACE_BIN) + trace + out +
                    " --cores=1"),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + trace +
                    " --machines=4 --cores=1"),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + trace +
                    " --machines=4 --cores=1"),
            2);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization" +
                    trace + " --cores=1"),
            2);
  // A congestion penalty above the port bandwidth leaves none.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + trace +
                    " --machines=4 --congestion-mbps=5000"),
            1);
  // Every replay tool reads the same preset list, qpi included.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_TRACE_BIN) + trace + out +
                    " --cluster=qpi"),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + trace +
                    " --machines=4 --cluster=qpi"),
            0);
}

// A request that the cluster model's memory cannot hold is refused before
// the workload is generated: each tool exits with its runtime-error code and
// names both byte counts, instead of aborting on std::bad_alloc while it
// allocates a trillion-tuple relation on the host.
TEST(MemorySmokeTest, OversizedInputIsRefusedBeforeGeneration) {
  const std::string args =
      " --machines=2 --inner=1000000 --outer=1000000 --scale=1";
  const std::string err = TempPath("oversized.err");
  for (const std::string& command :
       {std::string(RDMAJOIN_CLI_BIN) + args,
        std::string(RDMAJOIN_CHECK_BIN) + args,
        std::string(RDMAJOIN_CHAOS_BIN) + args,
        std::string(RDMAJOIN_WHATIF_BIN) +
            " --capture=" + TempPath("oversized.trace") + args}) {
    EXPECT_EQ(RunTool("(timeout 10 " + command + " 2>" + err + ")"), 1)
        << command;
    // 5e11 tuples of R and 5e11 of S, 16 B each, on machine 0 of a QDR
    // cluster with 128 GB per machine.
    const std::string text = ReadFileOrEmpty(err);
    EXPECT_NE(text.find("ResourceExhausted"), std::string::npos) << text;
    EXPECT_NE(text.find("16000000000000 bytes"), std::string::npos) << text;
    EXPECT_NE(text.find("128000000000"), std::string::npos) << text;
  }
}

TEST(HelpSmokeTest, EveryToolPrintsHelpAndExitsZero) {
  for (const char* bin :
       {RDMAJOIN_CLI_BIN, RDMAJOIN_CHECK_BIN, RDMAJOIN_CHAOS_BIN,
        RDMAJOIN_WHATIF_BIN, RDMAJOIN_TRACE_BIN, RDMAJOIN_ANALYZE_BIN,
        RDMAJOIN_EXPLAIN_BIN, RDMAJOIN_LINT_BIN}) {
    const std::string help = TempPath("help.txt");
    EXPECT_EQ(RunTool("(" + std::string(bin) + " --help >" + help + ")"), 0)
        << bin;
    EXPECT_NE(ReadFileOrEmpty(help).find("--help"), std::string::npos) << bin;
  }
}

/// One tool's numeric and choice flags, each with the hostile values that
/// are valid for it (and so skipped).
struct HostileFlag {
  const char* flag;
  std::vector<std::string> valid;
};
struct ToolFlags {
  const char* name;
  const char* bin;
  int usage_exit;
  std::vector<HostileFlag> flags;
};

class HostileArgvSweep : public testing::TestWithParam<ToolFlags> {};

// Each hostile value once per numeric and choice flag: every case must be
// rejected at the argv boundary with the tool's usage code -- not a signal,
// a hang (timeout's 124) or a run of some default -- and stderr must name
// the flag.
TEST_P(HostileArgvSweep, EveryValueExitsWithTheUsageCodeNamingTheFlag) {
  const ToolFlags& tool = GetParam();
  const std::string err = TempPath(std::string(tool.name) + ".err");
  for (const HostileFlag& f : tool.flags) {
    for (const std::string value :
         {"abc", "", "-1", "0", "nan", "inf", "1e308", "4294967296",
          "99999999999"}) {
      if (std::find(f.valid.begin(), f.valid.end(), value) != f.valid.end()) {
        continue;
      }
      const std::string arg = std::string(f.flag) + "=" + value;
      EXPECT_EQ(RunTool("(timeout 10 " + std::string(tool.bin) + " '" + arg +
                        "' 2>" + err + ")"),
                tool.usage_exit)
          << tool.name << " " << arg;
      EXPECT_NE(ReadFileOrEmpty(err).find(f.flag), std::string::npos)
          << tool.name << " " << arg << ": " << ReadFileOrEmpty(err);
    }
  }
}

const std::vector<std::string> kValidSeeds = {"0", "4294967296", "99999999999"};

INSTANTIATE_TEST_SUITE_P(
    AllTools, HostileArgvSweep,
    testing::Values(
        ToolFlags{"cli", RDMAJOIN_CLI_BIN, 1,
                  {{"--cluster", {}},      {"--machines", {}},
                   {"--cores", {}},        {"--operator", {}},
                   {"--inner", {}},        {"--outer", {}},
                   {"--width", {}},        {"--zipf", {"0"}},
                   {"--scale", {}},        {"--assignment", {}},
                   {"--transport", {}},    {"--seed", kValidSeeds},
                   {"--fault-policy", {}}}},
        ToolFlags{"check", RDMAJOIN_CHECK_BIN, 1,
                  {{"--cluster", {}},   {"--machines", {}},
                   {"--cores", {}},     {"--operator", {}},
                   {"--inner", {}},     {"--outer", {}},
                   {"--width", {}},     {"--zipf", {"0"}},
                   {"--scale", {}},     {"--assignment", {}},
                   {"--transport", {}}, {"--mode", {}},
                   {"--seed", kValidSeeds}}},
        ToolFlags{"chaos", RDMAJOIN_CHAOS_BIN, 1,
                  {{"--cluster", {}},
                   {"--machines", {}},
                   {"--cores", {}},
                   {"--inner", {}},
                   {"--outer", {}},
                   {"--scale", {}},
                   {"--seed", kValidSeeds},
                   {"--policy", {}}}},
        ToolFlags{"whatif", RDMAJOIN_WHATIF_BIN, 1,
                  {{"--cluster", {}},
                   {"--machines", {}},
                   {"--cores", {}},
                   {"--inner", {}},
                   {"--outer", {}},
                   {"--scale", {}},
                   {"--bandwidth-gbps", {}},
                   {"--congestion-mbps", {"0"}}}},
        ToolFlags{"trace", RDMAJOIN_TRACE_BIN, 1,
                  {{"--cluster", {}}, {"--cores", {}}, {"--bucket-ms", {}}}},
        ToolFlags{"analyze", RDMAJOIN_ANALYZE_BIN, 2,
                  {{"--top", {}},
                   {"--cluster", {}},
                   {"--machines", {}},
                   {"--cores", {}},
                   {"--scale", {}},
                   {"--inner", {"0"}},
                   {"--outer", {"0"}},
                   {"--tolerance", {"0"}},
                   {"--abs-tolerance", {"0"}}}},
        ToolFlags{"explain", RDMAJOIN_EXPLAIN_BIN, 2,
                  {{"--cluster", {}},
                   {"--cores", {}},
                   {"--buckets", {}},
                   {"--top", {}},
                   {"--tolerance", {"0"}},
                   {"--abs-tolerance", {"0"}}}}),
    [](const testing::TestParamInfo<ToolFlags>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rdmajoin
