#include "util/ledger.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rdmajoin {
namespace {

LedgerEntry MakeEntry(const std::string& bench, const std::string& commit,
                      double r0, double r1) {
  LedgerEntry e;
  e.bench = bench;
  e.commit = commit;
  e.scale_up = 65536;
  e.seed = 42;
  e.rows.push_back(LedgerRow{"row0", r0});
  e.rows.push_back(LedgerRow{"row1", r1});
  e.total_seconds = r0 + r1;
  return e;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + name;
}

TEST(Ledger, EntryRoundTripsThroughJson) {
  const LedgerEntry e = MakeEntry("fig07a", "abc123", 1.25, 2.5);
  const std::string line = LedgerEntryToJson(e);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one line, no newline";
  auto back = ParseLedgerEntry(line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->schema_version, kLedgerSchemaVersion);
  EXPECT_EQ(back->bench, "fig07a");
  EXPECT_EQ(back->commit, "abc123");
  EXPECT_EQ(back->scale_up, 65536);
  EXPECT_EQ(back->seed, 42u);
  EXPECT_EQ(back->total_seconds, 3.75);
  ASSERT_EQ(back->rows.size(), 2u);
  EXPECT_EQ(back->rows[0].label, "row0");
  EXPECT_EQ(back->rows[0].seconds, 1.25);
  EXPECT_EQ(back->rows[1].label, "row1");
  EXPECT_EQ(back->rows[1].seconds, 2.5);
  // Serialization is deterministic modulo the commit field: two entries
  // differing only in commit produce lines that differ only there.
  const std::string other =
      LedgerEntryToJson(MakeEntry("fig07a", "def456", 1.25, 2.5));
  EXPECT_NE(line, other);
  std::string a = line, b = other;
  const size_t pa = a.find("abc123"), pb = b.find("def456");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  a.replace(pa, 6, "X");
  b.replace(pb, 6, "X");
  EXPECT_EQ(a, b);
}

TEST(Ledger, ParseRejectsGarbageAndWrongSchema) {
  EXPECT_FALSE(ParseLedgerEntry("not json").ok());
  EXPECT_FALSE(ParseLedgerEntry("{\"schema_version\":99,\"bench\":\"x\"}").ok());
  EXPECT_FALSE(ParseLedgerEntry("{\"schema_version\":1}").ok());
}

TEST(Ledger, MissingFileIsAnEmptyLedger) {
  auto ledger = ReadLedgerFile(TempPath("no_such_ledger.jsonl"));
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_TRUE(ledger->empty());
}

TEST(Ledger, AppendThenReadBack) {
  const std::string path = TempPath("ledger_append_test.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(AppendLedgerEntry(path, MakeEntry("fig07a", "c1", 1.0, 2.0)).ok());
  ASSERT_TRUE(AppendLedgerEntry(path, MakeEntry("fig07a", "c2", 1.1, 2.0)).ok());
  ASSERT_TRUE(AppendLedgerEntry(path, MakeEntry("fig09", "c2", 5.0, 5.0)).ok());
  auto ledger = ReadLedgerFile(path);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  ASSERT_EQ(ledger->size(), 3u);
  EXPECT_EQ((*ledger)[0].commit, "c1");
  EXPECT_EQ((*ledger)[1].bench, "fig07a");
  EXPECT_EQ((*ledger)[2].bench, "fig09");
  std::remove(path.c_str());
}

TEST(Ledger, LedgerEntryFromBenchSummarizesMeasuredRows) {
  const std::string json =
      "{\"schema_version\":1,\"bench\":\"fig05a\",\"scale_up\":65536,"
      "\"seed\":42,\"rows\":["
      "{\"label\":\"a\",\"ok\":true,\"measured_seconds\":1.5},"
      "{\"label\":\"b\",\"ok\":true,\"measured_seconds\":2.5},"
      "{\"label\":\"broken\",\"ok\":false,\"error\":\"boom\"}]}";
  auto doc = ParseBenchJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const LedgerEntry e = LedgerEntryFromBench(*doc, "deadbeef");
  EXPECT_EQ(e.bench, "fig05a");
  EXPECT_EQ(e.commit, "deadbeef");
  EXPECT_EQ(e.seed, 42u);
  ASSERT_EQ(e.rows.size(), 2u) << "rows without a measurement are skipped";
  EXPECT_EQ(e.total_seconds, 4.0);
  // Default commit tag.
  EXPECT_EQ(LedgerEntryFromBench(*doc, "").commit, "unknown");
}

TEST(Ledger, DriftNeedsHistoryAndMargin) {
  std::vector<LedgerEntry> ledger;
  ledger.push_back(MakeEntry("fig07a", "c1", 1.00, 2.0));
  ledger.push_back(MakeEntry("fig07a", "c2", 1.02, 2.0));
  // Two points: not enough history, never drift.
  auto drifts = DetectLedgerDrift(ledger);
  ASSERT_FALSE(drifts.empty());
  for (const LedgerDrift& d : drifts) EXPECT_FALSE(d.drift);

  // A third point far beyond both margins: row0 drifts, row1 does not.
  ledger.push_back(MakeEntry("fig07a", "c3", 1.50, 2.0));
  drifts = DetectLedgerDrift(ledger, BenchDiffOptions{0.05, 0.02});
  bool row0_drifted = false, row1_drifted = false;
  for (const LedgerDrift& d : drifts) {
    if (d.label == "row0") {
      row0_drifted = d.drift;
      EXPECT_EQ(d.points, 3u);
      EXPECT_NEAR(d.median, 1.01, 1e-12);
      EXPECT_NEAR(d.latest, 1.50, 1e-12);
    }
    if (d.label == "row1") row1_drifted = d.drift;
  }
  EXPECT_TRUE(row0_drifted);
  EXPECT_FALSE(row1_drifted);

  // The same latest value inside wide margins: no drift.
  drifts = DetectLedgerDrift(ledger, BenchDiffOptions{0.60, 0.02});
  for (const LedgerDrift& d : drifts) EXPECT_FALSE(d.drift);
}

TEST(Ledger, FormatRendersTrendsAndDriftVerdicts) {
  std::vector<LedgerEntry> ledger;
  ledger.push_back(MakeEntry("fig07a", "c1", 1.00, 2.0));
  ledger.push_back(MakeEntry("fig07a", "c2", 1.01, 2.0));
  ledger.push_back(MakeEntry("fig07a", "c3", 1.80, 2.0));
  ledger.push_back(MakeEntry("fig09", "c3", 7.0, 7.0));
  const std::string out = FormatLedger(ledger);
  EXPECT_NE(out.find("fig07a"), std::string::npos);
  EXPECT_NE(out.find("fig09"), std::string::npos);
  EXPECT_NE(out.find("DRIFT"), std::string::npos);
  // Deterministic rendering.
  EXPECT_EQ(out, FormatLedger(ledger));
  // The bench filter drops the other series.
  const std::string only09 = FormatLedger(ledger, "fig09");
  EXPECT_EQ(only09.find("fig07a"), std::string::npos);
  EXPECT_NE(only09.find("fig09"), std::string::npos);
}

TEST(Ledger, PhaseConstraintsRoundTripAndKeepPlainEntriesByteIdentical) {
  LedgerEntry plain = MakeEntry("fig05a", "c1", 1.0, 2.0);
  const std::string plain_line = LedgerEntryToJson(plain);
  // No phase_constraints field when the vector is empty: committed ledger
  // history keeps its exact bytes.
  EXPECT_EQ(plain_line.find("phase_constraints"), std::string::npos);

  LedgerEntry labeled = plain;
  labeled.phase_constraints.push_back(
      LedgerPhaseConstraint{"network_partition", "egress"});
  const std::string line = LedgerEntryToJson(labeled);
  EXPECT_NE(line.find("phase_constraints"), std::string::npos);
  auto back = ParseLedgerEntry(line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->phase_constraints.size(), 1u);
  EXPECT_EQ(back->phase_constraints[0].phase, "network_partition");
  EXPECT_EQ(back->phase_constraints[0].bound, "egress");
  EXPECT_EQ(LedgerEntryToJson(*back), line);
  // An element without a phase or bound is rejected.
  EXPECT_FALSE(
      ParseLedgerEntry(
          "{\"schema_version\":1,\"bench\":\"b\",\"rows\":[],"
          "\"phase_constraints\":[{\"phase\":\"p\"}]}")
          .ok());
}

TEST(Ledger, FormatRendersConstraintFlipSeries) {
  std::vector<LedgerEntry> ledger;
  const char* bounds[] = {"egress", "egress", "ingress"};
  for (int i = 0; i < 3; ++i) {
    LedgerEntry e = MakeEntry("fig05a", "c", 1.0, 2.0);
    e.phase_constraints.push_back(
        LedgerPhaseConstraint{"network_partition", bounds[i]});
    ledger.push_back(std::move(e));
  }
  const std::string out = FormatLedger(ledger);
  // One letter per entry: the compute- vs ingress-bound flip reads "eei".
  EXPECT_NE(out.find("bound:network_partition"), std::string::npos);
  EXPECT_NE(out.find("eei"), std::string::npos);
  EXPECT_NE(out.find("latest ingress"), std::string::npos);
  // Entries without forensics render no constraint line.
  const std::string none =
      FormatLedger({MakeEntry("fig05a", "c1", 1.0, 2.0)});
  EXPECT_EQ(none.find("bound:"), std::string::npos);
}

}  // namespace
}  // namespace rdmajoin
