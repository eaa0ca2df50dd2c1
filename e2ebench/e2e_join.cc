// Whole-join host-time benchmark driver (README.md in this directory
// documents the workloads, the metrics and how to read a traced run).
//
// One single-threaded process runs one workload through the library's public
// entry points and times the calls from outside; it never edits the library.
//
//   e2e_join --workload=NAME --seed=N --seconds=S --trace=0|1
//            [--smoke] [--spans-out=PATH]
//
// --trace=0 (end-to-end): one spans-off join at the pinned paper seed
//   (paper_err), then the workload is generated a few times (setup_s), then
//   DistributedJoin::Run with the default JoinConfig (WR spans on) and the
//   forensics path run on each result while another iteration fits in S
//   seconds. A host speed probe runs between the timed calls, and each host
//   time is reported scaled to a reference host speed (HostProbe).
// --trace=1 (per-layer): runs one call sequence -- generation, the re-driven
//   join stages, Run with spans off, ReplayTrace off/on, the forensics calls
//   -- untraced and traced with bench-side spans, repeating the pair while
//   another fits in S seconds. Per-layer numbers come from the traced
//   sequences; tracing overhead is traced minus untraced. The bench spans
//   are written to --spans-out at exit.
//
// Every join is checked: Run errors, GroundTruth checksums, protocol
// violations, span/utilization invariants, and exact agreement of the
// virtual times and counters across repeats, between WR spans on and off
// (ReplayTrace both ways against Run with spans off) and between the
// untraced and traced sequences. A join or sequence failing any check counts
// toward `failed`.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics of the selected mode. Exit 0 on a completed run (even with
// failed joins), 2 on bad flags or a workload that cannot be generated.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/memory_space.h"
#include "cluster/presets.h"
#include "join/assignment.h"
#include "join/distributed_join.h"
#include "join/exchange.h"
#include "join/hash_table.h"
#include "join/histogram.h"
#include "join/local_partition.h"
#include "join/partitioner.h"
#include "rdma/validator.h"
#include "timing/span_query.h"
#include "timing/trace_io.h"
#include "timing/utilization.h"
#include "transport/collectives.h"
#include "util/json.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

/// One benchmark workload. The scale (paper tuples per simulated tuple) is
/// pinned here: no flag or environment variable can resize a workload.
struct WorkloadDef {
  const char* name;
  uint32_t machines;
  double inner_mtuples;  ///< Paper units (millions of tuples).
  double outer_mtuples;
  double zipf_theta;
  double scale;
  /// Tiny scale used only by the smoke tests (--smoke).
  double smoke_scale;
  /// The paper's reference makespan for this point (seconds).
  double paper_seconds;
};

// Fig. 7a (10 and 2 machines, uniform) and Fig. 8 (4 machines, Zipf 1.20).
constexpr WorkloadDef kWorkloads[] = {
    {"rack10", 10, 2048, 2048, 0.0, 4096, 262144, 3.84},
    {"pair2_fine", 2, 2048, 2048, 0.0, 256, 262144, 11.16},
    {"rack4_skew", 4, 128, 2048, 1.20, 1024, 65536, 8.51},
};

/// Generations behind setup_s: at least kMinSetups, more while they fit in
/// kSetupTargetSeconds, at most kMaxSetups.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 100;
constexpr double kSetupTargetSeconds = 1.0;

/// The forensics path runs this many times on each join's outputs: it takes
/// a tenth to a half of a join, and its host time varies more than a join's,
/// so analyze_s needs the extra samples more than join_s needs the time.
constexpr int kAnalysesPerJoin = 2;

/// paper_err is measured at this seed whatever --seed is (the seed the
/// committed bench baselines use), so it reads the same on every run.
constexpr uint64_t kPaperSeed = 42;

// ---------------------------------------------------------------------------
// Host clock and bench-side spans.
// ---------------------------------------------------------------------------

/// The benchmark's only wall-clock read.
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // lint: allow(wall-clock)
      .count();
}

/// Bench-side spans (name, start, end, parent) around the public calls of a
/// traced sequence. These are the benchmark's own host-time spans, not the
/// program's WR spans (JoinConfig::enable_spans). A disabled log records
/// nothing and reads no clock.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0;
    double end = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Open(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, Now(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int id) {
    if (id < 0) return;
    spans_[id].end = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open on construction, close on scope exit.
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), id_(log->Open(name)) {}
  ~Scope() { log_->Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// The layer a span name belongs to: its prefix before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Per-name total duration and per-layer self time (duration minus the part
/// covered by child spans) of the spans in [first, end).
void SummarizeSpans(const std::vector<SpanLog::Span>& spans, size_t first,
                    std::map<std::string, double>* by_name,
                    std::map<std::string, double>* self_by_layer) {
  std::vector<double> child_seconds(spans.size(), 0);
  for (size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      child_seconds[spans[i].parent] += spans[i].end - spans[i].start;
    }
  }
  for (size_t i = first; i < spans.size(); ++i) {
    const double seconds = spans[i].end - spans[i].start;
    (*by_name)[spans[i].name] += seconds;
    (*self_by_layer)[LayerOf(spans[i].name)] += seconds - child_seconds[i];
  }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile the sample count supports and the value there:
/// the nearest-rank percentile that leaves ten samples beyond it, or the
/// median when there are fewer than 20 samples.
double TailQuantile(size_t samples) {
  return samples < 20 ? 0.5 : 1.0 - 10.0 / static_cast<double>(samples);
}
double Tail(const std::vector<double>& v) {
  const double q = TailQuantile(v.size());
  return q == 0.5 ? Median(v) : NearestRank(v, q);
}

// ---------------------------------------------------------------------------
// Host speed probe.
// ---------------------------------------------------------------------------

/// A fixed piece of work that never calls the library, timed between the
/// joins to track how fast the shared host runs at the moment. On a shared
/// machine the same join's host time drifts by up to 1.6x within a minute,
/// as the sibling hardware threads, caches and memory bus get busy or idle.
/// This kernel is made of the operations the join path is made of -- a
/// radix scatter, a sort, hash map inserts and lookups, a binary-heap event
/// loop and number formatting -- so it slows with them. Each timed call is
/// scaled by kProbeReferenceSeconds over the mean of the probes run right
/// before and after it, so it reads as host seconds on a host that runs the
/// probe in kProbeReferenceSeconds. A library change does not touch the
/// probe, so it moves the scaled times by as much as the raw ones.
class HostProbe {
 public:
  HostProbe() : keys_(kSortKeys), scatter_in_(kScatterTuples), scatter_out_(kScatterTuples) {
    uint64_t r = 0x9E3779B97F4A7C15ull;
    for (uint64_t& v : scatter_in_) v = r = Lcg(r);
  }

  /// Runs the kernel once and returns its host seconds.
  double Seconds() {
    const double t0 = Now();
    {
      constexpr uint32_t kBits = 8;
      std::vector<uint64_t> offsets(size_t{1} << kBits, 0);
      for (uint64_t v : scatter_in_) ++offsets[v >> (64 - kBits)];
      uint64_t sum = 0;
      for (uint64_t& o : offsets) sum += std::exchange(o, sum);
      for (uint64_t v : scatter_in_) scatter_out_[offsets[v >> (64 - kBits)]++] = v;
      sink_ += scatter_out_[scatter_out_.size() / 3];
    }
    uint64_t r = 0x2545F4914F6CDD1Dull;
    for (uint64_t& k : keys_) k = r = Lcg(r);
    std::sort(keys_.begin(), keys_.end());
    sink_ += keys_[keys_.size() / 2];
    {
      std::string text;
      char buf[32];
      for (uint64_t i = 0; i < kFormatNumbers; ++i) {
        const int n = std::snprintf(buf, sizeof(buf), "%.17g,",
                                    static_cast<double>((r = Lcg(r)) >> 11) * 0x1p-53);
        text.append(buf, static_cast<size_t>(n));
      }
      for (const char* p = text.c_str(); *p != '\0'; ++p) {
        char* end = nullptr;
        sink_ += static_cast<uint64_t>(std::strtod(p, &end) * 1e9);
        p = end;
      }
    }
    {
      std::unordered_map<uint64_t, uint64_t> map;
      for (uint64_t i = 0; i < kMapOps; ++i) map[(r = Lcg(r)) >> 45] += i;
      for (uint64_t i = 0; i < kMapOps; ++i) {
        const auto it = map.find((r = Lcg(r)) >> 45);
        if (it != map.end()) sink_ += it->second;
      }
    }
    {
      using Event = std::pair<double, uint64_t>;
      std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
      for (uint64_t i = 0; i < kHeapSize; ++i) {
        events.push({static_cast<double>(i % 977), i});
      }
      for (uint64_t i = 0; i < kHeapOps; ++i) {
        const Event e = events.top();
        events.pop();
        events.push({e.first + 1.0 + static_cast<double>((r = Lcg(r)) >> 54), e.second});
        sink_ += e.second;
      }
    }
    observed_ = sink_;  // a volatile store, so the compiler keeps the kernel
    return Now() - t0;
  }

 private:
  static constexpr size_t kScatterTuples = size_t{1} << 21;
  static constexpr size_t kSortKeys = size_t{1} << 18;
  static constexpr uint64_t kFormatNumbers = 50000;
  static constexpr uint64_t kMapOps = 100000;
  static constexpr uint64_t kHeapSize = 20000;
  static constexpr uint64_t kHeapOps = 200000;

  static uint64_t Lcg(uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }

  std::vector<uint64_t> keys_;
  std::vector<uint64_t> scatter_in_;
  std::vector<uint64_t> scatter_out_;
  uint64_t sink_ = 0;
  volatile uint64_t observed_ = 0;
};

/// The probe's host seconds on the reference host: a 4-core Xeon VM with
/// its neighbours idle. Changing it rescales every end-to-end host time.
constexpr double kProbeReferenceSeconds = 0.10;

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Join outputs that must repeat exactly.
// ---------------------------------------------------------------------------

uint64_t TotalSends(const RunTrace& trace) {
  uint64_t sends = 0;
  for (const MachineTrace& m : trace.machines) {
    for (const ThreadNetTrace& t : m.net_threads) sends += t.sends.size();
  }
  return sends;
}

/// Virtual times and exact counters of one join. Compared bit for bit.
struct Fingerprint {
  PhaseTimes phases;
  uint64_t matches = 0;
  uint64_t key_sum = 0;
  uint64_t inner_rid_sum = 0;
  uint64_t messages = 0;
  uint64_t pool_acquisitions = 0;
  uint64_t pool_buffers_created = 0;
  double wire_bytes = 0;
  uint64_t sends = 0;

  double virtual_s() const { return phases.TotalSeconds(); }
};

bool SamePhases(const PhaseTimes& a, const PhaseTimes& b) {
  return a.histogram_seconds == b.histogram_seconds &&
         a.network_partition_seconds == b.network_partition_seconds &&
         a.local_partition_seconds == b.local_partition_seconds &&
         a.build_probe_seconds == b.build_probe_seconds;
}

bool Same(const Fingerprint& a, const Fingerprint& b) {
  return SamePhases(a.phases, b.phases) && a.matches == b.matches &&
         a.key_sum == b.key_sum && a.inner_rid_sum == b.inner_rid_sum &&
         a.messages == b.messages && a.pool_acquisitions == b.pool_acquisitions &&
         a.pool_buffers_created == b.pool_buffers_created &&
         a.wire_bytes == b.wire_bytes && a.sends == b.sends;
}

Fingerprint FingerprintOf(const JoinRunResult& r) {
  Fingerprint fp;
  fp.phases = r.times;
  fp.matches = r.stats.matches;
  fp.key_sum = r.stats.key_sum;
  fp.inner_rid_sum = r.stats.inner_rid_sum;
  fp.messages = r.net.messages_sent;
  fp.pool_acquisitions = r.net.pool_acquisitions;
  fp.pool_buffers_created = r.net.pool_buffers_created;
  fp.wire_bytes = r.net.virtual_wire_bytes;
  fp.sends = TotalSends(r.trace);
  return fp;
}

/// Problems of one Run (empty = correct): error, checksums, protocol.
std::vector<std::string> CheckRun(const StatusOr<JoinRunResult>& run,
                                  const GroundTruth& truth,
                                  const ProtocolValidator& validator) {
  std::vector<std::string> problems;
  if (!run.ok()) {
    problems.push_back("Run failed: " + run.status().ToString());
    return problems;
  }
  if (run->stats.matches != truth.expected_matches ||
      run->stats.key_sum != truth.expected_key_sum ||
      run->stats.inner_rid_sum != truth.expected_inner_rid_sum) {
    problems.push_back("join checksums differ from GroundTruth");
  }
  const uint64_t violations = validator.report().total();
  if (violations > 0) {
    problems.push_back(std::to_string(violations) + " protocol violations");
  }
  return problems;
}

// ---------------------------------------------------------------------------
// The forensics path a user runs after a join (rdmajoin_trace/_explain).
// ---------------------------------------------------------------------------

struct AnalyzeOutput {
  double trace_bytes = 0;
  uint64_t segments_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t segments_dropped = 0;
  std::vector<std::string> problems;
};

AnalyzeOutput Analyze(const RunTrace& trace, const ReplayReport& replay,
                      SpanLog* log) {
  AnalyzeOutput out;
  std::string json;
  {
    Scope s(log, "timing.trace_write");
    json = TraceToJson(trace);
  }
  out.trace_bytes = static_cast<double>(json.size());
  {
    Scope s(log, "timing.trace_read");
    auto parsed = TraceFromJson(json);
    if (!parsed.ok()) {
      out.problems.push_back("TraceFromJson: " + parsed.status().ToString());
    } else if (parsed->machines.size() != trace.machines.size() ||
               TotalSends(*parsed) != TotalSends(trace)) {
      out.problems.push_back("trace JSON round trip lost records");
    }
  }
  if (replay.spans == nullptr) {
    out.problems.push_back("no span recorder on a spans-on replay");
    return out;
  }
  SpanDataset dataset;
  {
    Scope s(log, "timing.span_check");
    dataset = replay.spans->Snapshot();
    const SpanInvariantReport inv = CheckSpanInvariants(dataset);
    if (!inv.ok()) {
      out.problems.push_back("span invariants: " + inv.violations.front());
    }
  }
  out.segments_recorded = dataset.segments_recorded;
  out.spans_dropped = dataset.spans_dropped;
  out.segments_dropped = dataset.segments_dropped;
  {
    Scope s(log, "timing.utilization");
    const UtilizationReport util = ComputeUtilization(replay, &dataset);
    const UtilizationCheck check = CheckUtilization(util, replay.attribution);
    if (!check.ok()) {
      out.problems.push_back("utilization: " + check.violations.front());
    }
  }
  {
    Scope s(log, "timing.congestion");
    const CongestionReport congestion = ComputeCongestion(dataset);
    if (congestion.t_end < congestion.t_begin) {
      out.problems.push_back("congestion report has a negative window");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload set-up and the join configuration every figure point runs.
// ---------------------------------------------------------------------------

struct Bench {
  const WorkloadDef* def = nullptr;
  double scale = 0;
  uint64_t seed = 0;
  ClusterConfig cluster;
  WorkloadSpec spec;
};

Bench MakeBench(const WorkloadDef& def, uint64_t seed, bool smoke) {
  Bench b;
  b.def = &def;
  b.scale = smoke ? def.smoke_scale : def.scale;
  b.seed = seed;
  b.cluster = QdrCluster(def.machines);
  b.spec.inner_tuples = static_cast<uint64_t>(def.inner_mtuples * 1e6 / b.scale + 0.5);
  b.spec.outer_tuples = static_cast<uint64_t>(def.outer_mtuples * 1e6 / b.scale + 0.5);
  b.spec.zipf_theta = def.zipf_theta;
  b.spec.seed = seed;
  return b;
}

/// bench::RunPaperJoin's configuration: defaults plus the pinned scale and,
/// under skew, the skew-aware assignment (probe splitting is on by default).
JoinConfig MakeJoinConfig(const Bench& b, bool enable_spans) {
  JoinConfig jc;
  jc.scale_up = b.scale;
  if (b.def->zipf_theta > 0) jc.assignment = AssignmentPolicy::kSkewAware;
  jc.enable_spans = enable_spans;
  return jc;
}

struct RunOutput {
  std::optional<JoinRunResult> result;
  std::vector<std::string> problems;
};

/// One DistributedJoin::Run under a report-mode protocol validator.
RunOutput RunJoin(const Bench& b, const Workload& w, bool enable_spans,
                  double* host_seconds) {
  ProtocolValidator validator(ProtocolValidator::Mode::kReport);
  JoinConfig jc = MakeJoinConfig(b, enable_spans);
  jc.validator = &validator;
  DistributedJoin join(b.cluster, jc);
  const double t0 = Now();
  StatusOr<JoinRunResult> run = join.Run(w.inner, w.outer);
  *host_seconds = Now() - t0;
  RunOutput out;
  out.problems = CheckRun(run, w.truth, validator);
  if (run.ok()) out.result = std::move(*run);
  return out;
}

// ---------------------------------------------------------------------------
// Re-driven join stages (DistributedJoin::Run's data path, stage by stage).
// ---------------------------------------------------------------------------

/// Network bookkeeping of the re-driven Exchange::Run.
struct ExchangeCounters {
  uint64_t messages = 0;
  uint64_t pool_acquisitions = 0;
  uint64_t pool_buffers_created = 0;
  double wire_bytes = 0;
};

struct StageOutput {
  ExchangeCounters counters;
  std::vector<std::string> problems;
};

/// Calls ComputeHistograms, Exchange::Run, RadixScatterMultiPass and
/// HashTable on the workload in the order DistributedJoin::Run does, each
/// under its own span, and checks the join result against GroundTruth.
StageOutput RedriveStages(const Bench& b, const Workload& w, SpanLog* log) {
  Scope stages(log, "join.stages");
  StageOutput out;
  ProtocolValidator validator(ProtocolValidator::Mode::kReport);
  JoinConfig jc = MakeJoinConfig(b, /*enable_spans=*/false);
  jc.validator = &validator;
  const uint32_t nm = b.cluster.num_machines;
  const uint32_t b1 = jc.network_radix_bits;
  const uint32_t parts = uint32_t{1} << b1;

  RelationHistograms hist_r;
  RelationHistograms hist_s;
  {
    Scope s(log, "join.histogram");
    hist_r = ComputeHistograms(w.inner, b1);
    hist_s = ComputeHistograms(w.outer, b1);
    if (nm > 1) {
      auto collectives =
          CollectiveNetwork::Create(nm, 2ull * parts, b.cluster.costs, &validator);
      if (!collectives.ok()) {
        out.problems.push_back("collectives: " + collectives.status().ToString());
        return out;
      }
      std::vector<std::vector<uint64_t>> contributions(nm);
      for (uint32_t m = 0; m < nm; ++m) {
        contributions[m] = hist_r.per_machine[m];
        contributions[m].insert(contributions[m].end(), hist_s.per_machine[m].begin(),
                                hist_s.per_machine[m].end());
      }
      auto reduced = (*collectives)->AllReduceSum(contributions);
      if (!reduced.ok()) {
        out.problems.push_back("all-reduce: " + reduced.status().ToString());
        return out;
      }
      hist_r.global.assign(reduced->begin(), reduced->begin() + parts);
      hist_s.global.assign(reduced->begin() + parts, reduced->end());
    }
  }

  std::vector<uint32_t> assignment;
  if (jc.assignment == AssignmentPolicy::kRoundRobin) {
    assignment = RoundRobinAssignment(parts, nm);
  } else {
    std::vector<uint64_t> combined(parts);
    for (uint32_t p = 0; p < parts; ++p) {
      combined[p] = hist_r.global[p] + hist_s.global[p];
    }
    assignment = SkewAwareAssignment(combined, nm);
  }

  // Memory budgets and input reservations, as Run sets them up; declared
  // before the reservations that point into them.
  std::vector<MemorySpace> memories;
  memories.reserve(nm);
  for (uint32_t m = 0; m < nm; ++m) {
    memories.emplace_back(b.cluster.memory_per_machine_bytes);
  }
  std::vector<std::unique_ptr<ScopedReservation>> reservations;
  std::vector<MemorySpace*> memory_ptrs;
  std::vector<ScopedReservation*> reservation_ptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    const uint64_t input_bytes =
        w.inner.chunks[m].size_bytes() + w.outer.chunks[m].size_bytes();
    const Status reserved = reservations[m]->Add(
        static_cast<uint64_t>(static_cast<double>(input_bytes) * b.scale));
    if (!reserved.ok()) {
      out.problems.push_back("input reservation: " + reserved.ToString());
      return out;
    }
    memory_ptrs.push_back(&memories[m]);
    reservation_ptrs.push_back(reservations[m].get());
  }

  RunTrace trace;
  trace.scale_up = b.scale;
  trace.machines.resize(nm);
  StatusOr<Exchange::Result> exchanged = Status::Internal("exchange not run");
  {
    Scope s(log, "join.exchange");
    RadixPartitioner partitioner(b1);
    Exchange exchange(b.cluster, jc, &partitioner, assignment,
                      {hist_r.global, hist_s.global});
    exchanged = exchange.Run({&w.inner, &w.outer}, memory_ptrs, reservation_ptrs,
                             &trace);
  }
  if (!exchanged.ok()) {
    out.problems.push_back("Exchange::Run: " + exchanged.status().ToString());
    return out;
  }
  auto& stores = exchanged->stores;

  const uint64_t cache_bytes = jc.ActualCachePartitionBytes(w.inner.tuple_bytes());
  std::vector<std::vector<std::pair<Relation, Relation>>> final_parts(nm);
  {
    Scope s(log, "join.local_partition");
    for (uint32_t m = 0; m < nm; ++m) {
      uint64_t max_r_bytes = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        if (assignment[p] != m) continue;
        max_r_bytes = std::max(max_r_bytes, stores[m]->Rel(p, 0).size_bytes());
      }
      const uint32_t b2 = BitsForTarget(max_r_bytes, cache_bytes,
                                        /*max_bits=*/2 * jc.local_bits_per_pass);
      for (uint32_t p = 0; p < parts; ++p) {
        if (assignment[p] != m) continue;
        Relation& rp = stores[m]->Rel(p, 0);
        Relation& sp = stores[m]->Rel(p, 1);
        if (b2 == 0) {
          final_parts[m].emplace_back(std::move(rp), std::move(sp));
          continue;
        }
        auto r_sub = RadixScatterMultiPass(rp, b1, b2, jc.local_bits_per_pass);
        rp.Deallocate();
        auto s_sub = RadixScatterMultiPass(sp, b1, b2, jc.local_bits_per_pass);
        sp.Deallocate();
        for (size_t q = 0; q < r_sub.size(); ++q) {
          if (r_sub[q].empty() && s_sub[q].empty()) continue;
          final_parts[m].emplace_back(std::move(r_sub[q]), std::move(s_sub[q]));
        }
      }
    }
  }

  uint64_t matches = 0;
  uint64_t key_sum = 0;
  uint64_t inner_rid_sum = 0;
  {
    Scope s(log, "join.build_probe");
    for (uint32_t m = 0; m < nm; ++m) {
      for (const auto& [r, sp] : final_parts[m]) {
        HashTable table(r);
        for (uint64_t i = 0; i < sp.num_tuples(); ++i) {
          const uint64_t key = sp.Key(i);
          table.Probe(key, [&](uint64_t inner_rid) {
            ++matches;
            key_sum += key;
            inner_rid_sum += inner_rid;
          });
        }
      }
    }
  }
  if (matches != w.truth.expected_matches || key_sum != w.truth.expected_key_sum ||
      inner_rid_sum != w.truth.expected_inner_rid_sum) {
    out.problems.push_back("re-driven stages: checksums differ from GroundTruth");
  }
  if (validator.report().total() > 0) {
    out.problems.push_back("re-driven stages: protocol violations");
  }
  out.counters = {exchanged->messages_sent, exchanged->pool_acquisitions,
                  exchanged->pool_buffers_created, exchanged->virtual_wire_bytes};
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintProblems(const std::vector<std::string>& problems, const char* what) {
  for (const std::string& p : problems) {
    std::fprintf(stderr, "e2e_join: %s: %s\n", what, p.c_str());
  }
}

StatusOr<Workload> Generate(const Bench& b) {
  return GenerateWorkload(b.spec, b.cluster.num_machines);
}

// ---------------------------------------------------------------------------
// --trace=0: end-to-end metrics.
// ---------------------------------------------------------------------------

int RunEndToEnd(const Bench& b, double seconds) {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // paper_err: one spans-off join at the pinned reference seed, so the error
  // against the paper reads the same whatever --seed is.
  Bench paper = b;
  paper.seed = kPaperSeed;
  paper.spec.seed = kPaperSeed;
  double paper_virtual_s = 0;
  {
    StatusOr<Workload> generated = Generate(paper);
    if (!generated.ok()) {
      std::fprintf(stderr, "e2e_join: GenerateWorkload: %s\n",
                   generated.status().ToString().c_str());
      return 2;
    }
    ++attempted;
    double unused = 0;
    RunOutput run = RunJoin(paper, *generated, /*enable_spans=*/false, &unused);
    if (run.result.has_value()) paper_virtual_s = run.result->times.TotalSeconds();
    if (!run.problems.empty()) ++failed;
    PrintProblems(run.problems, "paper-seed join");
  }

  // The host speed probe runs between all timed calls; its first run only
  // warms it up. Every sample is kept raw and scaled by the probes on
  // either side of it.
  HostProbe probe;
  probe.Seconds();
  std::vector<double> probe_samples = {probe.Seconds()};
  struct Samples {
    std::vector<double> raw;
    std::vector<double> scaled;
  };
  auto record = [&](Samples* samples, double seconds) {
    const double before = probe_samples.back();
    probe_samples.push_back(probe.Seconds());
    samples->raw.push_back(seconds);
    samples->scaled.push_back(seconds * kProbeReferenceSeconds /
                              (0.5 * (before + probe_samples.back())));
  };

  // Set-up: generate the inputs several times (one copy alive at a time).
  Samples setup;
  std::optional<Workload> workload;
  const double setup_begin = Now();
  while (setup.raw.size() < kMinSetups ||
         (Now() - setup_begin < kSetupTargetSeconds && setup.raw.size() < kMaxSetups)) {
    workload.reset();
    const double t0 = Now();
    StatusOr<Workload> generated = Generate(b);
    record(&setup, Now() - t0);
    if (!generated.ok()) {
      std::fprintf(stderr, "e2e_join: GenerateWorkload: %s\n",
                   generated.status().ToString().c_str());
      return 2;
    }
    workload = std::move(*generated);
  }
  const Workload& w = *workload;

  // Timed loop: join + forensics, repeated while another iteration still
  // fits in `seconds` (at least once).
  Samples joins;
  Samples analyses;
  std::optional<Fingerprint> reference;
  const double loop_begin = Now();
  double last_iteration = 0;
  while (joins.raw.empty() || Now() - loop_begin + last_iteration <= seconds) {
    const double iteration_begin = Now();
    ++attempted;
    double join_seconds = 0;
    RunOutput run = RunJoin(b, w, /*enable_spans=*/true, &join_seconds);
    record(&joins, join_seconds);
    std::vector<std::string> problems = std::move(run.problems);
    if (run.result.has_value()) {
      const Fingerprint fp = FingerprintOf(*run.result);
      if (!reference.has_value()) {
        reference = fp;
      } else if (!Same(fp, *reference)) {
        problems.push_back("virtual times or counters differ from the first join");
      }
      for (int k = 0; k < kAnalysesPerJoin; ++k) {
        const double t0 = Now();
        SpanLog off(false);
        AnalyzeOutput analyzed = Analyze(run.result->trace, run.result->replay, &off);
        record(&analyses, Now() - t0);
        problems.insert(problems.end(), analyzed.problems.begin(),
                        analyzed.problems.end());
      }
    }
    if (!problems.empty()) ++failed;
    PrintProblems(problems, "join");
    last_iteration = Now() - iteration_begin;
  }

  const double tail_q = TailQuantile(joins.raw.size());
  const std::vector<Metric> metrics = {
      {"join_s", Median(joins.scaled), "s"},
      {"analyze_s", Median(analyses.scaled), "s"},
      {"setup_s", Median(setup.scaled), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"paper_err",
       std::fabs(paper_virtual_s - b.def->paper_seconds) / b.def->paper_seconds,
       "ratio"},
  };
  std::printf("# e2ebench workload=%s seed=%llu scale=%.0f machines=%u trace=0\n",
              b.def->name, static_cast<unsigned long long>(b.seed), b.scale,
              b.def->machines);
  std::printf("# host speed probe: median %.6g s over n=%zu, reference %.6g s\n",
              Median(probe_samples), probe_samples.size(), kProbeReferenceSeconds);
  std::printf("# join_s tail: p%.1f = %.6g s over n=%zu samples; setups=%zu\n",
              100.0 * tail_q, Tail(joins.scaled), joins.raw.size(), setup.raw.size());
  std::printf("# raw medians: join %.6g s, analyze %.6g s, setup %.6g s\n",
              Median(joins.raw), Median(analyses.raw), Median(setup.raw));
  std::printf("# raw join_s samples:");
  for (double v : joins.raw) std::printf(" %.4f", v);
  std::printf("\n# virtual_s=%.9g (seed %llu), %.9g (paper seed %llu), paper_s=%.9g\n",
              reference.has_value() ? reference->virtual_s() : 0.0,
              static_cast<unsigned long long>(b.seed), paper_virtual_s,
              static_cast<unsigned long long>(kPaperSeed), b.def->paper_seconds);
  PrintMetrics(metrics);
  std::printf("# %-28s %.6g ratio (%llu/%llu)\n", "fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --trace=1: per-layer metrics from a traced call sequence.
// ---------------------------------------------------------------------------

/// Outputs of one call sequence that must agree between the untraced and
/// traced executions.
struct SequenceOutput {
  Fingerprint run;           // Run, spans off
  PhaseTimes replay_off;     // ReplayTrace, spans off
  PhaseTimes replay_on;      // ReplayTrace, spans on
  ExchangeCounters stage_counters;
  AnalyzeOutput analyzed;
  std::vector<std::string> problems;
};

SequenceOutput RunSequence(const Bench& b, SpanLog* log) {
  SequenceOutput out;
  Scope root(log, "bench.sequence");
  std::optional<Workload> workload;
  {
    Scope s(log, "workload.generate");
    StatusOr<Workload> generated = Generate(b);
    if (!generated.ok()) {
      out.problems.push_back("GenerateWorkload: " + generated.status().ToString());
      return out;
    }
    workload = std::move(*generated);
  }
  StageOutput stages = RedriveStages(b, *workload, log);
  out.problems = std::move(stages.problems);
  out.stage_counters = stages.counters;

  std::optional<JoinRunResult> result;
  {
    Scope s(log, "e2e.join_run");
    double unused = 0;
    RunOutput run = RunJoin(b, *workload, /*enable_spans=*/false, &unused);
    out.problems.insert(out.problems.end(), run.problems.begin(), run.problems.end());
    result = std::move(run.result);
  }
  if (!result.has_value()) return out;
  workload.reset();
  out.run = FingerprintOf(*result);
  const ExchangeCounters& ex = out.stage_counters;
  if (ex.messages != out.run.messages ||
      ex.pool_acquisitions != out.run.pool_acquisitions ||
      ex.pool_buffers_created != out.run.pool_buffers_created ||
      ex.wire_bytes != out.run.wire_bytes) {
    out.problems.push_back("re-driven Exchange::Run counters differ from Run's");
  }

  const JoinConfig jc = MakeJoinConfig(b, /*enable_spans=*/true);
  ReplayOptions off;
  off.spans.enabled = false;
  ReplayReport replay_off;
  {
    Scope s(log, "timing.replay");
    replay_off = ReplayTrace(b.cluster, jc, result->trace, off);
  }
  out.replay_off = replay_off.phases;
  ReplayReport replay_on;
  {
    Scope s(log, "timing.replay_spans");
    replay_on = ReplayTrace(b.cluster, jc, result->trace, ReplayOptions());
  }
  out.replay_on = replay_on.phases;
  if (!SamePhases(out.replay_off, out.run.phases) ||
      !SamePhases(out.replay_on, out.run.phases)) {
    out.problems.push_back("ReplayTrace spans on/off differ from Run's phases");
  }
  out.analyzed = Analyze(result->trace, replay_on, log);
  out.problems.insert(out.problems.end(), out.analyzed.problems.begin(),
                      out.analyzed.problems.end());
  return out;
}

bool SameSequence(const SequenceOutput& a, const SequenceOutput& b) {
  return Same(a.run, b.run) && SamePhases(a.replay_off, b.replay_off) &&
         SamePhases(a.replay_on, b.replay_on) &&
         a.analyzed.trace_bytes == b.analyzed.trace_bytes &&
         a.analyzed.segments_recorded == b.analyzed.segments_recorded &&
         a.analyzed.spans_dropped == b.analyzed.spans_dropped &&
         a.analyzed.segments_dropped == b.analyzed.segments_dropped;
}

Status WriteSpans(const std::string& path, const Bench& b, const SpanLog& log) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << "{\"workload\":\"" << JsonEscape(b.def->name) << "\",\"seed\":" << b.seed
      << ",\"scale\":" << JsonNumber(b.scale) << ",\"spans\":[\n";
  const auto& spans = log.spans();
  const double origin = spans.empty() ? 0 : spans.front().start;
  for (size_t i = 0; i < spans.size(); ++i) {
    out << "{\"id\":" << i << ",\"name\":\"" << JsonEscape(spans[i].name)
        << "\",\"parent\":" << spans[i].parent
        << ",\"start_s\":" << JsonNumber(spans[i].start - origin)
        << ",\"end_s\":" << JsonNumber(spans[i].end - origin) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();
  if (!out) return Status::InvalidArgument("short write to " + path);
  return Status::OK();
}

int RunTraced(const Bench& b, double seconds, const std::string& spans_out) {
  SpanLog untraced(false);
  SpanLog traced(true);
  std::vector<double> untraced_totals;
  std::vector<double> traced_totals;
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, std::vector<double>> self_by_layer;
  std::optional<SequenceOutput> reference;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const double begin = Now();
  double last_pair = 0;
  for (size_t pair = 0; pair == 0 || Now() - begin + last_pair <= seconds; ++pair) {
    const double pair_begin = Now();
    // Alternate which execution goes first, so neither always runs cold.
    for (int k = 0; k < 2; ++k) {
      const bool is_traced = (k == 0) == (pair % 2 == 1);
      SpanLog* log = is_traced ? &traced : &untraced;
      const size_t first_span = traced.spans().size();
      const double t0 = Now();
      SequenceOutput seq = RunSequence(b, log);
      (is_traced ? traced_totals : untraced_totals).push_back(Now() - t0);
      ++attempted;
      std::vector<std::string> problems = std::move(seq.problems);
      if (!reference.has_value()) {
        reference = seq;
      } else if (!SameSequence(seq, *reference)) {
        problems.push_back("traced and untraced sequences disagree");
      }
      if (!problems.empty()) ++failed;
      PrintProblems(problems, is_traced ? "traced sequence" : "untraced sequence");
      if (is_traced) {
        std::map<std::string, double> names;
        std::map<std::string, double> layers;
        SummarizeSpans(traced.spans(), first_span, &names, &layers);
        for (const auto& [name, s] : names) by_name[name].push_back(s);
        for (const auto& [layer, s] : layers) self_by_layer[layer].push_back(s);
      }
    }
    last_pair = Now() - pair_begin;
  }

  auto span_s = [&](const char* name) { return Median(by_name[name]); };
  auto self_s = [&](const char* layer) { return Median(self_by_layer[layer]); };
  const SequenceOutput& ref = *reference;
  const double stage_sum = span_s("join.histogram") + span_s("join.exchange") +
                           span_s("join.local_partition") + span_s("join.build_probe");
  const double replay_s = span_s("timing.replay");
  const double replay_spans_s = span_s("timing.replay_spans");
  const double datapath = span_s("e2e.join_run") - replay_s;
  const double untraced_s = Median(untraced_totals);
  const double overhead_s = Median(traced_totals) - untraced_s;
  const std::vector<Metric> metrics = {
      {"workload.generate_s", span_s("workload.generate"), "s"},
      {"join.histogram_s", span_s("join.histogram"), "s"},
      {"join.exchange_s", span_s("join.exchange"), "s"},
      {"join.local_partition_s", span_s("join.local_partition"), "s"},
      {"join.build_probe_s", span_s("join.build_probe"), "s"},
      {"join.stage_sum_s", stage_sum, "s"},
      {"join.datapath_s", datapath, "s"},
      {"join.stage_gap_s", datapath - stage_sum, "s"},
      {"transport.messages", static_cast<double>(ref.run.messages), "count"},
      {"transport.wire_mb", ref.run.wire_bytes / 1e6, "MB"},
      {"rdma.pool_acquisitions", static_cast<double>(ref.run.pool_acquisitions), "count"},
      {"rdma.pool_buffers_created", static_cast<double>(ref.run.pool_buffers_created),
       "count"},
      {"timing.virtual_makespan", ref.run.virtual_s(), "virtual_s"},
      {"timing.sends", static_cast<double>(ref.run.sends), "count"},
      {"timing.segments_recorded", static_cast<double>(ref.analyzed.segments_recorded),
       "count"},
      {"timing.spans_dropped", static_cast<double>(ref.analyzed.spans_dropped), "count"},
      {"timing.segments_dropped", static_cast<double>(ref.analyzed.segments_dropped),
       "count"},
      {"timing.trace_mb", ref.analyzed.trace_bytes / 1e6, "MB"},
      {"timing.replay_s", replay_s, "s"},
      {"timing.replay_spans_s", replay_spans_s, "s"},
      {"timing.span_overhead", replay_spans_s / replay_s - 1.0, "ratio"},
      {"timing.replay_msgs_per_s", static_cast<double>(ref.run.sends) / replay_s, "1/s"},
      {"timing.trace_write_s", span_s("timing.trace_write"), "s"},
      {"timing.trace_read_s", span_s("timing.trace_read"), "s"},
      {"timing.span_check_s", span_s("timing.span_check"), "s"},
      {"timing.utilization_s", span_s("timing.utilization"), "s"},
      {"timing.congestion_s", span_s("timing.congestion"), "s"},
      {"workload.self_s", self_s("workload"), "s"},
      {"join.self_s", self_s("join"), "s"},
      {"timing.self_s", self_s("timing"), "s"},
      {"e2e.self_s", self_s("e2e"), "s"},
      {"bench.self_s", self_s("bench"), "s"},
      {"bench.sequence_s", untraced_s, "s"},
      {"bench.trace_overhead_s", overhead_s, "s"},
      {"bench.trace_overhead", overhead_s / untraced_s, "ratio"},
  };
  std::printf("# e2ebench workload=%s seed=%llu scale=%.0f machines=%u trace=1\n",
              b.def->name, static_cast<unsigned long long>(b.seed), b.scale,
              b.def->machines);
  std::printf("# sequences: %zu untraced, %zu traced; %zu bench spans\n",
              untraced_totals.size(), traced_totals.size(), traced.spans().size());
  PrintMetrics(metrics);
  std::printf("# %-28s %.6g ratio (%llu/%llu)\n", "fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!spans_out.empty()) {
    const Status written = WriteSpans(spans_out, b, traced);
    if (!written.ok()) {
      std::fprintf(stderr, "e2e_join: %s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("# wrote %s\n", spans_out.c_str());
  }
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: e2e_join --workload=NAME --seed=N --seconds=S --trace=0|1\n"
               "                [--smoke] [--spans-out=PATH]\n"
               "workloads:",
               error.c_str());
  for (const WorkloadDef& def : kWorkloads) std::fprintf(stderr, " %s", def.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (*text == '\0') return false;
  uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    if (v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(*p - '0');
  }
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  const WorkloadDef* def = nullptr;
  std::optional<uint64_t> seed;
  std::optional<uint64_t> seconds;
  std::optional<uint64_t> trace;
  bool smoke = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    uint64_t number = 0;
    if (key == "--workload") {
      for (const WorkloadDef& d : kWorkloads) {
        if (value == d.name) def = &d;
      }
      if (def == nullptr) Usage("unknown workload '" + value + "'");
    } else if (key == "--seed" || key == "--seconds" || key == "--trace") {
      if (!ParseUnsigned(value.c_str(), &number)) {
        Usage("invalid " + key + " value '" + value + "'");
      }
      (key == "--seed" ? seed : key == "--seconds" ? seconds : trace) = number;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (key == "--spans-out" && !value.empty()) {
      spans_out = value;
    } else {
      Usage("unknown flag '" + arg + "'");
    }
  }
  if (def == nullptr || !seed || !seconds || !trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (*trace > 1) Usage("--trace must be 0 or 1");
  if (*seconds < 1 || *seconds > 600) Usage("--seconds must be in [1, 600]");
  const Bench b = MakeBench(*def, *seed, smoke);
  const double s = static_cast<double>(*seconds);
  return *trace == 0 ? RunEndToEnd(b, s) : RunTraced(b, s, spans_out);
}

}  // namespace
}  // namespace rdmajoin

int main(int argc, char** argv) { return rdmajoin::Main(argc, argv); }
