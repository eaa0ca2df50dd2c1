// Google-benchmark microbenchmarks of the join kernels running on this
// machine: radix histogram/scatter/partition, hash-table build (fresh and
// reused) and probe, and the simulated verbs data path. These measure the
// real (host) data-path speed; they are the in-simulation analogue of the
// calibration runs behind Eq. 15 (psPart, hbThread, hpThread) and document
// how the simulation's actual compute cost relates to the modeled
// full-scale rates.
//
// Two entry modes: the default runs the full google-benchmark suite; with
// --bench-json a compact best-of-three pass over representative kernels is
// emitted as BENCH_micro_join_kernels.json so CI's perf-smoke job can diff
// host-time rows against the committed baseline with a generous tolerance
// (see .github/workflows/ci.yml). The wall-clock allowance for this file
// lives in tools/lint_config.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"

#include "baseline/radix_join.h"
#include "cluster/presets.h"
#include "join/assignment.h"
#include "join/exchange.h"
#include "join/hash_table.h"
#include "join/histogram.h"
#include "join/local_partition.h"
#include "operators/radix_sort.h"
#include "operators/sort_utils.h"
#include "rdma/buffer_pool.h"
#include "rdma/verbs.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

Relation MakeRelation(uint64_t n, uint64_t seed = 1) {
  Relation r(kNarrowTupleBytes);
  r.Resize(n);
  Random rng(seed);
  for (uint64_t i = 0; i < n; ++i) r.SetTuple(i, rng.Next() % n, i);
  return r;
}

void BM_Histogram(benchmark::State& state) {
  const uint64_t n = state.range(0);
  DistributedRelation rel;
  rel.chunks.push_back(MakeRelation(n));
  for (auto _ : state) {
    auto h = ComputeHistograms(rel, 10);
    benchmark::DoNotOptimize(h.global.data());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_Histogram)->Arg(1 << 16)->Arg(1 << 20);

void BM_RadixScatter(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  for (auto _ : state) {
    auto parts = RadixScatter(r, 0, 10);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_RadixScatter)->Arg(1 << 16)->Arg(1 << 20);

void BM_RadixPartition(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  for (auto _ : state) {
    RadixPartitions parts;
    RadixPartition(r, 0, 10, 10, &parts);
    benchmark::DoNotOptimize(parts.tuples.data());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_RadixPartition)->Arg(1 << 16)->Arg(1 << 20);

void BM_RadixSort(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  for (auto _ : state) {
    Relation copy(kNarrowTupleBytes);
    copy.AppendRaw(r.data(), r.num_tuples());
    RadixSortByKey(&copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_RadixSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_ComparisonSort(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  for (auto _ : state) {
    Relation copy(kNarrowTupleBytes);
    copy.AppendRaw(r.data(), r.num_tuples());
    SortRelationByKey(&copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_ComparisonSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_HashTableBuild(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  for (auto _ : state) {
    HashTable table(r);
    benchmark::DoNotOptimize(table.num_entries());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_HashTableBuild)->Arg(1 << 11)->Arg(1 << 15);

void BM_HashTableBuildReuse(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  HashTable table(r);
  for (auto _ : state) {
    table.Build(r, 0, n);
    benchmark::DoNotOptimize(table.num_entries());
  }
  state.SetBytesProcessed(state.iterations() * n * kNarrowTupleBytes);
}
BENCHMARK(BM_HashTableBuildReuse)->Arg(1 << 11)->Arg(1 << 15);

void BM_HashTableProbe(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Relation r = MakeRelation(n);
  HashTable table(r);
  Relation s = MakeRelation(n * 4, 7);
  for (auto _ : state) {
    uint64_t matches = 0;
    for (uint64_t i = 0; i < s.num_tuples(); ++i) {
      table.Probe(s.Key(i) % n, [&matches](uint64_t) { ++matches; });
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() * s.num_tuples() * kNarrowTupleBytes);
}
BENCHMARK(BM_HashTableProbe)->Arg(1 << 11)->Arg(1 << 15);

void BM_VerbsSendRecv(benchmark::State& state) {
  const uint64_t msg = state.range(0);
  RdmaDevice a(0, nullptr, CostModel{}), b(1, nullptr, CostModel{});
  CompletionQueue sa, ra, sb, rb;
  QueuePair qa(&a, &sa, &ra), qb(&b, &sb, &rb);
  // lint: discard-ok(bench setup over in-process devices; cannot fail)
  (void)QueuePair::Connect(&qa, &qb);
  std::vector<uint8_t> src(msg), dst(msg);
  auto mr_src = a.RegisterMemory(src.data(), msg);
  auto mr_dst = b.RegisterMemory(dst.data(), msg);
  for (auto _ : state) {
    // lint: discard-ok(hot bench loop; queue depth 1 cannot overflow)
    (void)qb.PostRecv(0, mr_dst->lkey, 0, msg);
    // lint: discard-ok(hot bench loop; queue depth 1 cannot overflow)
    (void)qa.PostSend(0, mr_src->lkey, 0, msg);
    WorkCompletion wc;
    sa.PollOne(&wc);
    rb.PollOne(&wc);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * msg);
}
BENCHMARK(BM_VerbsSendRecv)->Arg(4 << 10)->Arg(64 << 10);

void BM_BufferPoolAcquireRelease(benchmark::State& state) {
  RdmaDevice dev(0, nullptr, CostModel{});
  RegisteredBufferPool pool(&dev, 64 << 10);
  // lint: discard-ok(bench setup; preallocation failure surfaces in Acquire)
  (void)pool.Preallocate(4);
  for (auto _ : state) {
    auto buf = pool.Acquire();
    // lint: discard-ok(hot bench loop; pooled release cannot fail)
    (void)pool.Release(*buf);
    benchmark::DoNotOptimize(*buf);
  }
}
BENCHMARK(BM_BufferPoolAcquireRelease);

void BM_BaselineRadixJoin(benchmark::State& state) {
  const uint64_t n = state.range(0);
  WorkloadSpec spec;
  spec.inner_tuples = n;
  spec.outer_tuples = n * 2;
  auto w = GenerateWorkload(spec, 1);
  for (auto _ : state) {
    auto result = RadixJoin(w->inner.chunks[0], w->outer.chunks[0],
                            BaselineConfig{.bits_pass1 = 8});
    benchmark::DoNotOptimize(result->stats.matches);
  }
  state.SetBytesProcessed(state.iterations() * (spec.inner_tuples + spec.outer_tuples) *
                          kNarrowTupleBytes);
}
BENCHMARK(BM_BaselineRadixJoin)->Arg(1 << 16)->Arg(1 << 19);

// --- --bench-json mode: CI-diffable host-time rows -------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best of three runs: the minimum is the least scheduler-contaminated
/// estimate, and CI diffs these rows with a generous tolerance anyway.
template <typename Fn>
double BestOfThreeSeconds(const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowSeconds();
    fn();
    const double dt = NowSeconds() - t0;
    if (rep == 0 || dt < best) best = dt;
  }
  return best;
}

/// The network partitioning pass of a 10-machine QDR join at scale 4096,
/// where every RDMA buffer holds one 16 B tuple: the verbs message path
/// (Ship, PostSend/PostRecv, completion polls, pool acquire/release) runs
/// once per remote tuple.
constexpr uint32_t kExchangeMachines = 10;
constexpr uint64_t kExchangeTuples = 62500;
constexpr double kExchangeScale = 4096;

struct ExchangeShape {
  ClusterConfig cluster = QdrCluster(kExchangeMachines);
  JoinConfig config;
  Workload workload;
  RadixPartitioner partitioner{JoinConfig{}.network_radix_bits};
  std::vector<uint32_t> assignment;
  std::vector<std::vector<uint64_t>> global_counts;
};

/// Runs the pass once on fresh memory budgets; returns it, or its error.
StatusOr<Exchange::Result> RunExchange(const ExchangeShape& shape) {
  const uint32_t nm = shape.cluster.num_machines;
  Exchange exchange(shape.cluster, shape.config, &shape.partitioner,
                    shape.assignment, shape.global_counts);
  RunTrace trace;
  trace.scale_up = shape.config.scale_up;
  trace.machines.resize(nm);
  std::vector<MemorySpace> memories(
      nm, MemorySpace(shape.cluster.memory_per_machine_bytes));
  std::vector<std::unique_ptr<ScopedReservation>> reservations;
  std::vector<MemorySpace*> memory_ptrs;
  std::vector<ScopedReservation*> reservation_ptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    memory_ptrs.push_back(&memories[m]);
    reservation_ptrs.push_back(reservations[m].get());
  }
  return exchange.Run({&shape.workload.inner, &shape.workload.outer},
                      memory_ptrs, reservation_ptrs, &trace);
}

int RunBenchJson(int argc, char** argv) {
  bool bench_json = false;  // main() dispatched here on it
  const bench::Options opt = bench::ParseOptions(
      argc, argv, 1024.0,
      {SwitchFlag("--bench-json", &bench_json,
                  "time a best-of-three pass over the kernels\n"
                  "instead of running Google Benchmark")});
  bench::BenchReporter reporter("micro_join_kernels", opt);

  constexpr uint64_t kN = 1 << 18;
  const bench::BenchReporter::Config kernel_cfg = {
      {"tuples", std::to_string(kN)}};
  Relation rel = MakeRelation(kN);

  DistributedRelation drel;
  drel.chunks.push_back(MakeRelation(kN));
  reporter.AddMeasurement("histogram", kernel_cfg, BestOfThreeSeconds([&] {
    auto h = ComputeHistograms(drel, 10);
    benchmark::DoNotOptimize(h.global.data());
  }));
  reporter.AddMeasurement("radix_scatter", kernel_cfg, BestOfThreeSeconds([&] {
    auto parts = RadixScatter(rel, 0, 10);
    benchmark::DoNotOptimize(parts.data());
  }));
  reporter.AddMeasurement("radix_partition", kernel_cfg, BestOfThreeSeconds([&] {
    RadixPartitions parts;
    RadixPartition(rel, 0, 10, 10, &parts);
    benchmark::DoNotOptimize(parts.tuples.data());
  }));
  reporter.AddMeasurement("radix_sort", kernel_cfg, BestOfThreeSeconds([&] {
    Relation copy(kNarrowTupleBytes);
    copy.AppendRaw(rel.data(), rel.num_tuples());
    RadixSortByKey(&copy);
    benchmark::DoNotOptimize(copy.data());
  }));

  constexpr uint64_t kHashN = 1 << 15;
  const bench::BenchReporter::Config hash_cfg = {
      {"tuples", std::to_string(kHashN)}};
  Relation build_rel = MakeRelation(kHashN);
  reporter.AddMeasurement("hash_build", hash_cfg, BestOfThreeSeconds([&] {
    HashTable table(build_rel);
    benchmark::DoNotOptimize(table.num_entries());
  }));
  HashTable table(build_rel);
  reporter.AddMeasurement("hash_build_reuse", hash_cfg, BestOfThreeSeconds([&] {
    table.Build(build_rel, 0, build_rel.num_tuples());
    benchmark::DoNotOptimize(table.num_entries());
  }));
  Relation probe_rel = MakeRelation(kHashN * 4, 7);
  reporter.AddMeasurement("hash_probe", hash_cfg, BestOfThreeSeconds([&] {
    uint64_t matches = 0;
    for (uint64_t i = 0; i < probe_rel.num_tuples(); ++i) {
      table.Probe(probe_rel.Key(i) % kHashN, [&matches](uint64_t) { ++matches; });
    }
    benchmark::DoNotOptimize(matches);
  }));

  // Radix-clustered partitions: the partitioning passes hand the build keys
  // that all share their low b1 + b2 bits. One cache-sized partition (32 KiB
  // of 16 B tuples) per width b1 + b2 from 10 to 30, its keys above those
  // bits dense as the workload's dense keys make them, each probed with 4x
  // its size of uniformly drawn matching keys. The chain-step count is
  // exact, so a bucket function that piles such keys into long chains fails
  // the gate even where the wall time hides it.
  constexpr uint64_t kClusterN = 2048;
  constexpr uint32_t kMinSharedBits = 10;
  constexpr uint32_t kMaxSharedBits = 30;
  const bench::BenchReporter::Config cluster_cfg = {
      {"tuples", std::to_string(kClusterN)},
      {"shared_low_bits", std::to_string(kMinSharedBits) + ".." +
                              std::to_string(kMaxSharedBits)}};
  std::vector<Relation> clustered_builds;
  std::vector<std::vector<uint64_t>> clustered_probes;
  Random cluster_rng(3);
  for (uint32_t bits = kMinSharedBits; bits <= kMaxSharedBits; ++bits) {
    const uint64_t low = cluster_rng.Next() & ((uint64_t{1} << bits) - 1);
    Relation& build = clustered_builds.emplace_back(kNarrowTupleBytes);
    for (uint64_t j = 0; j < kClusterN; ++j) build.Append((j << bits) | low, j);
    std::vector<uint64_t>& probes = clustered_probes.emplace_back(kClusterN * 4);
    for (uint64_t& key : probes) key = (cluster_rng.Uniform(kClusterN) << bits) | low;
  }
  std::vector<HashTable> clustered;
  for (const Relation& build : clustered_builds) clustered.emplace_back(build);
  reporter.AddMeasurement("hash_probe_clustered", cluster_cfg, BestOfThreeSeconds([&] {
    uint64_t matches = 0;
    for (size_t t = 0; t < clustered.size(); ++t) {
      for (uint64_t key : clustered_probes[t]) {
        clustered[t].Probe(key, [&matches](uint64_t) { ++matches; });
      }
    }
    benchmark::DoNotOptimize(matches);
  }));
  uint64_t chain_steps = 0;
  for (size_t t = 0; t < clustered.size(); ++t) {
    for (uint64_t key : clustered_probes[t]) chain_steps += clustered[t].ChainLength(key);
  }
  reporter.AddMeasurement("hash_probe_clustered_chain_steps", cluster_cfg,
                          static_cast<double>(chain_steps), "chain_steps");

  constexpr uint64_t kJoinN = 1 << 16;
  const bench::BenchReporter::Config join_cfg = {
      {"inner_tuples", std::to_string(kJoinN)},
      {"outer_tuples", std::to_string(kJoinN * 2)}};
  WorkloadSpec spec;
  spec.inner_tuples = kJoinN;
  spec.outer_tuples = kJoinN * 2;
  auto w = GenerateWorkload(spec, 1);
  reporter.AddMeasurement("baseline_radix_join", join_cfg,
                          BestOfThreeSeconds([&] {
                            auto result =
                                RadixJoin(w->inner.chunks[0], w->outer.chunks[0],
                                          BaselineConfig{.bits_pass1 = 8});
                            benchmark::DoNotOptimize(result->stats.matches);
                          }));

  ExchangeShape shape;
  shape.config.scale_up = kExchangeScale;
  WorkloadSpec exchange_spec;
  exchange_spec.inner_tuples = kExchangeTuples;
  exchange_spec.outer_tuples = kExchangeTuples;
  exchange_spec.seed = 42;
  auto exchange_workload = GenerateWorkload(exchange_spec, kExchangeMachines);
  if (!exchange_workload.ok()) return 1;
  shape.workload = std::move(*exchange_workload);
  const uint32_t bits = shape.config.network_radix_bits;
  shape.assignment = RoundRobinAssignment(uint32_t{1} << bits, kExchangeMachines);
  shape.global_counts = {ComputeHistograms(shape.workload.inner, bits).global,
                         ComputeHistograms(shape.workload.outer, bits).global};
  StatusOr<Exchange::Result> pass = Status::Internal("not run");
  const double exchange_s = BestOfThreeSeconds([&] { pass = RunExchange(shape); });
  if (!pass.ok()) {
    std::fprintf(stderr, "exchange_push: %s\n", pass.status().ToString().c_str());
    return 1;
  }
  const bench::BenchReporter::Config exchange_cfg = {
      {"machines", std::to_string(kExchangeMachines)},
      {"tuples", std::to_string(kExchangeTuples)},
      {"scale", std::to_string(static_cast<uint64_t>(kExchangeScale))}};
  reporter.AddMeasurement("exchange_push", exchange_cfg, exchange_s);
  reporter.AddMeasurement("exchange_push_messages", exchange_cfg,
                          static_cast<double>(pass->messages_sent), "messages");
  reporter.AddMeasurement("exchange_push_pool_acquisitions", exchange_cfg,
                          static_cast<double>(pass->pool_acquisitions),
                          "acquisitions");

  return reporter.Finish();
}

}  // namespace
}  // namespace rdmajoin

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0) {
      return rdmajoin::RunBenchJson(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
