// Extension (Section 7): the cost of materializing the join result instead
// of leaving it in the operator pipeline (the paper defers this to future
// work, noting that "distributed result materialization involves moving
// large amounts of data"). Here the result tuples (<join_key, inner_rid>,
// 16 bytes per match) are written to local output buffers during the probe.
//
// Expected shape: the penalty grows with the match count -- for a 1:8
// workload the output volume approaches half the input volume and the
// build/probe phase inflates accordingly.

#include "bench/bench_common.h"
#include "cluster/presets.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace rdmajoin;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  std::printf("Extension: result materialization, 4 FDR machines\n");
  bench::PrintScaleNote(opt);

  bench::BenchReporter reporter("ext_materialization", opt);
  TablePrinter table("pipeline vs materialized result (seconds)");
  table.SetHeader({"workload", "pipeline_total", "materialized_total",
                   "bp pipeline", "bp materialized", "output/input"});
  for (double ratio : {1.0, 4.0, 8.0}) {
    const double inner = 512;
    const double outer = inner * ratio;
    const std::string workload = TablePrinter::Num(inner, 0) + "M x " +
                                 TablePrinter::Num(outer, 0) + "M";
    const bench::BenchReporter::Config config = {
        {"inner_mtuples", TablePrinter::Num(inner, 0)},
        {"outer_mtuples", TablePrinter::Num(outer, 0)}};
    auto a = bench::RunPaperJoin(FdrCluster(4), inner, outer, opt);
    auto b = bench::RunPaperJoin(FdrCluster(4), inner, outer, opt, 0.0, 16,
                                 [](JoinConfig* jc) {
                                   jc->materialize_results = true;
                                 });
    if (!a.ok || !b.ok) {
      reporter.AddError(workload, config, !a.ok ? a.error : b.error);
      continue;
    }
    reporter.AddRun("pipeline/" + workload, config, a);
    reporter.AddRun("materialized/" + workload, config, b);
    const double out_ratio = outer * 16 / ((inner + outer) * 16);
    table.AddRow({TablePrinter::Num(inner, 0) + "M x " +
                      TablePrinter::Num(outer, 0) + "M",
                  TablePrinter::Num(a.times.TotalSeconds()),
                  TablePrinter::Num(b.times.TotalSeconds()),
                  TablePrinter::Num(a.times.build_probe_seconds),
                  TablePrinter::Num(b.times.build_probe_seconds),
                  TablePrinter::Num(out_ratio, 2)});
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return reporter.Finish();
}
