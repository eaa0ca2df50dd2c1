// Reproduces Figure 3: point-to-point bandwidth between two machines for
// message sizes from 2 bytes to 512 KB, on the QDR and FDR networks.
//
// Paper reference: both networks reach and maintain full bandwidth (QDR
// ~3.4 GB/s, FDR ~6.0 GB/s) for messages of 8 KB and larger; small messages
// are limited by the HCA message rate.
//
// With --presets, additionally prints the Table 2 hardware presets.

#include "bench/bench_common.h"
#include "cluster/presets.h"
#include "sim/link_fabric.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace {

using namespace rdmajoin;

/// Streams `total_bytes` in `msg_bytes` messages from host 0 to host 1 with
/// up to `window` outstanding messages and returns the achieved bandwidth.
/// The messages share one link, so the HCA message rate caps the stream as a
/// whole, not each outstanding message.
double MeasureBandwidth(const FabricConfig& config, double msg_bytes,
                        double total_bytes, int window = 32) {
  LinkFabric fabric(config);
  const uint64_t messages = static_cast<uint64_t>(total_bytes / msg_bytes);
  uint64_t sent = 0;
  uint64_t completed = 0;
  double now = 0;
  std::vector<LinkFabric::Completion> done;
  int in_flight = 0;
  while (completed < messages) {
    while (in_flight < window && sent < messages) {
      fabric.Enqueue(0, 1, msg_bytes, now);
      ++sent;
      ++in_flight;
    }
    const double t = fabric.NextCompletionTime();
    done.clear();
    fabric.AdvanceTo(t, &done);
    now = t;
    completed += done.size();
    in_flight -= static_cast<int>(done.size());
  }
  return static_cast<double>(messages) * msg_bytes / now;
}

void PrintPresets() {
  TablePrinter table("Table 2: hardware presets");
  table.SetHeader({"preset", "machines", "cores", "memory/machine", "net BW",
                   "congestion/host", "transport"});
  auto row = [&](const ClusterConfig& c) {
    const char* transport = c.transport == TransportKind::kRdmaChannel ? "RDMA 2-sided"
                            : c.transport == TransportKind::kRdmaMemory
                                ? "RDMA 1-sided"
                                : "TCP (IPoIB)";
    table.AddRow({c.name, TablePrinter::Int(c.num_machines),
                  TablePrinter::Int(c.cores_per_machine),
                  FormatBytes(c.memory_per_machine_bytes),
                  FormatRateMBps(c.transport == TransportKind::kTcp
                                     ? c.tcp.bytes_per_sec
                                     : c.fabric.egress_bytes_per_sec),
                  FormatRateMBps(c.fabric.congestion_bytes_per_sec_per_extra_host),
                  transport});
  };
  row(QdrCluster(10));
  row(FdrCluster(4));
  row(QpiServer());
  row(IpoibCluster(4));
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdmajoin;
  bool presets = false;
  const bench::Options opt = bench::ParseOptions(
      argc, argv, /*default_scale=*/1024.0,
      {SwitchFlag("--presets", &presets,
                  "also print the Table 2 hardware presets")});
  if (presets) PrintPresets();
  std::printf("Figure 3: point-to-point bandwidth vs message size\n\n");
  bench::BenchReporter reporter("fig03_bandwidth", opt);

  TablePrinter table("bandwidth (MB/s) by message size");
  table.SetHeader({"message_size", "QDR", "FDR"});
  const FabricConfig qdr = QdrCluster(2).fabric;
  const FabricConfig fdr = FdrCluster(2).fabric;
  for (uint64_t size = 2; size <= 512 * 1024; size *= 4) {
    const double total = std::max<double>(size * 64.0, 4e6);
    const double bw_qdr = MeasureBandwidth(qdr, static_cast<double>(size), total);
    const double bw_fdr = MeasureBandwidth(fdr, static_cast<double>(size), total);
    const bench::BenchReporter::Config config = {
        {"message_bytes", std::to_string(size)}};
    reporter.AddMeasurement("qdr/" + FormatBytes(size), config, bw_qdr / 1e6,
                            "mbps", size >= 8192 ? 3400.0 : 0.0);
    reporter.AddMeasurement("fdr/" + FormatBytes(size), config, bw_fdr / 1e6,
                            "mbps", size >= 8192 ? 6000.0 : 0.0);
    table.AddRow({FormatBytes(size), TablePrinter::Num(bw_qdr / 1e6, 1),
                  TablePrinter::Num(bw_fdr / 1e6, 1)});
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  std::printf("Expected shape: bandwidth grows with message size and saturates at\n"
              "~3400 MB/s (QDR) / ~6000 MB/s (FDR) from 8 KiB messages onward.\n");
  return reporter.Finish();
}
