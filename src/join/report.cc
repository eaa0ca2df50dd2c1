#include "join/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "timing/attribution.h"
#include "util/metrics.h"
#include "util/units.h"

namespace rdmajoin {

namespace {
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}
}  // namespace

std::string VerifyAgainstTruth(const JoinResultStats& stats,
                               const GroundTruth& truth) {
  if (stats.matches != truth.expected_matches) {
    return "MISMATCH: " + std::to_string(stats.matches) + " matches, expected " +
           std::to_string(truth.expected_matches);
  }
  if (stats.key_sum != truth.expected_key_sum) {
    return "MISMATCH: key checksum differs";
  }
  if (stats.inner_rid_sum != truth.expected_inner_rid_sum) {
    return "MISMATCH: rid checksum differs";
  }
  return "verified (" + std::to_string(stats.matches) + " matches)";
}

std::string FormatRunReport(const ClusterConfig& cluster, const JoinRunResult& result,
                            const GroundTruth* truth,
                            const MetricsRegistry* metrics) {
  std::string out;
  const PhaseTimes& t = result.times;
  Appendf(&out, "=== join run on %s (%u machines x %u cores) ===\n",
          cluster.name.c_str(), cluster.num_machines, cluster.cores_per_machine);
  const double total = t.TotalSeconds();
  Appendf(&out, "  histogram          %8.3f s  (%4.1f%%)\n", t.histogram_seconds,
          100 * t.histogram_seconds / total);
  Appendf(&out, "  network partition  %8.3f s  (%4.1f%%)\n",
          t.network_partition_seconds, 100 * t.network_partition_seconds / total);
  Appendf(&out, "  local partition    %8.3f s  (%4.1f%%)\n",
          t.local_partition_seconds, 100 * t.local_partition_seconds / total);
  Appendf(&out, "  build-probe        %8.3f s  (%4.1f%%)\n", t.build_probe_seconds,
          100 * t.build_probe_seconds / total);
  Appendf(&out, "  total              %8.3f s\n", total);

  Appendf(&out, "network: %s in %llu messages",
          FormatBytes(static_cast<uint64_t>(result.net.virtual_wire_bytes)).c_str(),
          static_cast<unsigned long long>(result.net.messages_sent));
  if (result.replay.avg_network_rate_bytes_per_sec > 0) {
    Appendf(&out, ", avg %s",
            FormatRateMBps(result.replay.avg_network_rate_bytes_per_sec).c_str());
  }
  out.append("\n");
  if (!result.replay.receiver_busy_seconds.empty()) {
    double max_busy = 0;
    for (double b : result.replay.receiver_busy_seconds) {
      max_busy = std::max(max_busy, b);
    }
    if (t.network_partition_seconds > 0) {
      Appendf(&out, "receiver: busiest core %.1f%% utilized during network pass\n",
              100 * max_busy / t.network_partition_seconds);
    }
  }
  Appendf(&out, "buffer pool: %llu acquisitions, %llu registrations\n",
          static_cast<unsigned long long>(result.net.pool_acquisitions),
          static_cast<unsigned long long>(result.net.pool_buffers_created));
  const ReplayCounters& work = result.replay.counters;
  Appendf(&out,
          "replay work: %llu events, %llu fabric steps, %llu link updates, "
          "%llu reshared links, %llu telemetry callbacks\n",
          static_cast<unsigned long long>(work.events),
          static_cast<unsigned long long>(work.fabric_steps),
          static_cast<unsigned long long>(work.link_updates),
          static_cast<unsigned long long>(work.reshared_links),
          static_cast<unsigned long long>(work.telemetry_callbacks));
  out.append(FormatAttribution(result.replay.attribution));
  if (metrics != nullptr) {
    out.append("observability:\n");
    for (uint32_t m = 0; m < cluster.num_machines; ++m) {
      const std::string host = "fabric.host" + std::to_string(m);
      const Counter* egress = metrics->FindCounter(host + ".egress_bytes");
      const Counter* ingress = metrics->FindCounter(host + ".ingress_bytes");
      if (egress != nullptr && ingress != nullptr) {
        Appendf(&out, "  host%u: %s out, %s in", m,
                FormatBytes(static_cast<uint64_t>(egress->value())).c_str(),
                FormatBytes(static_cast<uint64_t>(ingress->value())).c_str());
      }
      const std::string dev = "rdma.dev" + std::to_string(m);
      const Counter* reg_bytes = metrics->FindCounter(dev + ".bytes_registered");
      const Gauge* pool_hw = metrics->FindGauge(dev + ".pool_outstanding");
      if (reg_bytes != nullptr) {
        Appendf(&out, ", %s registered",
                FormatBytes(static_cast<uint64_t>(reg_bytes->value())).c_str());
      }
      if (pool_hw != nullptr) {
        Appendf(&out, ", pool high-water %.0f buffers", pool_hw->max());
      }
      if ((egress != nullptr && ingress != nullptr) || reg_bytes != nullptr ||
          pool_hw != nullptr) {
        out.append("\n");
      }
    }
  }
  if (truth != nullptr) {
    Appendf(&out, "result: %s\n", VerifyAgainstTruth(result.stats, *truth).c_str());
  }
  return out;
}

}  // namespace rdmajoin
