#ifndef RDMAJOIN_TIMING_TRACE_IO_H_
#define RDMAJOIN_TIMING_TRACE_IO_H_

#include <string>

#include "timing/trace.h"
#include "util/statusor.h"

namespace rdmajoin {

/// Serializes an execution trace to a JSON document. Traces are
/// hardware-independent (they record what the algorithm did, not how long it
/// took), so a saved trace can be replayed against any cluster
/// configuration -- the basis of the what-if tool (tools/rdmajoin_whatif).
std::string TraceToJson(const RunTrace& trace);

/// Checks what the replay relies on: scale_up finite and >= 1, at least one
/// machine, every send's source and destination distinct machines in range,
/// its slot below 2^kMaxNetworkRadixBits (join/join_config.h), its
/// wire_bytes positive and its compute_bytes_before non-decreasing and
/// within the thread's compute_bytes, and every double finite and >= 0.
/// Errors are InvalidArgument naming the machine, thread, send and field.
Status ValidateTrace(const RunTrace& trace);

/// Parses a trace previously produced by TraceToJson. The parser accepts
/// exactly that dialect (object/array/number/string, no escapes needed by
/// the schema) and rejects structural errors, and traces ValidateTrace
/// rejects, with InvalidArgument.
StatusOr<RunTrace> TraceFromJson(const std::string& json);

/// Convenience: write/read a trace file.
Status WriteTraceFile(const RunTrace& trace, const std::string& path);
StatusOr<RunTrace> ReadTraceFile(const std::string& path);

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_TRACE_IO_H_
