#include "timing/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "join/join_config.h"
#include "util/file.h"
#include "util/json.h"

namespace rdmajoin {

namespace {

Status Invalid(const std::string& where, const std::string& what) {
  return Status::InvalidArgument("trace: " + where + ": " + what);
}

// `where()` spells the field's location; it runs only to build an error, so
// a valid trace costs no string work per send.
template <typename Where>
Status CheckNonNegative(const Where& where, const char* field, double v) {
  if (std::isfinite(v) && v >= 0) return Status::OK();
  return Invalid(where(), std::string(field) + " must be finite and >= 0");
}

template <typename Where>
Status ValidateSend(const SendRecord& send, uint32_t issuer, size_t machines,
                    uint64_t prev_compute_bytes, uint64_t compute_bytes,
                    const Where& where) {
  if (send.dst_machine >= machines) {
    return Invalid(where(), "dst_machine " + std::to_string(send.dst_machine) +
                                " >= " + std::to_string(machines) + " machines");
  }
  if (send.src_machine != SendRecord::kIssuerIsSource &&
      send.src_machine >= machines) {
    return Invalid(where(), "src_machine " + std::to_string(send.src_machine) +
                                " >= " + std::to_string(machines) + " machines");
  }
  const uint32_t src =
      send.src_machine == SendRecord::kIssuerIsSource ? issuer : send.src_machine;
  if (src == send.dst_machine) {
    return Invalid(where(), "dst_machine " + std::to_string(send.dst_machine) +
                                " is the send's own source machine");
  }
  if (send.slot >= (uint32_t{1} << kMaxNetworkRadixBits)) {
    return Invalid(where(), "slot " + std::to_string(send.slot) + " >= 2^" +
                                std::to_string(kMaxNetworkRadixBits));
  }
  if (send.wire_bytes == 0) return Invalid(where(), "wire_bytes must be > 0");
  if (send.compute_bytes_before < prev_compute_bytes) {
    return Invalid(where(), "compute_bytes_before " +
                                std::to_string(send.compute_bytes_before) +
                                " < the previous send's " +
                                std::to_string(prev_compute_bytes));
  }
  if (send.compute_bytes_before > compute_bytes) {
    return Invalid(where(), "compute_bytes_before " +
                                std::to_string(send.compute_bytes_before) +
                                " > the thread's compute_bytes " +
                                std::to_string(compute_bytes));
  }
  return CheckNonNegative(where, "retry_delay_seconds", send.retry_delay_seconds);
}

/// The largest value a tuple field of type T takes on the fast path; a
/// double takes any 64-bit integer (converted as the tokenizer converts it).
template <typename T>
constexpr uint64_t FastPathMax() {
  if constexpr (std::is_integral_v<T>) {
    return std::numeric_limits<T>::max();
  } else {
    return std::numeric_limits<uint64_t>::max();
  }
}

/// Reads a numeric tuple [a, b, ...] into `fields`: either the first
/// `required` of them or all of them. Nearly every tuple is plain unsigned
/// integers, read in one scan; any other spelling takes the element-wise
/// path, which decodes the same values and gives the same errors.
template <typename... T>
Status ReadTuple(JsonTokenizer* in, size_t required, T*... fields) {
  static constexpr uint64_t kMax[] = {FastPathMax<T>()...};
  uint64_t values[sizeof...(T)];
  size_t n = 0;
  if (in->TryUintArray(values, kMax, &n)) {
    size_t i = 0;
    auto store_next = [&](auto* field) {
      if (i < n) *field = static_cast<std::remove_pointer_t<decltype(field)>>(values[i]);
      ++i;
    };
    (store_next(fields), ...);
  } else {
    RDMAJOIN_RETURN_IF_ERROR(in->ForEachElement([&] {
      if (n == sizeof...(T)) return in->Error("tuple too long");
      Status st;
      size_t i = 0;
      auto read_nth = [&](auto* field) {
        if (i++ == n) st = in->Read(field);
      };
      (read_nth(fields), ...);
      ++n;
      return st;
    }));
  }
  if (n != required && n != sizeof...(T)) {
    return in->Error("tuple of the wrong length");
  }
  return Status::OK();
}

Status ReadSend(JsonTokenizer* in, SendRecord* send) {
  // [dst, slot, wire_bytes, compute_bytes_before] plus, only for sends the
  // transport layer retried, [.., retries, retry_delay_seconds].
  return ReadTuple(in, 4, &send->dst_machine, &send->slot, &send->wire_bytes,
                   &send->compute_bytes_before, &send->retries,
                   &send->retry_delay_seconds);
}

Status ReadThread(JsonTokenizer* in, ThreadNetTrace* thread) {
  return in->ForEachMember([&](std::string_view key) -> Status {
    if (key == "compute_bytes") return in->Read(&thread->compute_bytes);
    if (key == "sends") {
      return in->ForEachElement([&]() {
        thread->sends.emplace_back();
        return ReadSend(in, &thread->sends.back());
      });
    }
    return in->Error("unknown thread key");
  });
}

Status ReadMachine(JsonTokenizer* in, MachineTrace* machine) {
  return in->ForEachMember([&](std::string_view key) -> Status {
    if (key == "histogram_bytes") return in->Read(&machine->histogram_bytes);
    if (key == "histogram_exchange_seconds") {
      return in->Read(&machine->histogram_exchange_seconds);
    }
    if (key == "recv_bytes") return in->Read(&machine->recv_bytes);
    if (key == "recv_messages") return in->Read(&machine->recv_messages);
    if (key == "local_pass_bytes") return in->Read(&machine->local_pass_bytes);
    if (key == "sort_bytes") return in->Read(&machine->sort_bytes);
    if (key == "stolen_in_bytes") return in->Read(&machine->stolen_in_bytes);
    if (key == "materialized_bytes") {
      return in->Read(&machine->materialized_bytes);
    }
    if (key == "setup_registration_seconds") {
      return in->Read(&machine->setup_registration_seconds);
    }
    if (key == "per_send_registration_seconds") {
      return in->Read(&machine->per_send_registration_seconds);
    }
    if (key == "net_threads") {
      return in->ForEachElement([&]() {
        machine->net_threads.emplace_back();
        return ReadThread(in, &machine->net_threads.back());
      });
    }
    if (key == "tasks") {
      return in->ForEachElement([&]() {
        BuildProbeTask& task = machine->tasks.emplace_back();
        return ReadTuple(in, 3, &task.build_bytes, &task.probe_bytes,
                         &task.table_bytes);
      });
    }
    if (key == "merge_tasks") {
      return in->ForEachElement([&]() {
        return in->Read(&machine->merge_tasks.emplace_back());
      });
    }
    return in->Error("unknown machine key");
  });
}

/// A send that carries the optional retry elements in its tuple.
bool Retried(const SendRecord& send) {
  return send.retries > 0 || send.retry_delay_seconds > 0;
}

/// The longest tuple of four integers: two 10-digit and two 20-digit fields,
/// three commas and the brackets.
constexpr size_t kPlainSendChars = 2 * 10 + 2 * 20 + 3 + 2;

/// The size of TraceToJson's output: exact for the send tuples and for
/// integral task sizes, which are nearly all of a trace, and an upper bound
/// elsewhere, so that the writer neither regrows nor reserves much it does
/// not use.
size_t TraceJsonCapacity(const RunTrace& trace) {
  constexpr size_t kNumber = 24;        // JsonNumberSizeBound's bound
  constexpr size_t kMachineText = 320;  // a machine's keys and brackets
  constexpr size_t kThreadText = 40;    // a thread's keys and brackets
  size_t bytes = 64;
  for (const MachineTrace& mt : trace.machines) {
    bytes += kMachineText + 10 * kNumber +
             mt.net_threads.size() * (kThreadText + kNumber);
    for (const ThreadNetTrace& tt : mt.net_threads) {
      for (const SendRecord& send : tt.sends) {
        // Brackets, three commas and the comma before the next tuple.
        bytes += 6 + JsonUintSize(send.dst_machine) + JsonUintSize(send.slot) +
                 JsonUintSize(send.wire_bytes) +
                 JsonUintSize(send.compute_bytes_before);
        if (Retried(send)) bytes += 2 + JsonUintSize(send.retries) + kNumber;
      }
    }
    for (const BuildProbeTask& task : mt.tasks) {
      // Brackets, two commas and the comma before the next tuple.
      bytes += 5 + JsonNumberSizeBound(task.build_bytes) +
               JsonNumberSizeBound(task.probe_bytes) +
               JsonNumberSizeBound(task.table_bytes);
    }
    for (const double bytes_of_task : mt.merge_tasks) {
      bytes += 1 + JsonNumberSizeBound(bytes_of_task);
    }
  }
  return bytes;
}

}  // namespace

Status ValidateTrace(const RunTrace& trace) {
  if (!(std::isfinite(trace.scale_up) && trace.scale_up >= 1)) {
    return Status::InvalidArgument("trace: scale_up must be finite and >= 1");
  }
  const size_t machines = trace.machines.size();
  if (machines == 0) return Status::InvalidArgument("trace: no machines");
  for (size_t m = 0; m < machines; ++m) {
    const MachineTrace& mt = trace.machines[m];
    auto machine = [m] { return "machine " + std::to_string(m); };
    RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(
        machine, "histogram_exchange_seconds", mt.histogram_exchange_seconds));
    RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(
        machine, "setup_registration_seconds", mt.setup_registration_seconds));
    RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(machine, "per_send_registration_seconds",
                                              mt.per_send_registration_seconds));
    for (size_t i = 0; i < mt.tasks.size(); ++i) {
      auto task = [&] { return machine() + " task " + std::to_string(i); };
      const BuildProbeTask& t = mt.tasks[i];
      RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(task, "build_bytes", t.build_bytes));
      RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(task, "probe_bytes", t.probe_bytes));
      RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(task, "table_bytes", t.table_bytes));
    }
    for (size_t i = 0; i < mt.merge_tasks.size(); ++i) {
      auto task = [&] { return machine() + " merge task " + std::to_string(i); };
      RDMAJOIN_RETURN_IF_ERROR(CheckNonNegative(task, "bytes", mt.merge_tasks[i]));
    }
    for (size_t t = 0; t < mt.net_threads.size(); ++t) {
      const ThreadNetTrace& tt = mt.net_threads[t];
      uint64_t prev = 0;
      for (size_t i = 0; i < tt.sends.size(); ++i) {
        auto send = [&] {
          return machine() + " thread " + std::to_string(t) + " send " +
                 std::to_string(i);
        };
        RDMAJOIN_RETURN_IF_ERROR(ValidateSend(tt.sends[i], static_cast<uint32_t>(m),
                                              machines, prev, tt.compute_bytes, send));
        prev = tt.sends[i].compute_bytes_before;
      }
    }
  }
  return Status::OK();
}

std::string TraceToJson(const RunTrace& trace) {
  std::string out;
  out.reserve(TraceJsonCapacity(trace));
  JsonWriter w(&out);
  w.BeginObject().Key("scale_up").Number(trace.scale_up);
  w.Key("machines").BeginArray();
  for (const MachineTrace& mt : trace.machines) {
    w.BeginObject();
    w.Key("histogram_bytes").Uint(mt.histogram_bytes);
    w.Key("histogram_exchange_seconds").Number(mt.histogram_exchange_seconds);
    w.Key("recv_bytes").Uint(mt.recv_bytes);
    w.Key("recv_messages").Uint(mt.recv_messages);
    w.Key("local_pass_bytes").Uint(mt.local_pass_bytes);
    w.Key("sort_bytes").Uint(mt.sort_bytes);
    w.Key("stolen_in_bytes").Uint(mt.stolen_in_bytes);
    w.Key("materialized_bytes").Uint(mt.materialized_bytes);
    w.Key("setup_registration_seconds").Number(mt.setup_registration_seconds);
    w.Key("per_send_registration_seconds")
        .Number(mt.per_send_registration_seconds);
    w.Key("net_threads").BeginArray();
    for (const ThreadNetTrace& tt : mt.net_threads) {
      w.BeginObject().Key("compute_bytes").Uint(tt.compute_bytes);
      w.Key("sends").BeginArray();
      for (const SendRecord& send : tt.sends) {
        if (Retried(send)) {
          // Optional elements: fault-free traces stay byte-identical.
          w.BeginArray()
              .Uint(send.dst_machine)
              .Uint(send.slot)
              .Uint(send.wire_bytes)
              .Uint(send.compute_bytes_before)
              .Uint(send.retries)
              .Number(send.retry_delay_seconds)
              .EndArray();
          continue;
        }
        // The common tuple, formatted in one buffer and appended once.
        char buf[kPlainSendChars];
        char* p = buf;
        *p++ = '[';
        for (const uint64_t field : {uint64_t{send.dst_machine}, uint64_t{send.slot},
                                     send.wire_bytes, send.compute_bytes_before}) {
          p = std::to_chars(p, buf + sizeof(buf), field).ptr;
          *p++ = ',';
        }
        p[-1] = ']';
        w.Raw(std::string_view(buf, static_cast<size_t>(p - buf)));
      }
      w.EndArray().EndObject();
    }
    w.EndArray().Key("tasks").BeginArray();
    for (const BuildProbeTask& task : mt.tasks) {
      w.BeginArray()
          .Number(task.build_bytes)
          .Number(task.probe_bytes)
          .Number(task.table_bytes)
          .EndArray();
    }
    w.EndArray().Key("merge_tasks").BeginArray();
    for (const double bytes : mt.merge_tasks) w.Number(bytes);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

StatusOr<RunTrace> TraceFromJson(const std::string& json) {
  // Streaming: a trace is tens of MB, and a DOM of it would cost about 30x
  // its size in memory.
  JsonTokenizer in(json);
  RunTrace trace;
  RDMAJOIN_RETURN_IF_ERROR(in.Next());
  RDMAJOIN_RETURN_IF_ERROR(in.ForEachMember([&](std::string_view key) -> Status {
    if (key == "scale_up") return in.Read(&trace.scale_up);
    if (key == "machines") {
      return in.ForEachElement([&]() {
        trace.machines.emplace_back();
        return ReadMachine(&in, &trace.machines.back());
      });
    }
    return in.Error("unknown trace key");
  }));
  RDMAJOIN_RETURN_IF_ERROR(in.Finish());
  RDMAJOIN_RETURN_IF_ERROR(ValidateTrace(trace));
  return trace;
}

Status WriteTraceFile(const RunTrace& trace, const std::string& path) {
  return WriteStringToFile(path, TraceToJson(trace));
}

StatusOr<RunTrace> ReadTraceFile(const std::string& path) {
  RDMAJOIN_ASSIGN_OR_RETURN(const std::string json, ReadFileToString(path));
  return TraceFromJson(json);
}

}  // namespace rdmajoin
