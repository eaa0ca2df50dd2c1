#include "timing/trace_io.h"

#include "util/file.h"
#include "util/json.h"

namespace rdmajoin {

namespace {

/// Reads a numeric tuple [a, b, ...] into `fields`: either the first
/// `required` of them or all of them.
template <typename... T>
Status ReadTuple(JsonTokenizer* in, size_t required, T*... fields) {
  size_t n = 0;
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

}  // namespace

std::string TraceToJson(const RunTrace& trace) {
  std::string out;
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
        w.BeginArray()
            .Uint(send.dst_machine)
            .Uint(send.slot)
            .Uint(send.wire_bytes)
            .Uint(send.compute_bytes_before);
        if (send.retries > 0 || send.retry_delay_seconds > 0) {
          // Optional elements: fault-free traces stay byte-identical.
          w.Uint(send.retries).Number(send.retry_delay_seconds);
        }
        w.EndArray();
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
