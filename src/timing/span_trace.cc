#include "timing/span_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/file.h"
#include "util/json.h"
#include "util/logging.h"

namespace rdmajoin {

namespace {

// Byte budget split between the two rings: spans are the primary product,
// segments the supporting telemetry.
constexpr double kSpanBudgetShare = 0.5;
// Floors keep tiny budgets usable (and the rings non-empty).
constexpr size_t kMinRingEntries = 64;

size_t RingCapacity(uint64_t budget_bytes, size_t entry_bytes) {
  const size_t n = static_cast<size_t>(budget_bytes / entry_bytes);
  return n < kMinRingEntries ? kMinRingEntries : n;
}

int OpIndex(WorkCompletion::Op op) { return static_cast<int>(op); }

/// Span datasets spell their integer fields through the double formatter
/// (so e.g. id 14180 reads "1.418e+04"); the readers accept that spelling.
void WriteOpCounts(JsonWriter* w, const char* key, const uint64_t (&c)[4]) {
  w->Key(key).BeginArray();
  for (const uint64_t n : c) w->Number(static_cast<double>(n));
  w->EndArray();
}

Status ReadOpCounts(const JsonValue& obj, const char* key, uint64_t (*c)[4]) {
  const JsonValue* arr = obj.Find(key);
  if (arr == nullptr || !arr->is_array() || arr->array_items.size() != 4) {
    return Status::InvalidArgument(std::string("span JSON: bad \"") + key +
                                   "\" opcode array");
  }
  for (int i = 0; i < 4; ++i) {
    RDMAJOIN_RETURN_IF_ERROR(arr->array_items[i].As(&(*c)[i], key));
  }
  return Status::OK();
}

}  // namespace

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kPosted:
      return "posted";
    case SpanStage::kCreditAcquired:
      return "credit_acquired";
    case SpanStage::kFabricAdmitted:
      return "fabric_admitted";
    case SpanStage::kDelivered:
      return "delivered";
    case SpanStage::kCompleted:
      return "completed";
  }
  return "?";
}

SpanRecorder::SpanRecorder(const SpanConfig& config) : config_(config) {
  if (!config_.enabled) return;
  const double budget = static_cast<double>(config_.max_bytes);
  span_capacity_ = RingCapacity(
      static_cast<uint64_t>(budget * kSpanBudgetShare), sizeof(WrSpan));
  segment_capacity_ = RingCapacity(
      static_cast<uint64_t>(budget * (1.0 - kSpanBudgetShare)),
      sizeof(FlowSegment));
  segments_.reserve(std::min<size_t>(segment_capacity_, 4096));
}

void SpanRecorder::ExpectSpans(uint64_t n) {
  if (!config_.enabled || n == 0) return;
  const uint64_t last = next_id_ + n - 1;
  if (last <= promised_last_) return;  // An earlier promise covers these ids.
  promised_last_ = last;
  if (n <= span_capacity_) return;
  // Ids up to last - span_capacity_, and every span the ring holds now, are
  // overwritten before the next snapshot: the stored ids start after them
  // and fill the ring exactly once.
  keep_from_ = last - span_capacity_ + 1;
  spans_.clear();
}

void SpanRecorder::WarnOnFirstDrop(const char* what) {
  if (warned_overflow_) return;
  warned_overflow_ = true;
  RDMAJOIN_LOG(kWarning) << "span recorder ring full (" << what
                         << "): oldest entries are being evicted; raise "
                            "SpanConfig::max_bytes (current "
                         << config_.max_bytes
                         << " bytes) to keep the whole run";
}

WrSpan* SpanRecorder::Find(uint64_t id) {
  if (id < keep_from_ || span_capacity_ == 0) return nullptr;
  const size_t slot = static_cast<size_t>((id - keep_from_) % span_capacity_);
  if (slot >= spans_.size()) return nullptr;
  WrSpan* s = &spans_[slot];
  return s->id == id ? s : nullptr;
}

uint64_t SpanRecorder::BeginSpan(uint32_t machine, uint32_t thread,
                                 uint32_t slot, uint32_t src, uint32_t dst,
                                 double wire_bytes, bool pull,
                                 double posted_time) {
  if (!config_.enabled) return 0;
  const uint64_t id = next_id_++;
  ++spans_recorded_;
  // Id `id` overwrites the span exactly span_capacity_ ids older.
  if (id > span_capacity_) {
    ++spans_dropped_;
    WarnOnFirstDrop("work-request spans");
  }
  // Promised to be overwritten before the next snapshot: count, skip.
  if (id < keep_from_) return id;
  WrSpan span;
  span.id = id;
  span.machine = machine;
  span.thread = thread;
  span.slot = slot;
  span.src = src;
  span.dst = dst;
  span.wire_bytes = wire_bytes;
  span.pull = pull;
  span.stage[static_cast<int>(SpanStage::kPosted)] = posted_time;
  const size_t ring_slot =
      static_cast<size_t>((id - keep_from_) % span_capacity_);
  if (ring_slot < spans_.size()) {
    spans_[ring_slot] = span;
  } else {
    // Under a promise the ring's final size is known: allocate it once, at
    // the first span it keeps. Allocated at the promise, ahead of the
    // replay's own allocations, it raised a whole join's peak RSS by about
    // its own size.
    if (spans_.size() == spans_.capacity() && id <= promised_last_) {
      spans_.reserve(std::min<uint64_t>(
          span_capacity_, spans_.size() + (promised_last_ - id + 1)));
    }
    spans_.push_back(span);
  }
  return id;
}

void SpanRecorder::MarkStage(uint64_t id, SpanStage stage, double time) {
  if (WrSpan* span = Find(id)) {
    span->stage[static_cast<int>(stage)] = time;
    return;
  }
  // Late once the span's slot has been overwritten (or it never began). A
  // span skipped under a promise ignores updates until then, as the ring
  // would have kept them only to overwrite them.
  const bool held = id < next_id_ && next_id_ - id <= span_capacity_;
  if (config_.enabled && id != 0 && !held) ++late_stage_updates_;
}

void SpanRecorder::SetFlow(uint64_t id, uint64_t flow) {
  if (WrSpan* span = Find(id)) span->flow = flow;
}

void SpanRecorder::SetReceiverService(uint64_t id, double start, double end) {
  if (WrSpan* span = Find(id)) {
    span->recv_start = start;
    span->recv_end = end;
  }
}

void SpanRecorder::SetFaultInfo(uint64_t id, uint32_t retries,
                                double retry_delay_seconds) {
  if (WrSpan* span = Find(id)) {
    span->retries = retries;
    span->retry_delay_seconds = retry_delay_seconds;
  }
}

void SpanRecorder::AddThreadMark(const ThreadMark& mark) {
  if (!config_.enabled) return;
  threads_.push_back(mark);
}

void SpanRecorder::NoteMachines(uint32_t machines) {
  if (!config_.enabled) return;
  machines_ = std::max(machines_, machines);
}

void SpanRecorder::OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst,
                                 double t0, double t1, double rate,
                                 RateConstraint bound, uint32_t bound_host) {
  if (!config_.enabled) return;
  ++segments_recorded_;
  const FlowSegment seg{flow_id, src, dst, t0, t1, rate, bound, bound_host};
  if (segments_.size() < segment_capacity_) {
    segments_.push_back(seg);
    return;
  }
  ++segments_dropped_;
  WarnOnFirstDrop("flow segments");
  segments_[segment_next_] = seg;
  segment_next_ = (segment_next_ + 1) % segment_capacity_;
}

void SpanRecorder::OnWrPosted(uint32_t device, WorkCompletion::Op op) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  ++c.posted[OpIndex(op)];
}

void SpanRecorder::OnWrCompleted(uint32_t device, WorkCompletion::Op op,
                                 bool success) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  ++c.completed[OpIndex(op)];
  if (!success) ++c.failed_completions;
}

void SpanRecorder::OnCompletionPolled(uint32_t device, WorkCompletion::Op op) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  ++c.polled[OpIndex(op)];
}

void SpanRecorder::OnBufferCredit(uint32_t device, bool acquired) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  if (acquired) {
    ++c.buffers_acquired;
  } else {
    ++c.buffers_released;
  }
}

SpanDataset SpanRecorder::Snapshot() const {
  if (next_id_ <= promised_last_) {
    // The ring skipped spans on the promise that later ones would evict
    // them; without those ids the dataset would silently lack live spans.
    const uint64_t missing = promised_last_ - next_id_ + 1;
    std::fprintf(stderr,
                 "rdmajoin: span recorder snapshot before every promised "
                 "span began (%llu of them still to begin)\n",
                 static_cast<unsigned long long>(missing));
    std::abort();
  }
  SpanDataset ds;
  ds.spans.reserve(spans_.size());
  for (const WrSpan& s : spans_) {
    if (s.id != 0) ds.spans.push_back(s);
  }
  std::sort(ds.spans.begin(), ds.spans.end(),
            [](const WrSpan& a, const WrSpan& b) { return a.id < b.id; });
  // The fabric reports a segment at its flow's first update after it ends,
  // so the ring is only roughly in start order; the dataset orders them by
  // start. (t0, src, dst) is a total order: one link's segments never share
  // a start.
  ds.segments = segments_;
  std::sort(ds.segments.begin(), ds.segments.end(),
            [](const FlowSegment& a, const FlowSegment& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  ds.threads = threads_;
  std::sort(ds.threads.begin(), ds.threads.end(),
            [](const ThreadMark& a, const ThreadMark& b) {
              if (a.machine != b.machine) return a.machine < b.machine;
              return a.thread < b.thread;
            });
  ds.devices.reserve(devices_.size());
  for (const auto& [id, counts] : devices_) {
    (void)id;
    ds.devices.push_back(counts);
  }
  ds.machines = machines_;
  ds.spans_recorded = spans_recorded_;
  ds.spans_dropped = spans_dropped_;
  ds.segments_recorded = segments_recorded_;
  ds.segments_dropped = segments_dropped_;
  ds.late_stage_updates = late_stage_updates_;
  return ds;
}

std::string SpanDatasetToJson(const SpanDataset& dataset) {
  std::string out;
  out.reserve(256 + dataset.spans.size() * 160 + dataset.segments.size() * 80);
  JsonWriter w(&out);
  auto count = [&w](const char* key, uint64_t v) {
    w.Key(key).Number(static_cast<double>(v));
  };
  // Schema v2 (per-segment constraint labels) only when there is a label to
  // write: label-free datasets keep the exact v1 bytes.
  bool has_constraints = false;
  for (const FlowSegment& g : dataset.segments) {
    if (g.bound != RateConstraint::kNone) {
      has_constraints = true;
      break;
    }
  }
  w.BeginObject().Key("version").Uint(has_constraints ? 2 : 1);
  // Optional: hand-built datasets without a machine count keep their bytes.
  if (dataset.machines != 0) count("machines", dataset.machines);
  count("spans_recorded", dataset.spans_recorded);
  count("spans_dropped", dataset.spans_dropped);
  count("segments_recorded", dataset.segments_recorded);
  count("segments_dropped", dataset.segments_dropped);
  count("late_stage_updates", dataset.late_stage_updates);
  w.Key("spans").BeginArray();
  for (const WrSpan& s : dataset.spans) {
    w.Break(0).BeginObject();
    count("id", s.id);
    count("machine", s.machine);
    count("thread", s.thread);
    count("slot", s.slot);
    count("src", s.src);
    count("dst", s.dst);
    w.Key("wire_bytes").Number(s.wire_bytes);
    count("flow", s.flow);
    w.Key("pull").Bool(s.pull);
    for (int i = 0; i < kNumSpanStages; ++i) {
      w.Key(SpanStageName(static_cast<SpanStage>(i))).Number(s.stage[i]);
    }
    w.Key("recv_start").Number(s.recv_start);
    w.Key("recv_end").Number(s.recv_end);
    if (s.retries > 0 || s.retry_delay_seconds > 0) {
      // Optional fields: fault-free datasets stay byte-identical.
      count("retries", s.retries);
      w.Key("retry_delay_seconds").Number(s.retry_delay_seconds);
    }
    w.EndObject();
  }
  w.EndArray().Key("segments").BeginArray();
  for (const FlowSegment& g : dataset.segments) {
    w.Break(0).BeginObject();
    count("flow", g.flow);
    count("src", g.src);
    count("dst", g.dst);
    w.Key("t0").Number(g.t0);
    w.Key("t1").Number(g.t1);
    w.Key("rate").Number(g.rate);
    if (has_constraints) {
      w.Key("bound").String(RateConstraintName(g.bound));
      count("bound_host", g.bound_host);
    }
    w.EndObject();
  }
  w.EndArray().Key("threads").BeginArray();
  for (const ThreadMark& t : dataset.threads) {
    w.Break(0).BeginObject();
    count("machine", t.machine);
    count("thread", t.thread);
    w.Key("finish_seconds").Number(t.finish_seconds);
    w.Key("compute_seconds").Number(t.compute_seconds);
    w.Key("credit_stall_seconds").Number(t.credit_stall_seconds);
    w.Key("flow_stall_seconds").Number(t.flow_stall_seconds);
    if (t.fault_recovery_seconds != 0) {
      w.Key("fault_recovery_seconds").Number(t.fault_recovery_seconds);
    }
    w.EndObject();
  }
  w.EndArray().Key("devices").BeginArray();
  for (const ExecDeviceCounts& d : dataset.devices) {
    w.Break(0).BeginObject();
    count("device", d.device);
    WriteOpCounts(&w, "posted", d.posted);
    WriteOpCounts(&w, "completed", d.completed);
    count("failed_completions", d.failed_completions);
    WriteOpCounts(&w, "polled", d.polled);
    count("buffers_acquired", d.buffers_acquired);
    count("buffers_released", d.buffers_released);
    w.EndObject();
  }
  w.EndArray().EndObject();
  out += "\n";
  return out;
}

namespace {

Status InvalidSpanData(const std::string& where, const std::string& what) {
  return Status::InvalidArgument("span dataset: " + where + ": " + what);
}

/// Finite and >= 0; the location string is built only on error.
template <typename Where>
Status CheckTime(const Where& where, const std::string& field, double v) {
  if (std::isfinite(v) && v >= 0) return Status::OK();
  return InvalidSpanData(where(), field + " " + JsonNumber(v) +
                                      " must be finite and >= 0");
}

/// Like CheckTime, but kSpanUnset (a stage not reached) also passes.
template <typename Where>
Status CheckStageTime(const Where& where, const std::string& field, double v) {
  if (v == kSpanUnset) return Status::OK();
  return CheckTime(where, field, v);
}

template <typename Where>
Status CheckMachine(const Where& where, const char* field, uint32_t v,
                    uint32_t machines) {
  if (machines == 0 || v < machines) return Status::OK();
  return InvalidSpanData(where(), std::string(field) + " " + std::to_string(v) +
                                      " >= " + std::to_string(machines) +
                                      " machines");
}

template <typename Where>
Status CheckLink(const Where& where, uint32_t src, uint32_t dst,
                 uint32_t machines) {
  RDMAJOIN_RETURN_IF_ERROR(CheckMachine(where, "src", src, machines));
  RDMAJOIN_RETURN_IF_ERROR(CheckMachine(where, "dst", dst, machines));
  if (src != dst) return Status::OK();
  return InvalidSpanData(where(), "src == dst (" + std::to_string(src) + ")");
}

}  // namespace

Status ValidateSpanDataset(const SpanDataset& ds) {
  if (ds.spans_dropped > ds.spans_recorded) {
    return InvalidSpanData("counts", "spans_dropped " +
                                         std::to_string(ds.spans_dropped) +
                                         " > spans_recorded " +
                                         std::to_string(ds.spans_recorded));
  }
  if (ds.segments_dropped > ds.segments_recorded) {
    return InvalidSpanData("counts", "segments_dropped " +
                                         std::to_string(ds.segments_dropped) +
                                         " > segments_recorded " +
                                         std::to_string(ds.segments_recorded));
  }
  uint32_t machines = ds.machines;
  if (machines == 0) {
    for (const ThreadMark& t : ds.threads) {
      machines = std::max(machines, t.machine + 1);
    }
  }
  for (size_t i = 0; i < ds.threads.size(); ++i) {
    auto where = [&] { return "thread mark " + std::to_string(i); };
    RDMAJOIN_RETURN_IF_ERROR(
        CheckMachine(where, "machine", ds.threads[i].machine, machines));
  }
  for (size_t i = 0; i < ds.spans.size(); ++i) {
    const WrSpan& s = ds.spans[i];
    auto where = [&] {
      return "span " + std::to_string(i) + " (id " + std::to_string(s.id) + ")";
    };
    // A repeated id would also collide as a Chrome-trace flow id.
    if (i > 0 && s.id <= ds.spans[i - 1].id) {
      return InvalidSpanData(where(), "id " + std::to_string(s.id) +
                                          " does not ascend (previous id " +
                                          std::to_string(ds.spans[i - 1].id) +
                                          ")");
    }
    RDMAJOIN_RETURN_IF_ERROR(CheckMachine(where, "machine", s.machine, machines));
    RDMAJOIN_RETURN_IF_ERROR(CheckLink(where, s.src, s.dst, machines));
    RDMAJOIN_RETURN_IF_ERROR(CheckTime(where, "wire_bytes", s.wire_bytes));
    for (int k = 0; k < kNumSpanStages; ++k) {
      RDMAJOIN_RETURN_IF_ERROR(CheckStageTime(
          where, SpanStageName(static_cast<SpanStage>(k)), s.stage[k]));
    }
    RDMAJOIN_RETURN_IF_ERROR(CheckStageTime(where, "recv_start", s.recv_start));
    RDMAJOIN_RETURN_IF_ERROR(CheckStageTime(where, "recv_end", s.recv_end));
    RDMAJOIN_RETURN_IF_ERROR(
        CheckTime(where, "retry_delay_seconds", s.retry_delay_seconds));
  }
  for (size_t i = 0; i < ds.segments.size(); ++i) {
    const FlowSegment& g = ds.segments[i];
    auto where = [&] {
      return "segment " + std::to_string(i) + " (flow " + std::to_string(g.flow) +
             ")";
    };
    RDMAJOIN_RETURN_IF_ERROR(CheckLink(where, g.src, g.dst, machines));
    RDMAJOIN_RETURN_IF_ERROR(CheckTime(where, "t0", g.t0));
    RDMAJOIN_RETURN_IF_ERROR(CheckTime(where, "t1", g.t1));
    RDMAJOIN_RETURN_IF_ERROR(CheckTime(where, "rate", g.rate));
    if (!(g.t1 > g.t0)) {
      return InvalidSpanData(where(), "t1 " + JsonNumber(g.t1) + " <= t0 " +
                                          JsonNumber(g.t0));
    }
    if (g.bound != RateConstraint::kNone && g.bound_host != g.src &&
        g.bound_host != g.dst) {
      return InvalidSpanData(where(), "bound_host " + std::to_string(g.bound_host) +
                                          " is neither src " + std::to_string(g.src) +
                                          " nor dst " + std::to_string(g.dst));
    }
  }
  return Status::OK();
}

StatusOr<SpanDataset> SpanDatasetFromJson(const JsonValue& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("span JSON: document is not an object");
  }
  uint32_t version = 0;
  RDMAJOIN_RETURN_IF_ERROR(root.Get("version", &version));
  if (version != 1 && version != 2) {
    return Status::InvalidArgument("span JSON: unsupported version");
  }
  SpanDataset ds;
  RDMAJOIN_RETURN_IF_ERROR(root.Get(
      "machines", &ds.machines, "spans_recorded", &ds.spans_recorded,
      "spans_dropped", &ds.spans_dropped,
      "segments_recorded", &ds.segments_recorded, "segments_dropped",
      &ds.segments_dropped, "late_stage_updates", &ds.late_stage_updates));
  const JsonValue* spans = root.Find("spans");
  if (spans == nullptr || !spans->is_array()) {
    return Status::InvalidArgument("span JSON: missing \"spans\" array");
  }
  ds.spans.reserve(spans->array_items.size());
  for (const JsonValue& item : spans->array_items) {
    if (!item.is_object()) {
      return Status::InvalidArgument("span JSON: span entry is not an object");
    }
    WrSpan s;
    RDMAJOIN_RETURN_IF_ERROR(item.Get("id", &s.id));
    if (s.id == 0) return Status::InvalidArgument("span JSON: span without id");
    RDMAJOIN_RETURN_IF_ERROR(item.Get(
        "machine", &s.machine, "thread", &s.thread, "slot", &s.slot, "src",
        &s.src, "dst", &s.dst, "wire_bytes", &s.wire_bytes, "flow", &s.flow,
        "pull", &s.pull, "recv_start", &s.recv_start, "recv_end", &s.recv_end,
        "retries", &s.retries, "retry_delay_seconds", &s.retry_delay_seconds));
    for (int i = 0; i < kNumSpanStages; ++i) {
      RDMAJOIN_RETURN_IF_ERROR(
          item.Get(SpanStageName(static_cast<SpanStage>(i)), &s.stage[i]));
    }
    ds.spans.push_back(s);
  }
  if (const JsonValue* segments = root.Find("segments")) {
    if (!segments->is_array()) {
      return Status::InvalidArgument("span JSON: \"segments\" is not an array");
    }
    ds.segments.reserve(segments->array_items.size());
    for (const JsonValue& item : segments->array_items) {
      FlowSegment g;
      // v1 documents have no "bound": segments default to kNone. In v2
      // documents an unknown name is a schema violation, not a default.
      std::string bound_name = "none";
      RDMAJOIN_RETURN_IF_ERROR(item.Get(
          "flow", &g.flow, "src", &g.src, "dst", &g.dst, "t0", &g.t0, "t1",
          &g.t1, "rate", &g.rate, "bound", &bound_name, "bound_host",
          &g.bound_host));
      if (!ParseRateConstraintName(bound_name, &g.bound)) {
        return Status::InvalidArgument("span JSON: unknown segment bound \"" +
                                       bound_name + "\"");
      }
      ds.segments.push_back(g);
    }
  }
  if (const JsonValue* threads = root.Find("threads")) {
    if (!threads->is_array()) {
      return Status::InvalidArgument("span JSON: \"threads\" is not an array");
    }
    ds.threads.reserve(threads->array_items.size());
    for (const JsonValue& item : threads->array_items) {
      ThreadMark t;
      RDMAJOIN_RETURN_IF_ERROR(item.Get(
          "machine", &t.machine, "thread", &t.thread, "finish_seconds",
          &t.finish_seconds, "compute_seconds", &t.compute_seconds,
          "credit_stall_seconds", &t.credit_stall_seconds, "flow_stall_seconds",
          &t.flow_stall_seconds, "fault_recovery_seconds",
          &t.fault_recovery_seconds));
      ds.threads.push_back(t);
    }
  }
  if (const JsonValue* devices = root.Find("devices")) {
    if (!devices->is_array()) {
      return Status::InvalidArgument("span JSON: \"devices\" is not an array");
    }
    ds.devices.reserve(devices->array_items.size());
    for (const JsonValue& item : devices->array_items) {
      ExecDeviceCounts d;
      RDMAJOIN_RETURN_IF_ERROR(ReadOpCounts(item, "posted", &d.posted));
      RDMAJOIN_RETURN_IF_ERROR(ReadOpCounts(item, "completed", &d.completed));
      RDMAJOIN_RETURN_IF_ERROR(ReadOpCounts(item, "polled", &d.polled));
      RDMAJOIN_RETURN_IF_ERROR(item.Get(
          "device", &d.device, "failed_completions", &d.failed_completions,
          "buffers_acquired", &d.buffers_acquired, "buffers_released",
          &d.buffers_released));
      ds.devices.push_back(d);
    }
  }
  RDMAJOIN_RETURN_IF_ERROR(ValidateSpanDataset(ds));
  return ds;
}

StatusOr<SpanDataset> ParseSpanDatasetJson(const std::string& text) {
  auto parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  return SpanDatasetFromJson(*parsed);
}

Status WriteSpanDatasetFile(const std::string& path,
                            const SpanDataset& dataset) {
  return WriteStringToFile(path, SpanDatasetToJson(dataset));
}

StatusOr<SpanDataset> ReadSpanDatasetFile(const std::string& path) {
  RDMAJOIN_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return ParseSpanDatasetJson(text);
}

}  // namespace rdmajoin
