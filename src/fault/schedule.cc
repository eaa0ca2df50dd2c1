#include "fault/schedule.h"

#include <cmath>

#include "util/file.h"
#include "util/json.h"

namespace rdmajoin {

namespace {

/// SplitMix64: the schedule generator's own small PRNG so chaos schedules
/// are reproducible without dragging in <random> distribution differences.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double UnitUniform(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

bool WindowedKind(FaultKind kind) {
  return kind == FaultKind::kLinkDegrade || kind == FaultKind::kLinkFlap ||
         kind == FaultKind::kStraggler || kind == FaultKind::kCreditShrink;
}

}  // namespace

std::string FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kLinkFlap:
      return "link-flap";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kQpError:
      return "qp-error";
    case FaultKind::kCreditShrink:
      return "credit-shrink";
  }
  return "unknown";
}

StatusOr<FaultKind> FaultKindFromName(const std::string& name) {
  if (name == "link-degrade") return FaultKind::kLinkDegrade;
  if (name == "link-flap") return FaultKind::kLinkFlap;
  if (name == "straggler") return FaultKind::kStraggler;
  if (name == "qp-error") return FaultKind::kQpError;
  if (name == "credit-shrink") return FaultKind::kCreditShrink;
  return Status::InvalidArgument("unknown fault kind: " + name);
}

Status FaultSchedule::Validate(uint32_t num_machines) const {
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string where = "fault event " + std::to_string(i) + " (" +
                              FaultKindName(e.kind) + "): ";
    if (num_machines > 0 && e.machine != FaultEvent::kAllMachines &&
        e.machine >= num_machines) {
      return Status::InvalidArgument(where + "machine index out of range");
    }
    if (WindowedKind(e.kind)) {
      if (!std::isfinite(e.start_seconds) || e.start_seconds < 0) {
        return Status::InvalidArgument(where + "start must be finite and >= 0");
      }
      if (!std::isfinite(e.duration_seconds) || e.duration_seconds <= 0) {
        return Status::InvalidArgument(where +
                                       "duration must be finite and positive");
      }
    }
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kStraggler:
      case FaultKind::kCreditShrink:
        // A zero scale would deadlock the replay (kLinkFlap is the sanctioned
        // zero-capacity fault, and its window is finite by the check above).
        if (!(e.factor > 0) || e.factor > 1) {
          return Status::InvalidArgument(where + "factor must be in (0, 1]");
        }
        break;
      case FaultKind::kLinkFlap:
        break;  // factor is ignored (treated as 0).
      case FaultKind::kQpError:
        if (e.count == 0) {
          return Status::InvalidArgument(where + "count must be positive");
        }
        break;
    }
  }
  return Status::OK();
}

std::string FaultScheduleToJson(const FaultSchedule& schedule) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("version").Uint(1).Key("events").BeginArray();
  for (const FaultEvent& e : schedule.events) {
    w.BeginObject().Key("kind").String(FaultKindName(e.kind));
    if (WindowedKind(e.kind)) {
      w.Key("start_seconds").Number(e.start_seconds);
      w.Key("duration_seconds").Number(e.duration_seconds);
    }
    if (e.machine != FaultEvent::kAllMachines) w.Key("machine").Uint(e.machine);
    if (e.kind == FaultKind::kLinkDegrade || e.kind == FaultKind::kStraggler ||
        e.kind == FaultKind::kCreditShrink) {
      w.Key("factor").Number(e.factor);
    }
    if (e.kind == FaultKind::kQpError) {
      w.Key("ordinal").Uint(e.ordinal).Key("count").Uint(e.count);
      if (e.drop) w.Key("drop").Bool(true);
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

StatusOr<FaultSchedule> FaultScheduleFromJson(const std::string& text) {
  RDMAJOIN_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("fault schedule must be a JSON object");
  }
  uint32_t version = 1;
  RDMAJOIN_RETURN_IF_ERROR(doc.Get("version", &version));
  if (version != 1) {
    return Status::InvalidArgument("unsupported fault schedule version");
  }
  const JsonValue* events = doc.Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("fault schedule needs an \"events\" array");
  }
  FaultSchedule schedule;
  for (const JsonValue& ev : events->array_items) {
    if (!ev.is_object()) {
      return Status::InvalidArgument("fault event must be a JSON object");
    }
    FaultEvent e;
    RDMAJOIN_ASSIGN_OR_RETURN(e.kind, FaultKindFromName(ev.StringOr("kind", "")));
    RDMAJOIN_RETURN_IF_ERROR(ev.Get(
        "start_seconds", &e.start_seconds, "duration_seconds",
        &e.duration_seconds, "machine", &e.machine, "factor", &e.factor,
        "ordinal", &e.ordinal, "count", &e.count, "drop", &e.drop));
    schedule.events.push_back(e);
  }
  RDMAJOIN_RETURN_IF_ERROR(schedule.Validate());
  return schedule;
}

std::vector<std::string> FaultPresetNames() {
  return {"none",     "link-degrade", "link-flap", "straggler",
          "qp-error", "qp-drop",      "credit-shrink", "chaos"};
}

StatusOr<FaultSchedule> MakeFaultPreset(const std::string& name, uint64_t seed,
                                        uint32_t num_machines) {
  const uint32_t target = num_machines > 1 ? 1 : 0;
  FaultSchedule s;
  if (name == "none") return s;
  if (name == "link-degrade") {
    FaultEvent e;
    e.kind = FaultKind::kLinkDegrade;
    e.machine = target;
    e.start_seconds = 0;
    e.duration_seconds = 10.0;
    e.factor = 0.4;
    s.events.push_back(e);
    return s;
  }
  if (name == "link-flap") {
    FaultEvent e;
    e.kind = FaultKind::kLinkFlap;
    e.machine = target;
    e.start_seconds = 5e-6;
    e.duration_seconds = 2e-5;
    s.events.push_back(e);
    return s;
  }
  if (name == "straggler") {
    FaultEvent e;
    e.kind = FaultKind::kStraggler;
    e.machine = target;
    e.start_seconds = 0;
    e.duration_seconds = 10.0;
    e.factor = 0.5;
    s.events.push_back(e);
    return s;
  }
  if (name == "qp-error" || name == "qp-drop") {
    FaultEvent e;
    e.kind = FaultKind::kQpError;
    e.machine = target;
    e.ordinal = 2;
    e.count = 1;
    e.drop = name == "qp-drop";
    s.events.push_back(e);
    return s;
  }
  if (name == "credit-shrink") {
    FaultEvent e;
    e.kind = FaultKind::kCreditShrink;
    e.machine = FaultEvent::kAllMachines;
    e.start_seconds = 0;
    e.duration_seconds = 10.0;
    e.factor = 0.5;
    s.events.push_back(e);
    return s;
  }
  if (name == "chaos") return MakeChaosSchedule(seed, num_machines);
  return Status::InvalidArgument("unknown fault preset: " + name);
}

FaultSchedule MakeChaosSchedule(uint64_t seed, uint32_t num_machines) {
  // Mix the machine count into the stream so different cluster sizes under
  // the same seed still get distinct but reproducible schedules.
  uint64_t state = seed * 0x2545f4914f6cdd1dULL + num_machines;
  const uint32_t nm = num_machines > 0 ? num_machines : 1;
  auto pick_machine = [&]() -> uint32_t {
    return static_cast<uint32_t>(SplitMix64(&state) % nm);
  };
  FaultSchedule s;
  const int extra = static_cast<int>(SplitMix64(&state) % 3);  // 4..6 events
  const int total = 4 + extra;
  for (int i = 0; i < total; ++i) {
    FaultEvent e;
    switch (SplitMix64(&state) % 5) {
      case 0:
        e.kind = FaultKind::kLinkDegrade;
        e.machine = pick_machine();
        e.start_seconds = UnitUniform(&state) * 4e-5;
        e.duration_seconds = 1e-5 + UnitUniform(&state) * 9e-5;
        e.factor = 0.2 + UnitUniform(&state) * 0.7;
        break;
      case 1:
        e.kind = FaultKind::kLinkFlap;
        e.machine = pick_machine();
        e.start_seconds = UnitUniform(&state) * 4e-5;
        e.duration_seconds = 2e-6 + UnitUniform(&state) * 2e-5;
        break;
      case 2:
        e.kind = FaultKind::kStraggler;
        e.machine = pick_machine();
        e.start_seconds = UnitUniform(&state) * 2e-5;
        e.duration_seconds = 2e-5 + UnitUniform(&state) * 1e-4;
        e.factor = 0.25 + UnitUniform(&state) * 0.65;
        break;
      case 3:
        e.kind = FaultKind::kQpError;
        e.machine = pick_machine();
        e.ordinal = SplitMix64(&state) % 8;
        e.count = 1 + static_cast<uint32_t>(SplitMix64(&state) % 2);
        e.drop = (SplitMix64(&state) & 1) != 0;
        break;
      default:
        e.kind = FaultKind::kCreditShrink;
        e.machine = pick_machine();
        e.start_seconds = UnitUniform(&state) * 2e-5;
        e.duration_seconds = 2e-5 + UnitUniform(&state) * 1e-4;
        e.factor = 0.34 + UnitUniform(&state) * 0.66;
        break;
    }
    s.events.push_back(e);
  }
  return s;
}

StatusOr<FaultSchedule> LoadFaultSchedule(const std::string& spec, uint64_t seed,
                                          uint32_t num_machines) {
  StatusOr<FaultSchedule> preset = MakeFaultPreset(spec, seed, num_machines);
  if (preset.ok()) return preset;
  StatusOr<std::string> text = ReadFileToString(spec);
  if (!text.ok()) {
    return Status::NotFound("fault schedule \"" + spec +
                            "\" is neither a preset nor a readable file");
  }
  return FaultScheduleFromJson(*text);
}

}  // namespace rdmajoin
