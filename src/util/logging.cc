#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

namespace rdmajoin {

namespace {
// The level is read by every RDMAJOIN_LOG on any thread; the environment is
// read once, unless SetLevel came first (then it is never read).
std::atomic<LogLevel> g_level{LogLevel::kOff};
std::once_flag g_env_once;
// Guards the sink: installs and writes are serialised, so lines from
// different threads never interleave.
std::mutex g_sink_mutex;
Logger::Sink& GlobalSink() {
  static Logger::Sink* sink = new Logger::Sink();
  return *sink;
}

void ReadEnvironmentLevel() {
  const char* env = std::getenv("RDMAJOIN_LOG_LEVEL");
  if (env == nullptr) return;
  if (std::strcmp(env, "debug") == 0) {
    g_level = LogLevel::kDebug;
  } else if (std::strcmp(env, "info") == 0) {
    g_level = LogLevel::kInfo;
  } else if (std::strcmp(env, "warning") == 0) {
    g_level = LogLevel::kWarning;
  } else if (std::strcmp(env, "error") == 0) {
    g_level = LogLevel::kError;
  }
}
}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARNING";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

void Logger::InitFromEnvironment() { std::call_once(g_env_once, ReadEnvironmentLevel); }

LogLevel Logger::level() {
  InitFromEnvironment();
  return g_level.load(std::memory_order_relaxed);
}

void Logger::SetLevel(LogLevel level) {
  // An explicit setting overrides the environment: spend the one-time read
  // without reading it.
  std::call_once(g_env_once, [] {});
  g_level.store(level, std::memory_order_relaxed);
}

void Logger::SetSink(Sink sink) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  GlobalSink() = std::move(sink);
}

void Logger::Write(LogLevel level, const std::string& message) {
  if (level < Logger::level()) return;
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (GlobalSink()) {
    GlobalSink()(level, message);
    return;
  }
  std::fprintf(stderr, "[rdmajoin %s] %s\n", LogLevelName(level), message.c_str());
}

}  // namespace rdmajoin
