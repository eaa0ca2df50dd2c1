#ifndef RDMAJOIN_UTIL_LOGGING_H_
#define RDMAJOIN_UTIL_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace rdmajoin {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Minimal leveled logger. Off by default (benches and tests stay quiet);
/// enable with SetLogLevel or the RDMAJOIN_LOG_LEVEL environment variable
/// (debug|info|warning|error). Messages go to stderr unless a sink is
/// installed. Safe to use from several threads: the level is atomic, the
/// environment is read once, and sink installs and writes are serialised
/// (a sink is never called concurrently with itself).
///
///   RDMAJOIN_LOG(kInfo) << "network pass done in " << seconds << " s";
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// Global minimum level; messages below it are discarded.
  static LogLevel level();
  static void SetLevel(LogLevel level);
  /// Redirects output (tests); nullptr restores stderr.
  static void SetSink(Sink sink);
  /// Reads RDMAJOIN_LOG_LEVEL once; called lazily on first use. A SetLevel
  /// before the first use overrides the environment.
  static void InitFromEnvironment();

  static void Write(LogLevel level, const std::string& message);
};

/// Stream-style log statement; the expression after the macro is only
/// evaluated when the level is enabled.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Write(level_, stream_.str()); }
  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

#define RDMAJOIN_LOG(severity)                                      \
  if (::rdmajoin::LogLevel::severity < ::rdmajoin::Logger::level()) \
    ;                                                               \
  else                                                              \
    ::rdmajoin::LogMessage(::rdmajoin::LogLevel::severity).stream()

/// Name for a level ("INFO").
const char* LogLevelName(LogLevel level);

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_LOGGING_H_
