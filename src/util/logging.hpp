#ifndef DISTMCU_UTIL_LOGGING_HPP
#define DISTMCU_UTIL_LOGGING_HPP

#include <sstream>
#include <string>

namespace distmcu::util {

enum class LogLevel { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Minimal thread-unsafe logger. The control plane (scheduling, the
/// event engine, accounting) is single-threaded and owns all ordering,
/// so a global level and a stderr sink are sufficient. The only other
/// threads are util::parallel_for's pool workers running per-chip
/// kernel work, and pool tasks never log. Verbosity defaults to `warn`
/// so tests and benches stay quiet unless explicitly raised.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  void write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::warn;
};

namespace detail {
inline void append_all(std::ostringstream&) {}
template <typename T, typename... Rest>
void append_all(std::ostringstream& os, const T& first, const Rest&... rest) {
  os << first;
  append_all(os, rest...);
}
}  // namespace detail

template <typename... Args>
void log(LogLevel level, const Args&... args) {
  if (level < Logger::instance().level()) return;
  std::ostringstream os;
  detail::append_all(os, args...);
  Logger::instance().write(level, os.str());
}

template <typename... Args>
void log_debug(const Args&... args) { log(LogLevel::debug, args...); }
template <typename... Args>
void log_info(const Args&... args) { log(LogLevel::info, args...); }
template <typename... Args>
void log_warn(const Args&... args) { log(LogLevel::warn, args...); }
template <typename... Args>
void log_error(const Args&... args) { log(LogLevel::error, args...); }

}  // namespace distmcu::util

#endif  // DISTMCU_UTIL_LOGGING_HPP
