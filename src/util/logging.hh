/**
 * @file
 * Logging and error-reporting primitives, modeled after gem5's
 * base/logging.hh conventions: panic() for internal invariant
 * violations, fatal() for user/configuration errors, and a leveled,
 * thread-safe structured logger for status messages that never stop
 * the simulation. Every log line carries a severity and a subsystem
 * tag ("warn: [sched] ..."); the global threshold is runtime-settable
 * (CLI --log-level, or the MESA_LOG_LEVEL environment variable) and
 * a disabled level costs one relaxed atomic load per call site.
 */

#ifndef MESA_UTIL_LOGGING_HH
#define MESA_UTIL_LOGGING_HH

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mesa
{

/** Exception thrown by panic(): a simulator bug (broken invariant). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Exception thrown by fatal(): a user error (bad configuration). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

inline void
formatTo(std::ostringstream &os)
{
    (void)os;
}

template <typename T, typename... Args>
void
formatTo(std::ostringstream &os, const T &first, const Args &...rest)
{
    os << first;
    formatTo(os, rest...);
}

template <typename... Args>
std::string
formatMessage(const Args &...args)
{
    std::ostringstream os;
    formatTo(os, args...);
    return os.str();
}

} // namespace detail

/**
 * Report an internal error that should never happen regardless of user
 * input. Throws PanicError so tests can assert on broken invariants.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError("panic: " + detail::formatMessage(args...));
}

/**
 * Report an unrecoverable error caused by the user (bad configuration,
 * invalid arguments). Throws FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError("fatal: " + detail::formatMessage(args...));
}

/** Log severities, most severe first. */
enum class LogLevel
{
    Error = 0, ///< Unexpected but survivable condition.
    Warn = 1,  ///< Functionality might not behave as expected.
    Info = 2,  ///< Normal status messages.
    Debug = 3, ///< Verbose diagnostics (controller decisions, mapper).
};

inline const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error: return "error";
      case LogLevel::Warn: return "warn";
      case LogLevel::Info: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "?";
}

inline std::optional<LogLevel>
logLevelByName(const std::string &name)
{
    if (name == "error")
        return LogLevel::Error;
    if (name == "warn" || name == "warning")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

/**
 * The global structured logger. Each line is "<level>: [<subsystem>]
 * <message>", written under a mutex so concurrent shards never tear
 * lines. The level check is lock-free; only lines that pass it pay
 * for formatting and the lock.
 */
class Logger
{
  public:
    static Logger &
    global()
    {
        static Logger logger;
        return logger;
    }

    bool
    enabled(LogLevel level) const
    {
        return int(level) <= level_.load(std::memory_order_relaxed);
    }

    void
    setLevel(LogLevel level)
    {
        level_.store(int(level), std::memory_order_relaxed);
    }

    LogLevel
    level() const
    {
        return LogLevel(level_.load(std::memory_order_relaxed));
    }

    /** Redirect output (tests capture it here); nullptr -> stderr. */
    void
    setStream(std::ostream *os)
    {
        std::lock_guard<std::mutex> lock(m_);
        stream_ = os ? os : &std::cerr;
    }

    void
    write(LogLevel level, std::string_view subsystem,
          const std::string &message)
    {
        // Compose first so one << keeps the line atomic per stream
        // guarantee under the lock.
        std::string line = std::string(logLevelName(level)) + ": [";
        line += subsystem;
        line += "] " + message + "\n";
        std::lock_guard<std::mutex> lock(m_);
        *stream_ << line;
    }

  private:
    Logger()
    {
        if (const char *env = std::getenv("MESA_LOG_LEVEL")) {
            if (auto level = logLevelByName(env))
                level_.store(int(*level), std::memory_order_relaxed);
        }
    }

    std::atomic<int> level_{int(LogLevel::Info)};
    std::mutex m_;
    std::ostream *stream_ = &std::cerr;
};

/** Log at an explicit level with a subsystem tag. */
template <typename... Args>
void
logAt(LogLevel level, std::string_view subsystem, const Args &...args)
{
    Logger &logger = Logger::global();
    if (!logger.enabled(level))
        return;
    logger.write(level, subsystem, detail::formatMessage(args...));
}

template <typename... Args>
void
logError(std::string_view subsystem, const Args &...args)
{
    logAt(LogLevel::Error, subsystem, args...);
}

template <typename... Args>
void
logWarn(std::string_view subsystem, const Args &...args)
{
    logAt(LogLevel::Warn, subsystem, args...);
}

template <typename... Args>
void
logInfo(std::string_view subsystem, const Args &...args)
{
    logAt(LogLevel::Info, subsystem, args...);
}

template <typename... Args>
void
logDebug(std::string_view subsystem, const Args &...args)
{
    logAt(LogLevel::Debug, subsystem, args...);
}

/** Warn about functionality that might not behave as expected. */
template <typename... Args>
void
warn(const Args &...args)
{
    logAt(LogLevel::Warn, "mesa", args...);
}

/** Print a normal informational status message. */
template <typename... Args>
void
inform(const Args &...args)
{
    logAt(LogLevel::Info, "mesa", args...);
}

/** Panic if the condition does not hold. */
#define MESA_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::mesa::panic("assertion '", #cond, "' failed at ", __FILE__,   \
                          ":", __LINE__, " ", ##__VA_ARGS__);               \
        }                                                                   \
    } while (0)

} // namespace mesa

#endif // MESA_UTIL_LOGGING_HH
