/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * - panic():  an internal invariant was violated (a bug in this library);
 *             aborts so a debugger or core dump can capture state.
 * - fatal():  the simulation cannot continue because of a user error
 *             (bad configuration, invalid arguments); exits with code 1.
 * - warn():   something is suspicious but the run can continue.
 * - inform(): plain status output.
 */

#ifndef QLA_COMMON_LOGGING_H
#define QLA_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace qla {

/** Terminate with a bug report; never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);

/** Terminate with a user-error report; never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &message);

/** Print a warning to stderr. */
void warnImpl(const char *file, int line, const std::string &message);

/** Print a status message to stderr. */
void informImpl(const std::string &message);

/** Append printf-style formatted text to @p out (result-text output). */
void appendf(std::string &out, const char *format, ...)
    __attribute__((format(printf, 2, 3)));

namespace detail {

/** Fold a variadic argument pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail
} // namespace qla

#define qla_panic(...) \
    ::qla::panicImpl(__FILE__, __LINE__, ::qla::detail::concat(__VA_ARGS__))

#define qla_fatal(...) \
    ::qla::fatalImpl(__FILE__, __LINE__, ::qla::detail::concat(__VA_ARGS__))

#define qla_warn(...) \
    ::qla::warnImpl(__FILE__, __LINE__, ::qla::detail::concat(__VA_ARGS__))

#define qla_inform(...) \
    ::qla::informImpl(::qla::detail::concat(__VA_ARGS__))

/** Internal-invariant check that survives NDEBUG builds. */
#define qla_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::qla::panicImpl(__FILE__, __LINE__,                            \
                ::qla::detail::concat("assertion failed: " #cond " ",      \
                                      ##__VA_ARGS__));                      \
        }                                                                   \
    } while (0)

#endif // QLA_COMMON_LOGGING_H
