#include "common/logging.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace qla {

void
panicImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", message.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", message.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", message.c_str(), file, line);
}

void
informImpl(const std::string &message)
{
    std::fprintf(stderr, "info: %s\n", message.c_str());
}

void
appendf(std::string &out, const char *format, ...)
{
    va_list args;
    va_start(args, format);
    va_list sizing;
    va_copy(sizing, args);
    const int n = std::vsnprintf(nullptr, 0, format, sizing);
    va_end(sizing);
    if (n > 0) {
        const std::size_t at = out.size();
        out.resize(at + n + 1);
        std::vsnprintf(&out[at], n + 1, format, args);
        out.resize(at + n);
    }
    va_end(args);
}

} // namespace qla
