#include "util/error.hpp"

namespace declust {
namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << file << ":" << line << ": " << msg;
    throw InternalError(os.str());
}

[[noreturn]] void
fatalImpl(const std::string &msg)
{
    // The user's mistake alone: a source location means nothing to them.
    throw ConfigError(msg);
}

} // namespace detail
} // namespace declust
