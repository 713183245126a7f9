/**
 * @file
 * Error-handling primitives for the declust library.
 *
 * Following the simulator convention (cf. gem5's logging.hh):
 *  - panic():  an internal invariant was violated; this is a library bug.
 *  - fatal():  the caller supplied an impossible configuration; this is a
 *              user error, reported without a core dump and with only
 *              the message (panics also carry `panic: file:line:`).
 */
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace declust {

/** Exception raised for user/configuration errors (fatal()). */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Exception raised for internal invariant violations (panic()). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what)
        : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);

/** Varargs-to-string helper used by the panic/fatal macros. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace declust

/** Abort with a message: internal invariant violated (library bug). */
#define DECLUST_PANIC(...)                                                  \
    ::declust::detail::panicImpl(__FILE__, __LINE__,                        \
                                 ::declust::detail::concat(__VA_ARGS__))

/** Abort with a message: impossible user configuration. */
#define DECLUST_FATAL(...)                                                  \
    ::declust::detail::fatalImpl(::declust::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; always on (simulation correctness). */
#define DECLUST_ASSERT(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            DECLUST_PANIC("assertion failed: " #cond " ", __VA_ARGS__);     \
        }                                                                   \
    } while (0)

/**
 * Assert on hot paths: active in debug builds, compiled out (condition
 * unevaluated) under NDEBUG so per-access mapping and event dispatch pay
 * nothing in release.
 */
#ifdef NDEBUG
#define DECLUST_DEBUG_ASSERT(cond, ...)                                     \
    do {                                                                    \
        (void)sizeof(cond);                                                 \
    } while (0)
#else
#define DECLUST_DEBUG_ASSERT(cond, ...) DECLUST_ASSERT(cond, __VA_ARGS__)
#endif
