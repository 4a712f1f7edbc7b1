#include "sim/spec.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace rpcvalet::sim {

Spec
Spec::parse(const std::string &text, const std::string &what)
{
    Spec spec;
    spec.what = what;
    const std::size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (spec.name.empty())
        fatal(what + " spec '" + text + "' has an empty name");
    if (colon == std::string::npos)
        return spec;

    const std::string param_text = text.substr(colon + 1);
    // getline never yields the empty segment after a trailing ':' or
    // ','; reject those here so "greedy:" and "pow2:d=3," die loudly
    // like every other malformed spec.
    if (param_text.empty() || param_text.back() == ',') {
        fatal(what + " spec '" + text +
              "': parameter '' is not of the form key=value");
    }
    std::stringstream rest(param_text);
    std::string pair;
    while (std::getline(rest, pair, ',')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
            fatal(what + " spec '" + text + "': parameter '" + pair +
                  "' is not of the form key=value");
        }
        const std::string key = pair.substr(0, eq);
        if (spec.params.count(key) > 0) {
            fatal(what + " spec '" + text + "': duplicate key '" + key +
                  "'");
        }
        spec.params.emplace(key, pair.substr(eq + 1));
    }
    return spec;
}

std::string
Spec::toString() const
{
    std::string out = name;
    char sep = ':';
    for (const auto &[key, value] : params) {
        out += sep;
        out += key;
        out += '=';
        out += value;
        sep = ',';
    }
    return out;
}

bool
Spec::has(const std::string &key) const
{
    return params.count(key) > 0;
}

namespace {

/**
 * The one floating-point read: the number at the start of @p text. With
 * @p rest null the number must be the whole text; otherwise @p rest
 * receives what follows it (a duration's unit).
 */
double
readNumber(const std::string &text, std::string *rest = nullptr)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || errno != 0 ||
        (rest == nullptr && *end != '\0'))
        fatal("'" + text + "' is not a number");
    if (rest != nullptr)
        *rest = end;
    return value;
}

/** @p fallback when @p key is absent, else parse(value) inside a
 *  frame naming the spec and the parameter. */
template <typename T, typename Parse>
T
param(const Spec &spec, const std::string &key, T fallback, Parse parse)
{
    const auto it = spec.params.find(key);
    if (it == spec.params.end())
        return fallback;
    const ErrorContext ctx(spec.what + " '" + spec.toString() +
                           "': parameter '" + key + "=" + it->second +
                           "'");
    return parse(it->second);
}

} // namespace

std::uint64_t
parseUint(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos) {
        (void)readNumber(text); // "not a number" unless it is one
        fatal("'" + text + "' is not a non-negative integer");
    }
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || value < lo || value > hi) {
        fatal(strfmt("'%s' is out of range [%llu, %llu]", text.c_str(),
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi)));
    }
    return value;
}

double
parseReal(const std::string &text)
{
    const double value = readNumber(text);
    if (!std::isfinite(value))
        fatal("'" + text + "' is not a finite number");
    return value;
}

Tick
parseDuration(const std::string &text)
{
    std::string unit;
    const double value = readNumber(text, &unit);
    unit.erase(0, unit.find_first_not_of(" \t"));
    double ns = 0.0;
    if (unit.empty() || unit == "ns")
        ns = value;
    else if (unit == "us")
        ns = value * 1e3;
    else if (unit == "ms")
        ns = value * 1e6;
    else {
        fatal("duration '" + text + "' has unknown unit '" + unit +
              "' (use ns, us, or ms)");
    }
    // Range-check before sim::nanoseconds casts to Tick: a non-finite
    // or unrepresentable double is undefined behavior. 2^63 ps is
    // ~107 days of simulated time, far beyond any run.
    if (!std::isfinite(ns) || ns < 0.0 ||
        ns * static_cast<double>(ticksPerNs) >= 0x1p63)
        fatal("duration '" + text + "' is out of range");
    return nanoseconds(ns);
}

bool
parseBool(const std::string &text)
{
    if (text == "true" || text == "yes" || text == "on" || text == "1")
        return true;
    if (text == "false" || text == "no" || text == "off" || text == "0")
        return false;
    fatal("'" + text + "' is not a boolean (true/false)");
}

std::uint64_t
Spec::uintParam(const std::string &key, std::uint64_t fallback,
                std::uint64_t lo, std::uint64_t hi) const
{
    return param(*this, key, fallback, [&](const std::string &value) {
        return parseUint(value, lo, hi);
    });
}

double
Spec::doubleParam(const std::string &key, double fallback) const
{
    return param(*this, key, fallback,
                 [](const std::string &value) { return readNumber(value); });
}

Tick
Spec::tickParam(const std::string &key, Tick fallback) const
{
    return param(*this, key, fallback, parseDuration);
}

bool
Spec::boolParam(const std::string &key, bool fallback) const
{
    return param(*this, key, fallback, parseBool);
}

void
Spec::expectKeys(std::initializer_list<const char *> allowed) const
{
    for (const auto &[key, value] : params) {
        (void)value;
        bool known = false;
        for (const char *candidate : allowed)
            known = known || key == candidate;
        if (!known) {
            std::string list;
            for (const char *candidate : allowed) {
                if (!list.empty())
                    list += ", ";
                list += candidate;
            }
            fatal(what + " '" + toString() + "': unknown parameter '" +
                  key + "' (accepted: " +
                  (list.empty() ? "none" : list) + ")");
        }
    }
}

bool
Spec::operator==(const Spec &other) const
{
    return name == other.name && params == other.params;
}

bool
Spec::operator!=(const Spec &other) const
{
    return !(*this == other);
}

} // namespace rpcvalet::sim
