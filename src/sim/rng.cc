#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace rpcvalet::sim {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // Mix the stream id in so (seed, 0) and (seed, 1) diverge fully.
    std::uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
    // splitmix64 stepping: hash the state, then advance it.
    for (auto &word : s_) {
        word = mix64(x);
        x += 0x9e3779b97f4a7c15ULL;
    }
    // All-zero state is invalid for xoshiro; splitmix64 makes this
    // astronomically unlikely, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x2545f4914f6cdd1dULL;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 top bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniformPositive()
{
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return u;
}

double
Rng::uniformRange(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    RV_ASSERT(lo <= hi, "uniformInt bounds inverted");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0)
        return next(); // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit && limit != 0);
    return lo + v % span;
}

double
Rng::exponential(double mean)
{
    RV_ASSERT(mean > 0.0, "exponential mean must be positive");
    return -mean * std::log(uniformPositive());
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    const double u1 = uniformPositive();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    hasSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double sigma)
{
    return mean + sigma * normal();
}

} // namespace rpcvalet::sim
