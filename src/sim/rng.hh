/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator uses xoshiro256** (Blackman & Vigna) seeded through
 * splitmix64. Every stochastic component owns its own Rng, derived from
 * the experiment seed plus a component-specific stream id, so results
 * are bit-reproducible regardless of event interleaving and independent
 * of the C++ standard library's distribution implementations.
 */

#ifndef RPCVALET_SIM_RNG_HH
#define RPCVALET_SIM_RNG_HH

#include <cstdint>
#include <limits>

namespace rpcvalet::sim {

/** splitmix64 finalizer: a full-avalanche 64-bit hash. Rng seeding,
 *  key hashing (store probing, routing, RSS steering) and derived
 *  keys all use this one function. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** xoshiro256** pseudo-random generator with convenience samplers. */
class Rng
{
  public:
    /**
     * Construct from a seed and an optional stream id. Distinct stream
     * ids yield statistically independent sequences for the same seed.
     */
    explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in (0, 1) — never returns exactly 0 (for logs). */
    double uniformPositive();

    /** Uniform double in [lo, hi). */
    double uniformRange(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Exponential variate with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller, cached spare). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double sigma);

    /** UniformRandomBitGenerator interface (for std interop). */
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }
    result_type operator()() { return next(); }

  private:
    std::uint64_t s_[4];
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_RNG_HH
