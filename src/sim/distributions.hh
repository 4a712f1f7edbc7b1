/**
 * @file
 * Service-time distributions.
 *
 * All distributions sample in nanoseconds. The set covers the four
 * families the paper evaluates (fixed, uniform, exponential, GEV; §2.2
 * and §5) plus the building blocks used to model the HERD and Masstree
 * RPC processing-time profiles of Fig. 6 (log-normal, offset,
 * clamping).
 */

#ifndef RPCVALET_SIM_DISTRIBUTIONS_HH
#define RPCVALET_SIM_DISTRIBUTIONS_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"

namespace rpcvalet::sim {

/** Interface for a positive-valued random distribution (unit: ns). */
class Distribution
{
  public:
    virtual ~Distribution() = default;

    /** Draw one sample using the caller's generator. */
    virtual double sample(Rng &rng) const = 0;

    /** Analytical (or calibrated) mean of the distribution. */
    virtual double mean() const = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

    /** Deep copy (distributions are immutable after construction). */
    virtual std::unique_ptr<Distribution> clone() const = 0;
};

using DistributionPtr = std::unique_ptr<Distribution>;

/** Degenerate distribution: always returns the same value. */
class FixedDist : public Distribution
{
  public:
    explicit FixedDist(double value_ns);
    double sample(Rng &rng) const override;
    double mean() const override { return value_; }
    std::string name() const override;
    DistributionPtr clone() const override;

  private:
    double value_;
};

/** Continuous uniform on [lo, hi). */
class UniformDist : public Distribution
{
  public:
    UniformDist(double lo_ns, double hi_ns);
    double sample(Rng &rng) const override;
    double mean() const override { return 0.5 * (lo_ + hi_); }
    std::string name() const override;
    DistributionPtr clone() const override;

  private:
    double lo_;
    double hi_;
};

/** Exponential with the given mean. */
class ExponentialDist : public Distribution
{
  public:
    explicit ExponentialDist(double mean_ns);
    double sample(Rng &rng) const override;
    double mean() const override { return mean_; }
    std::string name() const override;
    DistributionPtr clone() const override;

  private:
    double mean_;
};

/**
 * Generalized extreme value distribution GEV(location, scale, shape),
 * sampled by inverse-CDF. The paper uses GEV(363, 100, 0.65) in cycles
 * at 2 GHz, which has a mean of ~600 cycles = 300 ns (§5).
 */
class GevDist : public Distribution
{
  public:
    GevDist(double location, double scale, double shape);
    double sample(Rng &rng) const override;
    double mean() const override;
    std::string name() const override;
    DistributionPtr clone() const override;

    double location() const { return location_; }
    double scale() const { return scale_; }
    double shape() const { return shape_; }

  private:
    double location_;
    double scale_;
    double shape_;
};

/** Log-normal specified directly by (mu, sigma) of the underlying normal. */
class LogNormalDist : public Distribution
{
  public:
    LogNormalDist(double mu, double sigma);

    /** Build a log-normal with the requested arithmetic mean (ns). */
    static LogNormalDist fromMeanSigma(double mean_ns, double sigma);

    double sample(Rng &rng) const override;
    double mean() const override;
    std::string name() const override;
    DistributionPtr clone() const override;

  private:
    double mu_;
    double sigma_;
};

/** Adds a constant offset to an inner distribution's samples. */
class ShiftedDist : public Distribution
{
  public:
    ShiftedDist(double offset_ns, DistributionPtr inner);
    double sample(Rng &rng) const override;
    double mean() const override { return offset_ + inner_->mean(); }
    std::string name() const override;
    DistributionPtr clone() const override;

  private:
    double offset_;
    DistributionPtr inner_;
};

/**
 * Clamps an inner distribution's samples into [lo, hi]. The reported
 * mean is estimated numerically (200,000 draws from a fixed seed),
 * since the analytical truncated mean is not available in general.
 * The estimate runs once per prototype, the distribution built from
 * its bounds (the app service profiles keep one per process); clone()
 * hands it on, so a clone reports the same mean bit for bit without
 * drawing again.
 */
class ClampedDist : public Distribution
{
  public:
    ClampedDist(double lo_ns, double hi_ns, DistributionPtr inner);
    /** As above, with the mean already estimated for these bounds and
     *  this inner distribution. */
    ClampedDist(double lo_ns, double hi_ns, DistributionPtr inner,
                double estimated_mean);
    double sample(Rng &rng) const override;
    double mean() const override { return estimatedMean_; }
    std::string name() const override;
    DistributionPtr clone() const override;

  private:
    double lo_;
    double hi_;
    DistributionPtr inner_;
    double estimatedMean_;
};

/**
 * The four synthetic RPC processing-time profiles of §5: a 300 ns base
 * latency plus an extra component with a 300 ns mean drawn from the
 * named family. GEV uses (363, 100, 0.65) in 2 GHz cycles, i.e. halved
 * when expressed in nanoseconds.
 */
enum class SyntheticKind { Fixed, Uniform, Exponential, Gev };

/** Name of a synthetic profile ("fixed", "uniform", ...). */
std::string syntheticKindName(SyntheticKind kind);

/** Build one of the §5 synthetic processing-time distributions. */
DistributionPtr makeSynthetic(SyntheticKind kind);

/** All four synthetic kinds, in the paper's variance order. */
std::vector<SyntheticKind> allSyntheticKinds();

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_DISTRIBUTIONS_HH
