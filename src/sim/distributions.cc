#include "sim/distributions.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace rpcvalet::sim {

// ---------------------------------------------------------------- Fixed

FixedDist::FixedDist(double value_ns) : value_(value_ns)
{
    RV_ASSERT(value_ns >= 0.0, "fixed value must be non-negative");
}

double
FixedDist::sample(Rng &rng) const
{
    (void)rng;
    return value_;
}

std::string
FixedDist::name() const
{
    return strfmt("fixed(%.1f)", value_);
}

DistributionPtr
FixedDist::clone() const
{
    return std::make_unique<FixedDist>(*this);
}

// -------------------------------------------------------------- Uniform

UniformDist::UniformDist(double lo_ns, double hi_ns) : lo_(lo_ns), hi_(hi_ns)
{
    RV_ASSERT(lo_ns >= 0.0 && hi_ns >= lo_ns, "bad uniform bounds");
}

double
UniformDist::sample(Rng &rng) const
{
    return rng.uniformRange(lo_, hi_);
}

std::string
UniformDist::name() const
{
    return strfmt("uniform(%.1f,%.1f)", lo_, hi_);
}

DistributionPtr
UniformDist::clone() const
{
    return std::make_unique<UniformDist>(*this);
}

// ---------------------------------------------------------- Exponential

ExponentialDist::ExponentialDist(double mean_ns) : mean_(mean_ns)
{
    RV_ASSERT(mean_ns > 0.0, "exponential mean must be positive");
}

double
ExponentialDist::sample(Rng &rng) const
{
    return rng.exponential(mean_);
}

std::string
ExponentialDist::name() const
{
    return strfmt("exponential(%.1f)", mean_);
}

DistributionPtr
ExponentialDist::clone() const
{
    return std::make_unique<ExponentialDist>(*this);
}

// ------------------------------------------------------------------ GEV

GevDist::GevDist(double location, double scale, double shape)
    : location_(location), scale_(scale), shape_(shape)
{
    RV_ASSERT(scale > 0.0, "GEV scale must be positive");
    RV_ASSERT(shape < 1.0, "GEV shape must be < 1 for a finite mean");
}

double
GevDist::sample(Rng &rng) const
{
    const double u = rng.uniformPositive();
    if (std::abs(shape_) < 1e-12) {
        // Gumbel limit.
        return location_ - scale_ * std::log(-std::log(u));
    }
    const double t = std::pow(-std::log(u), -shape_);
    double x = location_ + scale_ * (t - 1.0) / shape_;
    // Negative-shape GEVs have bounded support; still guard the whole
    // family against pathological negative service times.
    return std::max(x, 0.0);
}

double
GevDist::mean() const
{
    if (std::abs(shape_) < 1e-12) {
        constexpr double euler_gamma = 0.5772156649015329;
        return location_ + scale_ * euler_gamma;
    }
    const double g1 = std::tgamma(1.0 - shape_);
    return location_ + scale_ * (g1 - 1.0) / shape_;
}

std::string
GevDist::name() const
{
    return strfmt("gev(%.1f,%.1f,%.2f)", location_, scale_, shape_);
}

DistributionPtr
GevDist::clone() const
{
    return std::make_unique<GevDist>(*this);
}

// ------------------------------------------------------------ LogNormal

LogNormalDist::LogNormalDist(double mu, double sigma)
    : mu_(mu), sigma_(sigma)
{
    RV_ASSERT(sigma >= 0.0, "log-normal sigma must be non-negative");
}

LogNormalDist
LogNormalDist::fromMeanSigma(double mean_ns, double sigma)
{
    RV_ASSERT(mean_ns > 0.0, "log-normal mean must be positive");
    // mean = exp(mu + sigma^2 / 2)  =>  mu = ln(mean) - sigma^2 / 2.
    const double mu = std::log(mean_ns) - 0.5 * sigma * sigma;
    return LogNormalDist(mu, sigma);
}

double
LogNormalDist::sample(Rng &rng) const
{
    return std::exp(rng.normal(mu_, sigma_));
}

double
LogNormalDist::mean() const
{
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

std::string
LogNormalDist::name() const
{
    return strfmt("lognormal(mu=%.3f,sigma=%.3f)", mu_, sigma_);
}

DistributionPtr
LogNormalDist::clone() const
{
    return std::make_unique<LogNormalDist>(*this);
}

// -------------------------------------------------------------- Shifted

ShiftedDist::ShiftedDist(double offset_ns, DistributionPtr inner)
    : offset_(offset_ns), inner_(std::move(inner))
{
    RV_ASSERT(inner_ != nullptr, "shifted inner distribution missing");
}

double
ShiftedDist::sample(Rng &rng) const
{
    return offset_ + inner_->sample(rng);
}

std::string
ShiftedDist::name() const
{
    return strfmt("%.1f+%s", offset_, inner_->name().c_str());
}

DistributionPtr
ShiftedDist::clone() const
{
    return std::make_unique<ShiftedDist>(offset_, inner_->clone());
}

// -------------------------------------------------------------- Clamped

ClampedDist::ClampedDist(double lo_ns, double hi_ns, DistributionPtr inner,
                         double estimated_mean)
    : lo_(lo_ns), hi_(hi_ns), inner_(std::move(inner)),
      estimatedMean_(estimated_mean)
{
    RV_ASSERT(inner_ != nullptr, "clamped inner distribution missing");
    RV_ASSERT(lo_ns <= hi_ns, "clamp bounds inverted");
}

ClampedDist::ClampedDist(double lo_ns, double hi_ns, DistributionPtr inner)
    : ClampedDist(lo_ns, hi_ns, std::move(inner), 0.0)
{
    // Deterministic numeric estimate of the clamped mean.
    Rng rng(0xC1A3u);
    constexpr int estimate_samples = 200000;
    double sum = 0.0;
    for (int i = 0; i < estimate_samples; ++i)
        sum += std::clamp(inner_->sample(rng), lo_, hi_);
    estimatedMean_ = sum / estimate_samples;
}

double
ClampedDist::sample(Rng &rng) const
{
    return std::clamp(inner_->sample(rng), lo_, hi_);
}

std::string
ClampedDist::name() const
{
    return strfmt("clamp[%.1f,%.1f](%s)", lo_, hi_, inner_->name().c_str());
}

DistributionPtr
ClampedDist::clone() const
{
    return std::make_unique<ClampedDist>(lo_, hi_, inner_->clone(),
                                         estimatedMean_);
}

// ------------------------------------------------------ §5 synthetics

std::string
syntheticKindName(SyntheticKind kind)
{
    switch (kind) {
      case SyntheticKind::Fixed: return "fixed";
      case SyntheticKind::Uniform: return "uniform";
      case SyntheticKind::Exponential: return "exponential";
      case SyntheticKind::Gev: return "gev";
    }
    panic("unknown SyntheticKind");
}

DistributionPtr
makeSynthetic(SyntheticKind kind)
{
    // §5: 300 ns base latency + extra 300 ns on average from the family.
    constexpr double base_ns = 300.0;
    constexpr double extra_mean_ns = 300.0;
    switch (kind) {
      case SyntheticKind::Fixed:
        return std::make_unique<ShiftedDist>(
            base_ns, std::make_unique<FixedDist>(extra_mean_ns));
      case SyntheticKind::Uniform:
        return std::make_unique<ShiftedDist>(
            base_ns,
            std::make_unique<UniformDist>(0.0, 2.0 * extra_mean_ns));
      case SyntheticKind::Exponential:
        return std::make_unique<ShiftedDist>(
            base_ns, std::make_unique<ExponentialDist>(extra_mean_ns));
      case SyntheticKind::Gev: {
        // GEV(363, 100, 0.65) in 2 GHz cycles; ns = cycles / 2. The
        // whole synthetic profile (base + extra) is the GEV shifted by
        // the base; its mean is ~600 cycles = 300 ns.
        auto gev_cycles = std::make_unique<GevDist>(363.0 / 2.0,
                                                    100.0 / 2.0, 0.65);
        return std::make_unique<ShiftedDist>(base_ns, std::move(gev_cycles));
      }
    }
    panic("unknown SyntheticKind");
}

std::vector<SyntheticKind>
allSyntheticKinds()
{
    return {SyntheticKind::Fixed, SyntheticKind::Uniform,
            SyntheticKind::Exponential, SyntheticKind::Gev};
}

} // namespace rpcvalet::sim
