#include "app/service_profiles.hh"

namespace rpcvalet::app {

namespace {

/** A clamped log-normal; its constructor estimates the clamped mean. */
sim::DistributionPtr
clampedLogNormal(double mean_ns, double sigma, double lo_ns, double hi_ns)
{
    return std::make_unique<sim::ClampedDist>(
        lo_ns, hi_ns,
        std::make_unique<sim::LogNormalDist>(
            sim::LogNormalDist::fromMeanSigma(mean_ns, sigma)));
}

} // namespace

// Each clamped profile is built once per process (function-local
// statics initialise thread-safely) and handed out as clones, which
// inherit the prototype's estimated mean instead of drawing it again.

sim::DistributionPtr
makeHerdProfile()
{
    static const sim::DistributionPtr proto =
        clampedLogNormal(330.0, 0.45, 80.0, 1000.0);
    return proto->clone();
}

sim::DistributionPtr
makeMasstreeGetProfile()
{
    static const sim::DistributionPtr proto =
        clampedLogNormal(1250.0, 0.55, 200.0, 8000.0);
    return proto->clone();
}

sim::DistributionPtr
makeMasstreeScanProfile()
{
    return std::make_unique<sim::UniformDist>(60000.0, 120000.0);
}

} // namespace rpcvalet::app
