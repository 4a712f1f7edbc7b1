/**
 * @file
 * Built-in arrival processes, self-registered with the ArrivalRegistry.
 *
 * "poisson" reproduces the paper's open-loop generator (§5) and is the
 * default; the rest open the workload axis the evaluation never
 * explores — burstiness, heavy-tailed gaps, time-varying load, and
 * recorded traces:
 *
 *  - deterministic  back-to-back fixed gaps (CV = 0): the easiest
 *                   possible arrival sequence for any dispatcher.
 *  - lognormal:cv=  log-normal gaps with a chosen coefficient of
 *                   variation; cv > 1 means burstier than Poisson.
 *  - mmpp2:...      2-state Markov-modulated Poisson process: a base
 *                   state and a burst state whose rate is `ratio`
 *                   times higher; exponential dwells, with `burst`
 *                   the long-run fraction of time spent bursting and
 *                   `dwell` the mean burst sojourn. The long-run
 *                   average rate always matches the configured rate.
 *  - ramp:...       inhomogeneous Poisson whose rate multiplier moves
 *                   linearly from `from` to `to` over `over` (then
 *                   holds): open-loop load that drifts mid-run.
 *  - trace:file=    replays recorded interarrival gaps (ns, one per
 *                   line; '#' comments) cyclically. By default the
 *                   gaps are rescaled so the trace's mean rate matches
 *                   the configured rate (the trace supplies the shape,
 *                   the experiment the load); raw=1 replays verbatim.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "net/arrival.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"

namespace rpcvalet::net {

namespace {

/** §5's fixed-rate Poisson generator: exponential i.i.d. gaps. */
class PoissonArrival : public ArrivalProcess
{
  public:
    explicit PoissonArrival(double rate_per_sec)
        : meanGapNs_(1e9 / rate_per_sec)
    {}

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        (void)now;
        return rng.exponential(meanGapNs_);
    }

    std::string name() const override { return "poisson"; }

  private:
    double meanGapNs_;
};

const ArrivalRegistrar poissonReg(
    "poisson", [](const ArrivalSpec &spec, double rate) {
        spec.expectKeys({});
        return std::make_unique<PoissonArrival>(rate);
    });

/** Perfectly paced arrivals: constant gap of 1/rate. */
class DeterministicArrival : public ArrivalProcess
{
  public:
    explicit DeterministicArrival(double rate_per_sec)
        : gapNs_(1e9 / rate_per_sec)
    {}

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        (void)rng;
        (void)now;
        return gapNs_;
    }

    std::string name() const override { return "deterministic"; }

  private:
    double gapNs_;
};

const ArrivalRegistrar deterministicReg(
    "deterministic", [](const ArrivalSpec &spec, double rate) {
        spec.expectKeys({});
        return std::make_unique<DeterministicArrival>(rate);
    });

/**
 * Log-normal gaps with arithmetic mean 1/rate and coefficient of
 * variation cv: sigma^2 = ln(1 + cv^2), mu = ln(mean) - sigma^2 / 2.
 */
class LogNormalArrival : public ArrivalProcess
{
  public:
    LogNormalArrival(double rate_per_sec, double cv) : cv_(cv)
    {
        const double mean_gap_ns = 1e9 / rate_per_sec;
        const double sigma2 = std::log(1.0 + cv * cv);
        sigma_ = std::sqrt(sigma2);
        mu_ = std::log(mean_gap_ns) - 0.5 * sigma2;
    }

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        (void)now;
        return std::exp(rng.normal(mu_, sigma_));
    }

    std::string
    name() const override
    {
        return sim::strfmt("lognormal:cv=%g", cv_);
    }

  private:
    double cv_;
    double mu_ = 0.0;
    double sigma_ = 0.0;
};

const ArrivalRegistrar lognormalReg(
    "lognormal", [](const ArrivalSpec &spec, double rate) {
        spec.expectKeys({"cv"});
        const double cv = spec.doubleParam("cv", 2.0);
        if (cv <= 0.0) {
            sim::fatal("arrival '" + spec.toString() +
                       "': lognormal needs cv > 0");
        }
        return std::make_unique<LogNormalArrival>(rate, cv);
    });

/**
 * 2-state Markov-modulated Poisson process. State dwells are
 * exponential; within a state arrivals are Poisson at that state's
 * rate, so the memoryless residual lets a gap that straddles a state
 * boundary be resampled exactly from the boundary onward.
 */
class Mmpp2Arrival : public ArrivalProcess
{
  public:
    Mmpp2Arrival(double rate_per_sec, double burst_frac, double ratio,
                 double burst_dwell_ns)
        : burstFrac_(burst_frac), ratio_(ratio),
          burstDwellNs_(burst_dwell_ns),
          baseDwellNs_(burst_dwell_ns * (1.0 - burst_frac) / burst_frac)
    {
        // Split the target average rate so that
        //   burst * rate_burst + (1 - burst) * rate_base == rate.
        const double base_rate =
            rate_per_sec / (1.0 - burst_frac + burst_frac * ratio);
        baseGapNs_ = 1e9 / base_rate;
        burstGapNs_ = baseGapNs_ / ratio;
    }

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        double t = sim::toNs(now);
        if (!started_) {
            started_ = true;
            stateEndNs_ = t + rng.exponential(dwellNs());
        }
        // Tick rounding can land the arrival a fraction of a ps past
        // the recorded boundary; fold any elapsed dwells first.
        while (stateEndNs_ <= t) {
            inBurst_ = !inBurst_;
            stateEndNs_ += rng.exponential(dwellNs());
        }
        double gap = 0.0;
        for (;;) {
            const double cand = rng.exponential(gapNs());
            if (t + cand <= stateEndNs_)
                return gap + cand;
            gap += stateEndNs_ - t;
            t = stateEndNs_;
            inBurst_ = !inBurst_;
            stateEndNs_ = t + rng.exponential(dwellNs());
        }
    }

    std::string
    name() const override
    {
        return sim::strfmt("mmpp2:burst=%g,dwell=%gus,ratio=%g",
                           burstFrac_, burstDwellNs_ / 1e3, ratio_);
    }

  private:
    double dwellNs() const { return inBurst_ ? burstDwellNs_ : baseDwellNs_; }
    double gapNs() const { return inBurst_ ? burstGapNs_ : baseGapNs_; }

    double burstFrac_;
    double ratio_;
    double burstDwellNs_;
    double baseDwellNs_;
    double baseGapNs_ = 0.0;
    double burstGapNs_ = 0.0;
    bool inBurst_ = false;
    bool started_ = false;
    double stateEndNs_ = 0.0;
};

const ArrivalRegistrar mmpp2Reg(
    "mmpp2", [](const ArrivalSpec &spec, double rate) {
        spec.expectKeys({"burst", "dwell", "ratio"});
        const double burst = spec.doubleParam("burst", 0.1);
        const double ratio = spec.doubleParam("ratio", 10.0);
        const double dwell_ns =
            sim::toNs(spec.tickParam("dwell", sim::microseconds(10.0)));
        if (burst <= 0.0 || burst >= 1.0) {
            sim::fatal("arrival '" + spec.toString() +
                       "': mmpp2 needs burst in (0, 1)");
        }
        if (ratio < 1.0) {
            sim::fatal("arrival '" + spec.toString() +
                       "': mmpp2 needs ratio >= 1");
        }
        if (dwell_ns <= 0.0) {
            sim::fatal("arrival '" + spec.toString() +
                       "': mmpp2 needs dwell > 0");
        }
        return std::make_unique<Mmpp2Arrival>(rate, burst, ratio,
                                              dwell_ns);
    });

/**
 * Linearly ramping load: the instantaneous rate is the configured rate
 * times a multiplier moving from `from` to `to` over `over`, holding
 * at `to` afterwards. Gaps are sampled from the instantaneous rate (a
 * first-order inhomogeneous-Poisson approximation, accurate while the
 * rate changes slowly relative to one gap).
 */
class RampArrival : public ArrivalProcess
{
  public:
    RampArrival(double rate_per_sec, double from, double to,
                double over_ns)
        : ratePerNs_(rate_per_sec / 1e9), from_(from), to_(to),
          overNs_(over_ns)
    {}

    void onStart(sim::Tick now) override { startNs_ = sim::toNs(now); }

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        const double t = sim::toNs(now) - startNs_;
        const double frac = std::min(1.0, t / overNs_);
        const double mult = from_ + (to_ - from_) * frac;
        return rng.exponential(1.0 / (ratePerNs_ * mult));
    }

    std::string
    name() const override
    {
        return sim::strfmt("ramp:from=%g,over=%gus,to=%g", from_,
                           overNs_ / 1e3, to_);
    }

  private:
    double ratePerNs_;
    double from_;
    double to_;
    double overNs_;
    double startNs_ = 0.0;
};

const ArrivalRegistrar rampReg(
    "ramp", [](const ArrivalSpec &spec, double rate) {
        spec.expectKeys({"from", "to", "over"});
        const double from = spec.doubleParam("from", 0.5);
        const double to = spec.doubleParam("to", 1.5);
        const double over_ns =
            sim::toNs(spec.tickParam("over", sim::microseconds(1000.0)));
        if (from <= 0.0 || to <= 0.0) {
            sim::fatal("arrival '" + spec.toString() +
                       "': ramp needs from > 0 and to > 0");
        }
        if (over_ns <= 0.0) {
            sim::fatal("arrival '" + spec.toString() +
                       "': ramp needs over > 0");
        }
        return std::make_unique<RampArrival>(rate, from, to, over_ns);
    });

/** Cyclic replay of recorded interarrival gaps. */
class TraceArrival : public ArrivalProcess
{
  public:
    TraceArrival(std::vector<double> gaps_ns, double scale,
                 std::string file)
        : gapsNs_(std::move(gaps_ns)), scale_(scale),
          file_(std::move(file))
    {}

    void onStart(sim::Tick now) override
    {
        (void)now;
        cursor_ = 0; // every run replays from the top
    }

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        (void)rng;
        (void)now;
        const double gap = gapsNs_[cursor_] * scale_;
        cursor_ = (cursor_ + 1) % gapsNs_.size();
        return gap;
    }

    std::string
    name() const override
    {
        return "trace:file=" + file_;
    }

  private:
    std::vector<double> gapsNs_;
    double scale_;
    std::string file_;
    std::size_t cursor_ = 0;
};

const ArrivalRegistrar traceReg(
    "trace", [](const ArrivalSpec &spec, double rate) {
        spec.expectKeys({"file", "raw"});
        if (!spec.has("file")) {
            sim::fatal("arrival '" + spec.toString() +
                       "': trace needs file=PATH");
        }
        const std::string path = spec.params.at("file");
        std::ifstream in(path);
        if (!in) {
            sim::fatal("arrival '" + spec.toString() +
                       "': cannot open trace file '" + path + "'");
        }
        std::vector<double> gaps;
        double sum = 0.0;
        std::string line;
        for (std::size_t number = 1; std::getline(in, line); ++number) {
            const std::size_t start = line.find_first_not_of(" \t\r");
            if (start == std::string::npos || line[start] == '#')
                continue;
            const std::size_t end = line.find_last_not_of(" \t\r");
            const std::string text = line.substr(start, end - start + 1);
            const sim::ErrorContext ctx(sim::strfmt(
                "arrival '%s': bad interarrival line %s:%zu",
                spec.toString().c_str(), path.c_str(), number));
            const double gap = sim::parseReal(text);
            if (gap < 0.0)
                sim::fatal("'" + text + "' is negative");
            gaps.push_back(gap);
            sum += gap;
        }
        if (gaps.empty()) {
            sim::fatal("arrival '" + spec.toString() +
                       "': trace file '" + path +
                       "' has no interarrival samples");
        }
        if (!(sum > 0.0)) {
            sim::fatal("arrival '" + spec.toString() +
                       "': trace mean interarrival must be positive");
        }
        // Default: the trace supplies the burstiness shape and the
        // experiment the load — rescale the mean gap to 1/rate.
        // raw=1 replays the recorded timestamps verbatim.
        const bool raw = spec.boolParam("raw", false);
        const double mean_gap = sum / static_cast<double>(gaps.size());
        const double scale = raw ? 1.0 : (1e9 / rate) / mean_gap;
        return std::make_unique<TraceArrival>(std::move(gaps), scale,
                                              path);
    });

} // namespace

// Forces this archive member (and thus the registrars above) into any
// binary that touches the ArrivalRegistry; see sim/registry.hh.
void ArrivalAxis::linkBuiltins() {}

} // namespace rpcvalet::net
