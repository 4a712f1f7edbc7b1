/**
 * @file
 * Pluggable open-loop arrival processes.
 *
 * The paper's evaluation drives the node with fixed-rate Poisson
 * arrivals (§5), but the single-queue dispatch claim is stressed
 * hardest by bursty and time-varying µs-scale traffic. This subsystem
 * makes the interarrival process a first-class, string-selectable
 * component, one of the six spec axes built on sim/registry.hh:
 *
 *  - ArrivalSpec      "name:key=value,..." (sim::TypedSpec with arrival
 *                     diagnostics), e.g. "mmpp2:burst=0.1,ratio=10"
 *  - ArrivalProcess   samples the next interarrival gap; lifecycle
 *                     hooks observe start/halt
 *  - ArrivalRegistry  process-wide name -> factory table; processes
 *                     self-register via ArrivalRegistrar, including
 *                     from outside src/ (see
 *                     examples/custom_arrival_playground.cc). Factories
 *                     also take the target rate, which make() checks
 *                     is positive before calling one
 *  - ArrivalDriver    schedules one handler call per arrival drawn
 *                     from any process; the one arrival source of the
 *                     traffic generator and the queueing models
 *
 * Built-ins (src/net/arrivals.cc): "poisson" (default), "deterministic",
 * "lognormal:cv=", "mmpp2:burst=,ratio=,dwell=", "ramp:from=,to=,
 * over=", and "trace:file=,raw=".
 */

#ifndef RPCVALET_NET_ARRIVAL_HH
#define RPCVALET_NET_ARRIVAL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/domain.hh"
#include "sim/registry.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace rpcvalet::net {

/**
 * Interface for an open-loop interarrival-time process. Instances are
 * stateful (MMPP phase, ramp anchor, trace cursor) and owned by one
 * ArrivalDriver; they draw all randomness from the driver's Rng so
 * arrival sequences stay bit-reproducible and isolated from other
 * components' streams.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /**
     * Sample the gap (ns) from the arrival at absolute time @p now to
     * the next one. Called once per arrival, plus once at start() for
     * the first arrival.
     */
    virtual double nextInterarrivalNs(sim::Rng &rng, sim::Tick now) = 0;

    /** Lifecycle hook: the driver is about to generate arrivals. */
    virtual void onStart(sim::Tick now) { (void)now; }

    /** Lifecycle hook: the driver stopped generating arrivals. */
    virtual void onHalt(sim::Tick now) { (void)now; }

    /** Canonical spec string of this instance (for reports). */
    virtual std::string name() const = 0;
};

using ArrivalProcessPtr = std::unique_ptr<ArrivalProcess>;

/** The arrival-process axis (see sim/registry.hh). */
struct ArrivalAxis
{
    static constexpr const char *label = "arrival";
    /** The paper's fixed-rate Poisson generator. */
    static constexpr const char *defaultName = "poisson";
    static constexpr const char *noun = "arrival process";
    static constexpr const char *plural = "arrival processes";
    /**
     * Builds a process from its (validated) spec, shaped to a target
     * long-run average rate in arrivals per second. Processes may
     * reinterpret the target: "ramp" scales it by a time-varying
     * multiplier (holding at `to` past the ramp) and "trace:raw=1"
     * ignores it entirely (see arrivals.cc).
     */
    using Factory = std::function<ArrivalProcessPtr(
        const sim::TypedSpec<ArrivalAxis> &, double rate_per_sec)>;
    /** make() hook: a non-positive target rate is fatal. */
    static void checkArgs(const sim::Spec &spec, double rate_per_sec);
    /** Defined in arrivals.cc, beside the built-in registrars. */
    static void linkBuiltins();
};

using ArrivalSpec = sim::TypedSpec<ArrivalAxis>;
using ArrivalRegistry = sim::Registry<ArrivalAxis>;
using ArrivalRegistrar = sim::Registrar<ArrivalAxis>;

/**
 * Drives a handler with arrivals drawn from an ArrivalProcess. The
 * driver owns one reusable member event, so steady-state arrival
 * generation never allocates.
 */
class ArrivalDriver
{
  public:
    using Handler = std::function<void()>;

    /**
     * @param sim      Owning event domain (must outlive the driver).
     * @param process  The interarrival process (takes ownership).
     * @param rng_seed Seed for the private interarrival Rng.
     * @param handler  Invoked once per arrival.
     */
    ArrivalDriver(sim::EventDomain &sim, ArrivalProcessPtr process,
                  std::uint64_t rng_seed, Handler handler);

    /** Fire the start hook and schedule the first arrival. */
    void start();

    /** Cease generating arrivals (already-queued events still fire). */
    void halt();

    /** Arrivals generated so far. */
    std::uint64_t arrivals() const { return arrivals_; }

    /** The driven process (e.g. for its name()). */
    const ArrivalProcess &process() const { return *process_; }

  private:
    void fire();
    void scheduleNext();

    sim::EventDomain &sim_;
    ArrivalProcessPtr process_;
    sim::Rng rng_;
    Handler handler_;
    bool halted_ = false;
    std::uint64_t arrivals_ = 0;
    sim::MemberEvent<ArrivalDriver, &ArrivalDriver::fire> event_;
};

} // namespace rpcvalet::net

#endif // RPCVALET_NET_ARRIVAL_HH
