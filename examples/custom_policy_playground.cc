/**
 * @file
 * Example: extending the dispatch layer from *outside* src/ni.
 *
 * Defines a new stateful dispatch policy ("sticky:p=0.9" — prefer the
 * last core used with probability p, spill to the least-loaded core
 * otherwise), registers it with the ni::PolicyRegistry at static-init
 * time, and then drives every registered policy — built-ins and the
 * new one alike — purely by spec string through the public experiment
 * API. No file under src/ was touched to add the policy.
 *
 *   $ ./example_custom_policy_playground
 */

#include <cstdio>
#include <memory>
#include <string>

#include "core/experiment.hh"
#include "sim/logging.hh"

namespace {

using namespace rpcvalet;

/**
 * Sticky dispatch: reuse the previous core while it has credits (cache
 * affinity), with probability 1-p falling back to least-loaded to keep
 * the tail in check. Exercises the full event API: select() consults
 * private state, onDispatch() updates it.
 */
class StickyPolicy : public ni::DispatchPolicy
{
  public:
    explicit StickyPolicy(double p) : p_(p) {}

    void
    onDispatch(proto::CoreId core, const ni::DispatchContext &ctx) override
    {
        (void)ctx;
        last_ = core;
    }

    std::optional<proto::CoreId>
    select(const ni::DispatchContext &ctx) override
    {
        if (last_.has_value() && ctx.outstanding[*last_] < ctx.threshold &&
            ctx.rng.uniform() < p_)
            return last_;
        std::optional<proto::CoreId> best;
        std::uint32_t best_load = ctx.threshold;
        for (const proto::CoreId core : ctx.candidates) {
            if (ctx.outstanding[core] < best_load) {
                best = core;
                best_load = ctx.outstanding[core];
            }
        }
        return best;
    }

    std::string
    name() const override
    {
        return sim::strfmt("sticky:p=%g", p_);
    }

  private:
    double p_;
    std::optional<proto::CoreId> last_;
};

// Static-init registration: this is all it takes to make
// "sticky:p=0.9" usable from SystemParams, benches, and tests.
const ni::PolicyRegistrar stickyRegistrar(
    "sticky", [](const ni::PolicySpec &spec) {
        spec.expectKeys({"p"});
        return std::make_unique<StickyPolicy>(
            spec.doubleParam("p", 0.9));
    });

double
p99AtLoad(const node::SystemParams &sys, double utilization)
{
    // Declarative run: the GEV echo workload is a registry spec.
    const app::WorkloadSpec workload("synthetic:dist=gev");
    const double capacity = core::estimateCapacityRps(sys, workload);
    core::ExperimentConfig cfg;
    cfg.system = sys;
    cfg.workload = workload;
    cfg.arrivalRps = utilization * capacity;
    cfg.warmupRpcs = 2000;
    cfg.measuredRpcs = 25000;
    return core::runExperiment(cfg).point.p99Ns;
}

} // namespace

int
main()
{
    using namespace rpcvalet;

    std::printf("Dispatch design-space playground (GEV service, 80%% "
                "load)\n\n");

    std::printf("--- every registered policy (note 'sticky': registered "
                "by this example) ---\n");
    for (const std::string &name :
         ni::PolicyRegistry::instance().names()) {
        node::SystemParams sys;
        sys.policy = name;
        std::printf("  %-14s p99 = %7.2f us\n", name.c_str(),
                    p99AtLoad(sys, 0.8) / 1e3);
    }

    std::printf("\n--- parameterized specs of the same policies ---\n");
    for (const char *spec :
         {"pow2:d=4", "jbsq:d=1", "stale-jsq:staleness=0ns",
          "stale-jsq:staleness=500ns", "sticky:p=0.5", "sticky:p=0.99"}) {
        node::SystemParams sys;
        sys.policy = spec;
        std::printf("  %-26s p99 = %7.2f us\n", spec,
                    p99AtLoad(sys, 0.8) / 1e3);
    }

    std::printf("\n--- outstanding threshold (greedy) ---\n");
    for (const std::uint32_t threshold : {1u, 2u, 3u, 8u}) {
        node::SystemParams sys;
        sys.outstandingPerCore = threshold;
        std::printf("  threshold %-4u p99 = %7.2f us\n", threshold,
                    p99AtLoad(sys, 0.8) / 1e3);
    }

    std::printf("\n--- chip geometry (scaling the paper's design) ---\n");
    // One backend per mesh row, as on the paper's chip (§4.1).
    struct Geometry
    {
        int rows;
        int cols;
    };
    for (const auto &g : {Geometry{4, 4}, Geometry{4, 8}, Geometry{8, 8}}) {
        node::SystemParams sys;
        sys.meshRows = g.rows;
        sys.meshCols = g.cols;
        std::printf("  %2u cores (%dx%d mesh, %u backends) "
                    "p99 = %7.2f us\n",
                    sys.numCores(), g.rows, g.cols, sys.numBackends(),
                    p99AtLoad(sys, 0.8) / 1e3);
    }

    std::printf("\nAll knobs live in node::SystemParams; policies are "
                "spec strings\nresolved by the ni::PolicyRegistry (see "
                "src/ni/policy_spec.hh and\nsrc/sim/registry.hh).\n");
    return 0;
}
