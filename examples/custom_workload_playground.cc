/**
 * @file
 * Example: extending the workload layer from *outside* src/app.
 *
 * Defines a new workload ("bimodal:long_ratio=,long_us=" — echo RPCs
 * that are short most of the time but occasionally run for tens of
 * microseconds, nanoPU-style short/long interference with two request
 * classes), registers it with the app::WorkloadRegistry at static-init
 * time, and then drives the node over a ladder of workloads — built-in
 * and the new one alike — purely by spec string through the public
 * experiment API. Because registered workloads compose, the new one
 * also rides the "mix" spec next to HERD without any extra code. No
 * file under src/ was touched to add the workload.
 *
 *   $ ./example_custom_workload_playground
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/wire_format.hh"
#include "core/experiment.hh"
#include "sim/distributions.hh"
#include "sim/logging.hh"

namespace {

using namespace rpcvalet;

/**
 * Echo workload with two request classes: "short" (GEV, ~600 ns mean,
 * latency-critical) and "long" (fixed tens-of-us, best-effort). The
 * class split is chosen client-side, carried in the request's class
 * byte, and echoed back through HandleResult — which is all the
 * per-class accounting machinery needs.
 */
class BimodalApp : public app::RpcApplication
{
  public:
    BimodalApp(double long_ratio, double long_us)
        : longRatio_(long_ratio),
          shortDist_(sim::makeSynthetic(sim::SyntheticKind::Gev)),
          longNs_(long_us * 1e3)
    {}

    std::vector<std::uint8_t>
    makeRequest(sim::Rng &client_rng) override
    {
        app::RpcRequest req;
        req.op = app::RpcOp::Echo;
        req.key = nextMarker_++;
        req.classId = client_rng.uniform() < longRatio_ ? 1 : 0;
        return app::encodeRequest(req);
    }

    app::HandleResult
    handle(const std::vector<std::uint8_t> &request,
           sim::Rng &server_rng) override
    {
        const auto req = app::decodeRequest(request);
        app::HandleResult result;
        if (!req) {
            result.processingNs = shortDist_->sample(server_rng);
            result.reply =
                app::encodeReply(app::RpcReply{app::RpcStatus::Error, {}});
            return result;
        }
        if (req->classId == 1) {
            result.classId = 1;
            result.latencyCritical = false;
            result.processingNs = longNs_;
        } else {
            result.processingNs = shortDist_->sample(server_rng);
        }
        // Echo the marker, written straight into the reply.
        result.reply = app::encodeReplyFrame(app::RpcStatus::Ok, 8);
        for (int i = 0; i < 8; ++i) {
            result.reply[app::replyHeaderBytes + static_cast<size_t>(i)] =
                static_cast<std::uint8_t>((req->key >> (8 * i)) & 0xff);
        }
        return result;
    }

    bool
    verifyReply(const std::vector<std::uint8_t> &request,
                const std::vector<std::uint8_t> &reply) const override
    {
        const auto req = app::decodeRequest(request);
        const auto rep = app::decodeReply(reply);
        if (!req || !rep || rep->status != app::RpcStatus::Ok ||
            rep->value.size() != 8)
            return false;
        std::uint64_t marker = 0;
        for (int i = 0; i < 8; ++i) {
            marker |= static_cast<std::uint64_t>(
                          rep->value[static_cast<size_t>(i)])
                      << (8 * i);
        }
        return marker == req->key;
    }

    double
    meanProcessingNs() const override
    {
        return (1.0 - longRatio_) * shortDist_->mean() +
               longRatio_ * longNs_;
    }

    double
    latencyCriticalMeanNs() const override
    {
        return shortDist_->mean();
    }

    std::vector<app::RequestClass>
    requestClasses() const override
    {
        return {app::RequestClass{"short", true,
                                  10.0 * shortDist_->mean()},
                app::RequestClass{"long", false, 0.0}};
    }

    std::string
    name() const override
    {
        return sim::strfmt("bimodal:long_ratio=%g", longRatio_);
    }

  private:
    double longRatio_;
    sim::DistributionPtr shortDist_;
    double longNs_;
    std::uint64_t nextMarker_ = 1;
};

// Static-init registration: this is all it takes to make
// "bimodal:long_ratio=0.01,long_us=50" usable from ExperimentConfig,
// the benches' --workload= flag, and the "mix" composite.
const app::WorkloadRegistrar bimodalRegistrar(
    "bimodal", [](const app::WorkloadSpec &spec) {
        spec.expectKeys({"long_ratio", "long_us"});
        const double ratio = spec.doubleParam("long_ratio", 0.01);
        const double long_us = spec.doubleParam("long_us", 50.0);
        if (!(ratio >= 0.0 && ratio <= 1.0))
            sim::fatal("bimodal: long_ratio must be in [0, 1]");
        return std::make_unique<BimodalApp>(ratio, long_us);
    });

void
runOne(const std::string &spec_text)
{
    const app::WorkloadSpec workload(spec_text);
    node::SystemParams sys;
    core::ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.arrivalRps = 0.6 * core::estimateCapacityRps(sys, workload);
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 15000;
    const core::RunStats r = core::runExperiment(cfg);
    std::printf("  %-40s p99(critical) = %8.2f us\n", spec_text.c_str(),
                r.point.p99Ns / 1e3);
    for (const core::ClassStats &cs : r.perClass) {
        std::printf("      class %-18s %s  p99 %9.2f us  "
                    "p99.9 %9.2f us\n",
                    cs.name.c_str(),
                    cs.latencyCritical ? "critical" : "besteff.",
                    cs.p99Ns / 1e3, cs.p999Ns / 1e3);
    }
}

} // namespace

int
main()
{
    using namespace rpcvalet;

    std::printf("Workload playground (60%% load, greedy 1x16)\n\n");

    std::printf("--- registered workloads (note 'bimodal': registered "
                "by this example) ---\n");
    for (const std::string &name :
         app::WorkloadRegistry::instance().names())
        std::printf("  %s\n", name.c_str());

    std::printf("\n--- built-ins and the external workload, by spec "
                "string ---\n");
    for (const char *spec :
         {"herd", "synthetic:dist=gev", "masstree:scan_ratio=0.005",
          "bimodal:long_ratio=0.01,long_us=50",
          "bimodal:long_ratio=0.05,long_us=25"}) {
        runOne(spec);
    }

    std::printf("\n--- composites: the external workload rides 'mix' "
                "like any built-in ---\n");
    for (const char *spec :
         {"mix:herd=0.9,bimodal=0.1",
          "mix:herd=0.5,synthetic=0.25,bimodal=0.25"}) {
        runOne(spec);
    }

    std::printf("\nWorkloads are spec strings resolved by the "
                "app::WorkloadRegistry\n(see src/app/workload.hh); "
                "every bench accepts --workload=SPEC.\n");
    return 0;
}
