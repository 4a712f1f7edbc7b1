#include "queueing/model.hh"

#include <deque>

#include "net/arrival.hh"
#include "sim/domain.hh"
#include "sim/logging.hh"
#include "stats/latency_recorder.hh"

namespace rpcvalet::queueing {

namespace {

/** One FIFO queue with its pool of serving units. */
struct QueueState
{
    std::deque<sim::Tick> waiting; // arrival timestamps
    unsigned busyUnits = 0;
};

/** Full state of one in-flight queuing simulation. */
class ModelSim
{
  public:
    explicit ModelSim(const ModelConfig &cfg)
        : cfg_(cfg), queues_(cfg.numQueues),
          serviceRng_(cfg.seed, /*stream=*/1),
          routeRng_(cfg.seed, /*stream=*/2),
          recorder_(cfg.warmupCompletions),
          arrivals_(sim_,
                    net::ArrivalRegistry::instance().make(
                        net::ArrivalSpec("poisson"), cfg.arrivalRps),
                    cfg.seed, [this] { onArrival(); })
    {
        RV_ASSERT(cfg.numQueues >= 1, "need at least one queue");
        RV_ASSERT(cfg.unitsPerQueue >= 1, "need at least one unit");
        RV_ASSERT(cfg.service != nullptr, "service distribution missing");
    }

    ModelResult
    run()
    {
        arrivals_.start();
        sim_.run();

        ModelResult result;
        result.point.offeredRps = cfg_.arrivalRps;
        result.point.meanNs = recorder_.meanNs();
        result.point.p50Ns = recorder_.percentileNs(50.0);
        result.point.p90Ns = recorder_.percentileNs(90.0);
        result.point.p99Ns = recorder_.percentileNs(99.0);
        result.point.samples = recorder_.count();
        result.simulatedNs = sim::toNs(sim_.now());
        // Achieved throughput over the measured window.
        if (measureEndTick_ > measureStartTick_) {
            result.point.achievedRps =
                static_cast<double>(cfg_.measuredCompletions) /
                sim::toSeconds(measureEndTick_ - measureStartTick_);
        }
        return result;
    }

  private:
    void
    onArrival()
    {
        const auto q = static_cast<std::size_t>(
            routeRng_.uniformInt(0, cfg_.numQueues - 1));
        QueueState &qs = queues_[q];
        if (qs.busyUnits < cfg_.unitsPerQueue) {
            ++qs.busyUnits;
            beginService(q, sim_.now());
        } else {
            qs.waiting.push_back(sim_.now());
        }
    }

    void
    beginService(std::size_t q, sim::Tick arrival)
    {
        const sim::Tick service =
            sim::nanoseconds(cfg_.service->sample(serviceRng_));
        sim_.schedule(service, [this, q, arrival] {
            completeService(q, arrival);
        });
    }

    void
    completeService(std::size_t q, sim::Tick arrival)
    {
        recorder_.record(sim_.now() - arrival);
        ++completions_;
        if (completions_ == cfg_.warmupCompletions)
            measureStartTick_ = sim_.now();
        const std::uint64_t target =
            cfg_.warmupCompletions + cfg_.measuredCompletions;
        if (completions_ == target) {
            measureEndTick_ = sim_.now();
            arrivals_.halt();
            sim_.stop();
            return;
        }
        QueueState &qs = queues_[q];
        if (!qs.waiting.empty()) {
            const sim::Tick next_arrival = qs.waiting.front();
            qs.waiting.pop_front();
            beginService(q, next_arrival);
        } else {
            RV_ASSERT(qs.busyUnits > 0, "unit underflow");
            --qs.busyUnits;
        }
    }

    const ModelConfig &cfg_;
    sim::EventDomain sim_;
    std::vector<QueueState> queues_;
    sim::Rng serviceRng_;
    sim::Rng routeRng_;
    stats::LatencyRecorder recorder_;
    net::ArrivalDriver arrivals_;
    std::uint64_t completions_ = 0;
    sim::Tick measureStartTick_ = 0;
    sim::Tick measureEndTick_ = 0;
};

} // namespace

ModelResult
runModel(const ModelConfig &cfg)
{
    ModelSim sim(cfg);
    return sim.run();
}

stats::Series
runLoadSweep(const SweepConfig &cfg)
{
    RV_ASSERT(cfg.service != nullptr, "service distribution missing");
    stats::Series series;
    series.label = cfg.label;
    const double capacity_rps =
        static_cast<double>(cfg.numQueues) *
        static_cast<double>(cfg.unitsPerQueue) /
        (cfg.service->mean() * 1e-9);
    for (double rho : cfg.loads) {
        RV_ASSERT(rho > 0.0, "load must be positive");
        ModelConfig mc;
        mc.numQueues = cfg.numQueues;
        mc.unitsPerQueue = cfg.unitsPerQueue;
        mc.arrivalRps = rho * capacity_rps;
        mc.service = cfg.service;
        mc.seed = cfg.seed + static_cast<std::uint64_t>(rho * 1e6);
        mc.warmupCompletions = cfg.warmupCompletions;
        mc.measuredCompletions = cfg.measuredCompletions;
        series.points.push_back(runModel(mc).point);
    }
    return series;
}

} // namespace rpcvalet::queueing
