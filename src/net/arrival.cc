#include "net/arrival.hh"

#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::net {

void
ArrivalAxis::checkArgs(const sim::Spec &spec, double rate_per_sec)
{
    if (!(rate_per_sec > 0.0)) {
        sim::fatal("arrival process '" + spec.toString() +
                   "' needs a positive target rate");
    }
}

// The Rng stream id matches sim::PoissonProcess so the "poisson"
// process reproduces the legacy arrival sequence bit-for-bit.
ArrivalDriver::ArrivalDriver(sim::EventDomain &sim,
                             ArrivalProcessPtr process,
                             std::uint64_t rng_seed, Handler handler)
    : sim_(sim), process_(std::move(process)),
      rng_(rng_seed, /*stream=*/0x90150), handler_(std::move(handler)),
      event_(*this, "arrival")
{
    RV_ASSERT(process_ != nullptr, "arrival driver needs a process");
    RV_ASSERT(handler_ != nullptr, "arrival handler missing");
}

void
ArrivalDriver::start()
{
    process_->onStart(sim_.now());
    scheduleNext();
}

void
ArrivalDriver::halt()
{
    halted_ = true;
    process_->onHalt(sim_.now());
}

void
ArrivalDriver::fire()
{
    if (halted_)
        return;
    ++arrivals_;
    handler_();
    scheduleNext();
}

void
ArrivalDriver::scheduleNext()
{
    const sim::Tick gap =
        sim::nanoseconds(process_->nextInterarrivalNs(rng_, sim_.now()));
    sim_.schedule(event_, gap);
}

} // namespace rpcvalet::net
