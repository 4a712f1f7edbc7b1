#include "interpose.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "ni/dispatch_policy.hh"

namespace rpcvalet::perfsuite {

namespace {

using Clock = std::chrono::steady_clock;

struct Global
{
    std::mutex mu;
    InnerSpecs inner;
    TraceTotals totals;
    Clock::time_point epoch = Clock::now();
};

Global &
global()
{
    static Global g;
    return g;
}

std::int64_t
sinceEpochNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - global().epoch)
        .count();
}

/** Small dense thread ids for the trace's tid field. */
std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

/** Per-wrapper accumulators, merged into the global totals on exit. */
class Recorder
{
  public:
    Recorder() = default;
    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    ~Recorder()
    {
        Global &g = global();
        const std::lock_guard<std::mutex> lock(g.mu);
        for (std::size_t i = 0; i < kNumSpans; ++i) {
            g.totals.calls[i] += local_.calls[i];
            g.totals.ns[i] += local_.ns[i];
        }
        g.totals.sampled.insert(g.totals.sampled.end(),
                                local_.sampled.begin(),
                                local_.sampled.end());
    }

    template <typename F>
    auto
    time(Span span, F &&call)
    {
        const auto i = static_cast<std::size_t>(span);
        const Clock::time_point t0 = Clock::now();
        auto result = call();
        const Clock::time_point t1 = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (local_.calls[i]++ % kSampleEvery == 0) {
            local_.sampled.push_back(SampledSpan{
                span, threadIndex(), sinceEpochNs(t0),
                static_cast<std::int64_t>(ns)});
        }
        local_.ns[i] += ns;
        return result;
    }

  private:
    TraceTotals local_;
};

/** Span name as written to the trace ("app.handle", ...). */
const char *
spanName(Span span)
{
    switch (span) {
      case Span::MakeRequest: return "app.makeRequest";
      case Span::Handle: return "app.handle";
      case Span::VerifyReply: return "app.verifyReply";
      case Span::Select: return "ni.select";
      case Span::Arrival: return "net.nextInterarrivalNs";
      case Span::Route: return "cluster.route";
    }
    return "?";
}

InnerSpecs
innerSpecs()
{
    Global &g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    return g.inner;
}

class TimedWorkload final : public app::RpcApplication
{
  public:
    explicit TimedWorkload(app::RpcApplicationPtr inner)
        : inner_(std::move(inner))
    {}

    std::vector<std::uint8_t>
    makeRequest(sim::Rng &client_rng) override
    {
        return rec_.time(Span::MakeRequest,
                         [&] { return inner_->makeRequest(client_rng); });
    }

    app::HandleResult
    handle(const std::vector<std::uint8_t> &request,
           sim::Rng &server_rng) override
    {
        return rec_.time(Span::Handle, [&] {
            return inner_->handle(request, server_rng);
        });
    }

    bool
    verifyReply(const std::vector<std::uint8_t> &request,
                const std::vector<std::uint8_t> &reply) const override
    {
        return rec_.time(Span::VerifyReply, [&] {
            return inner_->verifyReply(request, reply);
        });
    }

    double meanProcessingNs() const override
    {
        return inner_->meanProcessingNs();
    }
    double latencyCriticalMeanNs() const override
    {
        return inner_->latencyCriticalMeanNs();
    }
    double requestsPerArrival() const override
    {
        return inner_->requestsPerArrival();
    }
    std::vector<app::RequestClass> requestClasses() const override
    {
        return inner_->requestClasses();
    }
    std::string name() const override { return inner_->name(); }

  private:
    app::RpcApplicationPtr inner_;
    mutable Recorder rec_;
};

class TimedPolicy final : public ni::DispatchPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<ni::DispatchPolicy> inner)
        : inner_(std::move(inner))
    {}

    void onArrival(const ni::DispatchContext &ctx) override
    {
        inner_->onArrival(ctx);
    }
    void onDispatch(proto::CoreId core,
                    const ni::DispatchContext &ctx) override
    {
        inner_->onDispatch(core, ctx);
    }
    void onComplete(proto::CoreId core,
                    const ni::DispatchContext &ctx) override
    {
        inner_->onComplete(core, ctx);
    }

    std::optional<proto::CoreId>
    select(const ni::DispatchContext &ctx) override
    {
        return rec_.time(Span::Select,
                         [&] { return inner_->select(ctx); });
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<ni::DispatchPolicy> inner_;
    Recorder rec_;
};

class TimedArrival final : public net::ArrivalProcess
{
  public:
    explicit TimedArrival(net::ArrivalProcessPtr inner)
        : inner_(std::move(inner))
    {}

    double
    nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
    {
        return rec_.time(Span::Arrival, [&] {
            return inner_->nextInterarrivalNs(rng, now);
        });
    }

    void onStart(sim::Tick now) override { inner_->onStart(now); }
    void onHalt(sim::Tick now) override { inner_->onHalt(now); }
    std::string name() const override { return inner_->name(); }

  private:
    net::ArrivalProcessPtr inner_;
    Recorder rec_;
};

class TimedRouter final : public cluster::Router
{
  public:
    explicit TimedRouter(cluster::RouterPtr inner)
        : inner_(std::move(inner))
    {}

    std::uint32_t
    route(const cluster::RouteContext &ctx) override
    {
        return rec_.time(Span::Route, [&] { return inner_->route(ctx); });
    }

    std::string name() const override { return inner_->name(); }

  private:
    cluster::RouterPtr inner_;
    Recorder rec_;
};

const app::WorkloadRegistrar timedWorkloadReg(
    kTimedSpec, [](const app::WorkloadSpec &spec) -> app::RpcApplicationPtr {
        spec.expectKeys({});
        return std::make_unique<TimedWorkload>(
            app::WorkloadRegistry::instance().make(innerSpecs().workload));
    });

const ni::PolicyRegistrar timedPolicyReg(
    kTimedSpec, [](const ni::PolicySpec &spec)
                    -> std::unique_ptr<ni::DispatchPolicy> {
        spec.expectKeys({});
        return std::make_unique<TimedPolicy>(
            ni::PolicyRegistry::instance().make(innerSpecs().policy));
    });

const net::ArrivalRegistrar timedArrivalReg(
    kTimedSpec, [](const net::ArrivalSpec &spec,
                   double rate) -> net::ArrivalProcessPtr {
        spec.expectKeys({});
        return std::make_unique<TimedArrival>(
            net::ArrivalRegistry::instance().make(innerSpecs().arrival,
                                                  rate));
    });

const cluster::RouterRegistrar timedRouterReg(
    kTimedSpec, [](const cluster::RouterSpec &spec) -> cluster::RouterPtr {
        spec.expectKeys({});
        return std::make_unique<TimedRouter>(
            cluster::RouterRegistry::instance().make(innerSpecs().router));
    });

} // namespace

double
TraceTotals::nsPerCall(Span s) const
{
    const std::uint64_t n = callsOf(s);
    return n == 0 ? 0.0
                  : static_cast<double>(nsOf(s)) / static_cast<double>(n);
}

void
setInnerSpecs(const InnerSpecs &specs)
{
    Global &g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    g.inner = specs;
}

void
beginTrace()
{
    Global &g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    g.totals = TraceTotals{};
    g.epoch = Clock::now();
    // The caller's thread is the run span's; its first index is 0.
    (void)threadIndex();
}

TraceTotals
endTrace()
{
    Global &g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    return std::exchange(g.totals, TraceTotals{});
}

std::int64_t
traceNowNs()
{
    return sinceEpochNs(Clock::now());
}

bool
writeChromeTrace(const std::string &path, const std::string &label,
                 std::int64_t runStartNs, std::int64_t runNs,
                 const TraceTotals &totals)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
                 "{\"name\": \"run\", \"cat\": \"core\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"workload\": \"%s\", \"sample_every\": "
                 "%llu}}",
                 static_cast<double>(runStartNs) / 1e3,
                 static_cast<double>(runNs) / 1e3, label.c_str(),
                 static_cast<unsigned long long>(kSampleEvery));
    for (const SampledSpan &s : totals.sampled) {
        const char *name = spanName(s.span);
        const std::string cat(name, std::string(name).find('.'));
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                     "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"parent\": \"run\"}}",
                     name, cat.c_str(), s.thread,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.durNs) / 1e3);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace rpcvalet::perfsuite
