/**
 * @file
 * Layer timing from outside the simulator: "bench-timed" wrappers
 * registered through the public workload, policy, arrival and router
 * registrars. Each wrapper builds the real component from the spec set
 * with setInnerSpecs() and delegates every virtual call to it, timing
 * makeRequest, handle, verifyReply, select, nextInterarrivalNs and
 * route. A run with all four wrappers selected executes the same event
 * schedule as the unwrapped run; only host time changes.
 *
 * Each wrapper instance keeps its own accumulators (one instance is
 * only ever called from one domain thread) and merges them into the
 * process-wide totals when it is destroyed, which runExperiment does
 * before it returns.
 */

#ifndef RPCVALET_PERFSUITE_INTERPOSE_HH
#define RPCVALET_PERFSUITE_INTERPOSE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "app/workload.hh"
#include "cluster/router.hh"
#include "net/arrival.hh"
#include "ni/policy_spec.hh"

namespace rpcvalet::perfsuite {

/** Registry name every wrapper registers under. */
inline constexpr const char *kTimedSpec = "bench-timed";

/** The interposed calls, one span name each. */
enum class Span : std::size_t
{
    MakeRequest,
    Handle,
    VerifyReply,
    Select,
    Arrival,
    Route,
};
inline constexpr std::size_t kNumSpans = 6;

/** The real components the wrappers build and delegate to. */
struct InnerSpecs
{
    app::WorkloadSpec workload;
    ni::PolicySpec policy;
    net::ArrivalSpec arrival;
    cluster::RouterSpec router;
};

/** Set the specs the next wrappers instantiate (before the run). */
void setInnerSpecs(const InnerSpecs &specs);

/** One sampled span, relative to the trace epoch. */
struct SampledSpan
{
    Span span = Span::MakeRequest;
    std::uint32_t thread = 0;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
};

/** Everything the wrappers recorded between beginTrace and endTrace. */
struct TraceTotals
{
    std::array<std::uint64_t, kNumSpans> calls{};
    std::array<std::uint64_t, kNumSpans> ns{};
    /** 1 in kSampleEvery calls per span name and wrapper instance. */
    std::vector<SampledSpan> sampled;

    std::uint64_t callsOf(Span s) const
    {
        return calls[static_cast<std::size_t>(s)];
    }
    std::uint64_t nsOf(Span s) const
    {
        return ns[static_cast<std::size_t>(s)];
    }
    /** Mean host ns per call of @p s (0 when never called). */
    double nsPerCall(Span s) const;
};

inline constexpr std::uint64_t kSampleEvery = 4096;

/** Clear the totals and restart the trace clock. */
void beginTrace();

/** Totals merged from every wrapper destroyed since beginTrace. */
TraceTotals endTrace();

/** Host ns since the last beginTrace (for the enclosing run span). */
std::int64_t traceNowNs();

/**
 * Write @p totals' sampled spans as Chrome trace-event JSON, each a
 * child of one "run" span covering [runStartNs, runStartNs + runNs)
 * on thread 0. Returns false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path, const std::string &label,
                      std::int64_t runStartNs, std::int64_t runNs,
                      const TraceTotals &totals);

} // namespace rpcvalet::perfsuite

#endif // RPCVALET_PERFSUITE_INTERPOSE_HH
