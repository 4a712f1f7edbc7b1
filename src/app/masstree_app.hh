/**
 * @file
 * Masstree-like ordered store (§5): a real skip-list-backed tier
 * serving 99% single-key gets interleaved with 1% long ordered scans
 * returning 100 consecutive keys. Gets follow the Fig. 6c profile
 * (mean ~1.25 us); scans run 60-120 us and are served but not
 * latency-critical — they are the interference RPCValet's occupancy
 * feedback routes around (§6.1).
 */

#ifndef RPCVALET_APP_MASSTREE_APP_HH
#define RPCVALET_APP_MASSTREE_APP_HH

#include <memory>

#include "app/rpc_application.hh"
#include "app/skip_list.hh"
#include "app/wire_format.hh"
#include "sim/distributions.hh"

namespace rpcvalet::app {

/** Masstree-style ordered KV store over the custom SkipList. */
class MasstreeApp : public RpcApplication
{
  public:
    struct Params
    {
        /** Preloaded key count. */
        std::uint64_t numKeys = 100000;
        /** Key stride (keys are k * stride; sparse key space). */
        std::uint64_t keyStride = 16;
        /** Value size in bytes. */
        std::uint32_t valueBytes = 8;
        /** Fraction of get requests (§5: 99% gets, 1% scans). */
        double getFraction = 0.99;
        /** Keys returned per ordered scan (§5: 100). */
        std::uint32_t scanCount = 100;
        /** Cap on reply payload bytes (messaging maxMsgBytes bound). */
        std::uint32_t maxReplyValueBytes = 1600;
    };

    explicit MasstreeApp(const Params &params);
    MasstreeApp() : MasstreeApp(Params{}) {}

    std::vector<std::uint8_t> makeRequest(sim::Rng &client_rng) override;
    HandleResult handle(const std::vector<std::uint8_t> &request,
                        sim::Rng &server_rng) override;
    bool verifyReply(const std::vector<std::uint8_t> &request,
                     const std::vector<std::uint8_t> &reply) const override;
    double meanProcessingNs() const override;
    double latencyCriticalMeanNs() const override;
    std::vector<RequestClass> requestClasses() const override;
    std::string name() const override;

    /** Deterministic value bytes for @p key. */
    std::vector<std::uint8_t> valueForKey(std::uint64_t key) const;

    /** Access to the backing store (tests). */
    const SkipList &store() const { return store_; }

  private:
    /** Whether @p value is exactly valueForKey(@p key). */
    bool isValueOf(std::uint64_t key, ByteView value) const;
    /** Local class id of gets (always 0 when gets are generated). */
    std::uint8_t getClassId() const { return 0; }
    /** Local class id of scans: 1 in the mixed configuration, 0 when
     *  the workload is scan-only (getFraction <= 0). */
    std::uint8_t scanClassId() const;

    Params params_;
    SkipList store_;
    sim::DistributionPtr getProcessing_;
    sim::DistributionPtr scanProcessing_;
};

} // namespace rpcvalet::app

#endif // RPCVALET_APP_MASSTREE_APP_HH
