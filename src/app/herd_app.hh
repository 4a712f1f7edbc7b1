/**
 * @file
 * HERD-like key-value tier (§5): a real hash-table-backed KV store
 * serving a 95/5% read/write mix over a uniform key popularity, with
 * processing times following the Fig. 6b profile (mean ~330 ns).
 */

#ifndef RPCVALET_APP_HERD_APP_HH
#define RPCVALET_APP_HERD_APP_HH

#include <memory>

#include "app/hash_table.hh"
#include "app/rpc_application.hh"
#include "app/wire_format.hh"
#include "sim/distributions.hh"

namespace rpcvalet::app {

/** HERD-style KV store over the custom HashTable. */
class HerdApp : public RpcApplication
{
  public:
    struct Params
    {
        /** Preloaded key count (paper: 4 GB dataset; scaled down). */
        std::uint64_t numKeys = 65536;
        /** Value size in bytes (HERD-style small objects). */
        std::uint32_t valueBytes = 32;
        /** Fraction of GET requests (§5: 95/5% read/write). */
        double readFraction = 0.95;
    };

    explicit HerdApp(const Params &params);
    HerdApp() : HerdApp(Params{}) {}

    std::vector<std::uint8_t> makeRequest(sim::Rng &client_rng) override;
    HandleResult handle(const std::vector<std::uint8_t> &request,
                        sim::Rng &server_rng) override;
    bool verifyReply(const std::vector<std::uint8_t> &request,
                     const std::vector<std::uint8_t> &reply) const override;
    double meanProcessingNs() const override;
    std::vector<RequestClass> requestClasses() const override;
    std::string name() const override;

    /** Deterministic value bytes for @p key (load + verification). */
    std::vector<std::uint8_t> valueForKey(std::uint64_t key) const;

    /** Access to the backing store (tests). */
    const HashTable &table() const { return table_; }

  private:
    /** First byte of valueForKey(@p key) within ramp_. */
    const std::uint8_t *valueStart(std::uint64_t key) const;
    /** Whether @p value is exactly valueForKey(@p key). */
    bool isValueOf(std::uint64_t key, ByteView value) const;

    Params params_;
    HashTable table_;
    sim::DistributionPtr processing_;
    /** Bytes j & 0xff for j < 256 + valueBytes: every canonical value
     *  is one valueBytes-long slice of it (see valueStart). */
    std::vector<std::uint8_t> ramp_;
};

} // namespace rpcvalet::app

#endif // RPCVALET_APP_HERD_APP_HH
