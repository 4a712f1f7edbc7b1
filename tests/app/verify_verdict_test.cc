/**
 * @file
 * verifyReply's verdicts against a decode-copy-and-compare oracle.
 *
 * Every built-in workload's verifyReply checks replies in place over
 * view decoders. Under corruption faults its failures are the run's
 * corruptionsDetected count, so each verdict must equal the one of the
 * reference logic kept here: decoders that copy the value out, and the
 * same per-workload comparisons against copied-out expected values.
 * The replies checked are generated request/reply pairs, every
 * single-byte corruption of each reply, and every truncation.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "app/herd_app.hh"
#include "app/masstree_app.hh"
#include "app/synthetic_app.hh"
#include "app/wire_format.hh"
#include "app/workload.hh"
#include "sim/rng.hh"

namespace {

using namespace rpcvalet;
using namespace rpcvalet::app;

using Bytes = std::vector<std::uint8_t>;

// ------------------------------------------- copying reference decoders

struct CopiedRequest
{
    RpcOp op = RpcOp::Get;
    std::uint8_t classId = 0;
    std::uint64_t key = 0;
    std::uint32_t count = 0;
    Bytes value;
};

struct CopiedReply
{
    RpcStatus status = RpcStatus::Ok;
    Bytes value;
};

std::uint32_t
getU32(const Bytes &in, std::size_t at)
{
    return static_cast<std::uint32_t>(in[at]) |
           (static_cast<std::uint32_t>(in[at + 1]) << 8) |
           (static_cast<std::uint32_t>(in[at + 2]) << 16) |
           (static_cast<std::uint32_t>(in[at + 3]) << 24);
}

std::uint64_t
getU64(const Bytes &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    return v;
}

std::optional<CopiedRequest>
copyDecodeRequest(const Bytes &bytes)
{
    if (bytes.size() < requestHeaderBytes)
        return std::nullopt;
    if (bytes[0] > static_cast<std::uint8_t>(RpcOp::Echo))
        return std::nullopt;
    CopiedRequest req;
    req.op = static_cast<RpcOp>(bytes[0]);
    req.classId = bytes[1];
    req.key = getU64(bytes, 2);
    req.count = getU32(bytes, 10);
    const std::uint32_t vlen = getU32(bytes, 14);
    if (bytes.size() < requestHeaderBytes + vlen)
        return std::nullopt;
    req.value.assign(bytes.begin() + requestHeaderBytes,
                     bytes.begin() +
                         static_cast<long>(requestHeaderBytes + vlen));
    return req;
}

std::optional<CopiedReply>
copyDecodeReply(const Bytes &bytes)
{
    if (bytes.size() < replyHeaderBytes)
        return std::nullopt;
    if (bytes[0] > static_cast<std::uint8_t>(RpcStatus::Error))
        return std::nullopt;
    CopiedReply reply;
    reply.status = static_cast<RpcStatus>(bytes[0]);
    const std::uint32_t vlen = getU32(bytes, 1);
    if (bytes.size() < replyHeaderBytes + vlen)
        return std::nullopt;
    reply.value.assign(bytes.begin() + replyHeaderBytes,
                       bytes.begin() +
                           static_cast<long>(replyHeaderBytes + vlen));
    return reply;
}

/** Little-endian u64 from the first 8 value bytes (callers check). */
std::uint64_t
leadingMarker(const Bytes &value)
{
    return getU64(value, 0);
}

// ---------------------------------------------- per-workload references

/** A workload's reference verdict for one (request, reply) pair. */
using Oracle = std::function<bool(const Bytes &, const Bytes &)>;

/** HERD: a GET returns exactly valueForKey(key); a PUT only Ok. */
Oracle
herdOracle(std::uint32_t value_bytes)
{
    HerdApp::Params p;
    p.numKeys = 1; // valueForKey depends on the value size alone
    p.valueBytes = value_bytes;
    auto values = std::make_shared<HerdApp>(p);
    return [values](const Bytes &request, const Bytes &reply) {
        const auto req = copyDecodeRequest(request);
        const auto rep = copyDecodeReply(reply);
        if (!req || !rep)
            return false;
        switch (req->op) {
          case RpcOp::Get:
            return rep->status == RpcStatus::Ok &&
                   rep->value == values->valueForKey(req->key);
          case RpcOp::Put:
            return rep->status == RpcStatus::Ok;
          default:
            return rep->status != RpcStatus::Error;
        }
    };
}

/** Masstree: GETs as HERD's; a scan's first entry is the start key. */
Oracle
masstreeOracle(std::uint32_t value_bytes)
{
    MasstreeApp::Params p;
    p.numKeys = 1;
    p.valueBytes = value_bytes;
    auto values = std::make_shared<MasstreeApp>(p);
    return [values, value_bytes](const Bytes &request, const Bytes &reply) {
        const auto req = copyDecodeRequest(request);
        const auto rep = copyDecodeReply(reply);
        if (!req || !rep)
            return false;
        if (req->op == RpcOp::Get) {
            return rep->status == RpcStatus::Ok &&
                   rep->value == values->valueForKey(req->key);
        }
        if (req->op == RpcOp::Scan) {
            if (rep->status != RpcStatus::Ok ||
                rep->value.size() < 8 + value_bytes)
                return false;
            return leadingMarker(rep->value) == req->key;
        }
        return rep->status != RpcStatus::Error;
    };
}

/** Synthetic: an Ok reply of exactly replyBytes echoing the marker. */
Oracle
syntheticOracle()
{
    return [](const Bytes &request, const Bytes &reply) {
        const auto req = copyDecodeRequest(request);
        const auto rep = copyDecodeReply(reply);
        if (!req || !rep || rep->status != RpcStatus::Ok)
            return false;
        if (reply.size() != SyntheticApp::replyBytes)
            return false;
        // An intact header announces 507 value bytes and a single-byte
        // corruption cannot bring that below 8; a truncated reply has
        // already failed the size check.
        return rep->value.size() >= 8 &&
               leadingMarker(rep->value) == req->key;
    };
}

/** Chain: an Ok reply whose value is exactly the 8-byte marker. */
Oracle
chainOracle()
{
    return [](const Bytes &request, const Bytes &reply) {
        const auto req = copyDecodeRequest(request);
        const auto rep = copyDecodeReply(reply);
        if (!req || !rep || rep->status != RpcStatus::Ok ||
            rep->value.size() != 8)
            return false;
        return leadingMarker(rep->value) == req->key;
    };
}

/**
 * Mix: the class byte picks the component (class ids are allotted in
 * component order, one per class); the component sees its own class
 * ids.
 */
Oracle
mixOracle(std::vector<std::pair<std::uint8_t, Oracle>> components)
{
    return [components](const Bytes &request, const Bytes &reply) {
        std::uint8_t base = 0;
        for (std::size_t c = 0; c < components.size(); ++c) {
            const auto &[classes, oracle] = components[c];
            const bool last = c + 1 == components.size();
            if (last || request[requestClassOffset] < base + classes) {
                Bytes local = request;
                local[requestClassOffset] = static_cast<std::uint8_t>(
                    local[requestClassOffset] - base);
                return oracle(local, reply);
            }
            base = static_cast<std::uint8_t>(base + classes);
        }
        return false;
    };
}

struct Case
{
    std::string spec;
    /** Generated request/reply pairs to check. */
    int pairs;
    std::function<Oracle()> oracle;
};

std::ostream &
operator<<(std::ostream &os, const Case &c)
{
    return os << c.spec;
}

class VerifyVerdicts : public ::testing::TestWithParam<Case>
{
};

/** Compare both verdicts on @p reply; returns false on a mismatch. */
::testing::AssertionResult
sameVerdict(const RpcApplication &app, const Oracle &oracle,
            const Bytes &request, const Bytes &reply, const char *what)
{
    const bool got = app.verifyReply(request, reply);
    const bool want = oracle(request, reply);
    if (got == want)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": verifyReply says " << got << ", reference says "
           << want << " (reply of " << reply.size() << " bytes)";
}

TEST_P(VerifyVerdicts, MatchDecodeCopyReference)
{
    const Case &c = GetParam();
    const RpcApplicationPtr app = WorkloadRegistry::instance().make(c.spec);
    const Oracle oracle = c.oracle();
    sim::Rng client(11);
    sim::Rng server(12);
    int rejected = 0;
    for (int i = 0; i < c.pairs; ++i) {
        const Bytes request = app->makeRequest(client);
        const Bytes reply = app->handle(request, server).reply;
        ASSERT_TRUE(sameVerdict(*app, oracle, request, reply, "intact"));
        ASSERT_TRUE(app->verifyReply(request, reply))
            << "a generated pair must verify";

        // Every single-byte corruption: each position, every other
        // value.
        Bytes bad = reply;
        for (std::size_t at = 0; at < reply.size(); ++at) {
            for (int v = 0; v < 256; ++v) {
                if (v == reply[at])
                    continue;
                bad[at] = static_cast<std::uint8_t>(v);
                rejected += !app->verifyReply(request, bad);
                ASSERT_TRUE(
                    sameVerdict(*app, oracle, request, bad, "corrupted"))
                    << "byte " << at << " set to " << v;
            }
            bad[at] = reply[at];
        }
        // Every truncation, and one byte too many.
        for (std::size_t len = 0; len < reply.size(); ++len) {
            const Bytes cut(reply.begin(),
                            reply.begin() + static_cast<long>(len));
            ASSERT_TRUE(sameVerdict(*app, oracle, request, cut, "truncated"))
                << "cut to " << len << " bytes";
        }
        Bytes longer = reply;
        longer.push_back(0);
        ASSERT_TRUE(sameVerdict(*app, oracle, request, longer, "extended"));
    }
    // Corruption is caught at all (the count corruptionsDetected
    // reports).
    EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, VerifyVerdicts,
    ::testing::Values(
        Case{"herd", 24, [] { return herdOracle(32); }},
        Case{"herd:keys=256,value_bytes=1536,read_ratio=0.5", 3,
             [] { return herdOracle(1536); }},
        Case{"masstree:keys=4096,scan_ratio=0.3", 6,
             [] { return masstreeOracle(8); }},
        Case{"masstree-get:keys=4096", 16, [] { return masstreeOracle(8); }},
        Case{"masstree-scan:keys=4096,scan_count=4", 6,
             [] { return masstreeOracle(8); }},
        Case{"synthetic", 2, [] { return syntheticOracle(); }},
        Case{"synthetic:dist=gev,padding=100", 2,
             [] { return syntheticOracle(); }},
        Case{"chain", 16, [] { return chainOracle(); }},
        Case{"mix:herd=0.5,masstree-get=0.5", 24,
             [] {
                 return mixOracle({{1, herdOracle(32)},
                                   {1, masstreeOracle(8)}});
             }}),
    [](const ::testing::TestParamInfo<Case> &case_info) {
        std::string name;
        for (const char ch : case_info.param.spec)
            name += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
        return name;
    });

/**
 * Hand-built HERD requests reach the branches generated traffic never
 * does: a DEL, a GET of a missing key, and an op HERD rejects.
 */
TEST(VerifyVerdicts, HerdHandBuiltOps)
{
    HerdApp::Params p;
    p.numKeys = 64;
    HerdApp app(p);
    const Oracle oracle = herdOracle(p.valueBytes);
    sim::Rng server(3);
    RpcRequest del;
    del.op = RpcOp::Del;
    del.key = 5;
    RpcRequest missing;
    missing.op = RpcOp::Get;
    missing.key = 1000;
    RpcRequest echo;
    echo.op = RpcOp::Echo;
    echo.key = 6;
    for (const RpcRequest &r : {del, missing, echo, del}) {
        const Bytes request = encodeRequest(r);
        const Bytes reply = app.handle(request, server).reply;
        EXPECT_TRUE(sameVerdict(app, oracle, request, reply, "intact"));
        Bytes bad = reply;
        for (std::size_t at = 0; at < reply.size(); ++at) {
            for (int v = 0; v < 256; ++v) {
                bad[at] = static_cast<std::uint8_t>(v);
                ASSERT_TRUE(
                    sameVerdict(app, oracle, request, bad, "corrupted"));
            }
            bad[at] = reply[at];
        }
    }
}

} // namespace
