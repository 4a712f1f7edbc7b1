/**
 * @file
 * Property/fuzz tests for the wire-format codec: random structured
 * inputs round-trip exactly; random unstructured bytes either parse
 * or are rejected, but never misbehave. Decoded values are views into
 * the decoded bytes, which every test keeps alive while it reads them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "app/wire_format.hh"
#include "sim/rng.hh"

namespace {

using namespace rpcvalet;
using namespace rpcvalet::app;

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CodecFuzz, RandomRequestsRoundTrip)
{
    sim::Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        RpcRequest req;
        req.op = static_cast<RpcOp>(rng.uniformInt(0, 4));
        req.key = rng.next();
        req.count = static_cast<std::uint32_t>(rng.uniformInt(0, 1000));
        std::vector<std::uint8_t> value(rng.uniformInt(0, 300));
        for (auto &b : value)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        req.value = value;

        const auto bytes = encodeRequest(req);
        const auto back = decodeRequest(bytes);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->op, req.op);
        EXPECT_EQ(back->key, req.key);
        EXPECT_EQ(back->count, req.count);
        EXPECT_EQ(back->value, value);
    }
}

TEST_P(CodecFuzz, RandomRepliesRoundTrip)
{
    sim::Rng rng(GetParam() ^ 0xABCD);
    for (int i = 0; i < 2000; ++i) {
        RpcReply reply;
        reply.status = static_cast<RpcStatus>(rng.uniformInt(0, 2));
        std::vector<std::uint8_t> value(rng.uniformInt(0, 600));
        for (auto &b : value)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        reply.value = value;

        const auto bytes = encodeReply(reply);
        const auto back = decodeReply(bytes);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->status, reply.status);
        EXPECT_EQ(back->value, value);
    }
}

TEST_P(CodecFuzz, ArbitraryBytesNeverCrashDecoder)
{
    sim::Rng rng(GetParam() ^ 0x5EED);
    for (int i = 0; i < 5000; ++i) {
        std::vector<std::uint8_t> junk(rng.uniformInt(0, 64));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        // Must either parse consistently or reject; asserted by not
        // crashing and by re-encoding parsed values losslessly.
        if (const auto req = decodeRequest(junk); req.has_value()) {
            const auto re = encodeRequest(*req);
            const auto again = decodeRequest(re);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->key, req->key);
        }
        if (const auto rep = decodeReply(junk); rep.has_value()) {
            const auto re = encodeReply(*rep);
            EXPECT_TRUE(decodeReply(re).has_value());
        }
    }
}

TEST_P(CodecFuzz, TruncationAtEveryPointRejectsOrParses)
{
    sim::Rng rng(GetParam() ^ 0x77);
    RpcRequest req;
    req.op = RpcOp::Put;
    req.key = rng.next();
    const std::vector<std::uint8_t> value(50, 0xAB);
    req.value = value;
    const auto full = encodeRequest(req);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        std::vector<std::uint8_t> prefix(full.begin(),
                                         full.begin() +
                                             static_cast<long>(cut));
        // A strict prefix must never decode to the original request
        // (the vlen field guards the value bytes).
        const auto back = decodeRequest(prefix);
        if (back.has_value()) {
            EXPECT_NE(back->value, value);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1u, 42u, 0xDEADBEEFu));

} // namespace
