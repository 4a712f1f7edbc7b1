/**
 * @file
 * Unit and property tests for the separate-chaining hash table.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "app/hash_table.hh"
#include "sim/rng.hh"

namespace {

using rpcvalet::app::HashTable;

std::vector<std::uint8_t>
val(std::uint8_t b)
{
    return std::vector<std::uint8_t>{b, b, b};
}

TEST(HashTable, PutGetRoundTrip)
{
    HashTable t;
    EXPECT_TRUE(t.put(42, val(1)));
    const auto *got = t.find(42);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, val(1));
}

TEST(HashTable, MissingKeyReturnsNullopt)
{
    HashTable t;
    t.put(1, val(1));
    EXPECT_EQ(t.find(2), nullptr);
    EXPECT_FALSE(t.contains(2));
}

TEST(HashTable, OverwriteKeepsSingleEntry)
{
    HashTable t;
    EXPECT_TRUE(t.put(5, val(1)));
    EXPECT_FALSE(t.put(5, val(2))); // overwrite returns false
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(*t.find(5), val(2));
}

TEST(HashTable, EraseRemovesKey)
{
    HashTable t;
    t.put(9, val(1));
    EXPECT_TRUE(t.erase(9));
    EXPECT_FALSE(t.contains(9));
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.erase(9));
}

TEST(HashTable, GrowsUnderLoad)
{
    HashTable t(8);
    const std::size_t initial = t.buckets();
    for (std::uint64_t k = 0; k < 1000; ++k)
        t.put(k, val(static_cast<std::uint8_t>(k)));
    EXPECT_GT(t.buckets(), initial);
    EXPECT_LT(t.loadFactor(), 0.76);
    // All keys survive the rehashes.
    for (std::uint64_t k = 0; k < 1000; ++k) {
        ASSERT_TRUE(t.contains(k)) << "key " << k;
        EXPECT_EQ(*t.find(k), val(static_cast<std::uint8_t>(k)));
    }
}

TEST(HashTable, ChainsStayShortWithGoodHash)
{
    HashTable t;
    for (std::uint64_t k = 0; k < 20000; ++k)
        t.put(k * 64, val(1)); // adversarial stride
    EXPECT_LT(t.maxChainLength(), 12u);
}

TEST(HashTable, AdversarialCollidingKeysStillCorrect)
{
    HashTable t(8);
    // Keys differing only in high bits stress the mixer.
    for (std::uint64_t k = 0; k < 256; ++k)
        t.put(k << 48, val(static_cast<std::uint8_t>(k)));
    for (std::uint64_t k = 0; k < 256; ++k)
        EXPECT_EQ(*t.find(k << 48), val(static_cast<std::uint8_t>(k)));
}

TEST(HashTable, MatchesReferenceMapUnderRandomOps)
{
    // Property test: random put/get/erase mirror a std::map oracle.
    HashTable t;
    std::map<std::uint64_t, std::vector<std::uint8_t>> oracle;
    rpcvalet::sim::Rng rng(99);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t key = rng.uniformInt(0, 499);
        const int op = static_cast<int>(rng.uniformInt(0, 2));
        if (op == 0) {
            // Alternate the two writers: by-value insert/overwrite and
            // the in-place copy from a byte range.
            auto v = val(static_cast<std::uint8_t>(i));
            if (i % 2 == 0)
                t.put(key, v);
            else
                t.put(key, v.data(), v.size());
            oracle[key] = v;
        } else if (op == 1) {
            const auto *got = t.find(key);
            const auto ref = oracle.find(key);
            if (ref == oracle.end()) {
                EXPECT_EQ(got, nullptr);
            } else {
                ASSERT_NE(got, nullptr);
                EXPECT_EQ(*got, ref->second);
            }
        } else {
            EXPECT_EQ(t.erase(key), oracle.erase(key) > 0);
        }
        ASSERT_EQ(t.size(), oracle.size());
    }
}

TEST(HashTable, EmptyValueSupported)
{
    HashTable t;
    t.put(1, {});
    const auto *got = t.find(1);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(got->empty());
}

TEST(HashTable, RangePutOverwritesInPlace)
{
    HashTable t;
    const std::vector<std::uint8_t> first(32, 1);
    const std::vector<std::uint8_t> second(32, 2);
    EXPECT_TRUE(t.put(7, first.data(), first.size()));
    const std::vector<std::uint8_t> *stored = t.find(7);
    ASSERT_NE(stored, nullptr);
    const std::uint8_t *buffer = stored->data();
    // Same-size overwrite: same node, same buffer, new bytes.
    EXPECT_FALSE(t.put(7, second.data(), second.size()));
    EXPECT_EQ(t.find(7), stored);
    EXPECT_EQ(stored->data(), buffer);
    EXPECT_EQ(*stored, second);
    EXPECT_EQ(t.size(), 1u);
}

} // namespace
