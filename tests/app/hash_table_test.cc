/**
 * @file
 * Unit and property tests for the open-addressing hash table.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "app/hash_table.hh"
#include "sim/rng.hh"

namespace {

using rpcvalet::app::ByteView;
using rpcvalet::app::HashTable;

std::vector<std::uint8_t>
val(std::uint8_t b)
{
    return std::vector<std::uint8_t>{b, b, b};
}

bool
put(HashTable &t, std::uint64_t key, const std::vector<std::uint8_t> &v)
{
    return t.put(key, v.data(), v.size());
}

/** The stored bytes of @p key as an owning copy (empty if absent). */
std::vector<std::uint8_t>
bytesOf(const HashTable &t, std::uint64_t key)
{
    const auto got = t.find(key);
    return got ? std::vector<std::uint8_t>(got->begin(), got->end())
               : std::vector<std::uint8_t>{};
}

/**
 * @p count keys that share one home slot in a table of @p slots
 * slots, found by trying keys in order: a forced collision cluster.
 */
std::vector<std::uint64_t>
keysSharingAHome(std::size_t count, std::size_t slots)
{
    // The table's hash is splitmix64; reproduce the home slot here.
    auto home = [slots](std::uint64_t key) {
        key += 0x9e3779b97f4a7c15ULL;
        key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
        key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(key ^ (key >> 31)) & (slots - 1);
    };
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; keys.size() < count; ++k) {
        if (home(k) == 5)
            keys.push_back(k);
    }
    return keys;
}

TEST(HashTable, PutGetRoundTrip)
{
    HashTable t;
    EXPECT_TRUE(put(t, 42, val(1)));
    const auto got = t.find(42);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(std::vector<std::uint8_t>(got->begin(), got->end()), val(1));
}

TEST(HashTable, MissingKeyReturnsNullopt)
{
    HashTable t;
    put(t, 1, val(1));
    EXPECT_FALSE(t.find(2).has_value());
    EXPECT_FALSE(t.contains(2));
}

TEST(HashTable, OverwriteKeepsSingleEntry)
{
    HashTable t;
    EXPECT_TRUE(put(t, 5, val(1)));
    EXPECT_FALSE(put(t, 5, val(2))); // overwrite returns false
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(bytesOf(t, 5), val(2));
}

TEST(HashTable, EraseRemovesKey)
{
    HashTable t;
    put(t, 9, val(1));
    EXPECT_TRUE(t.erase(9));
    EXPECT_FALSE(t.contains(9));
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.erase(9));
}

TEST(HashTable, GrowsUnderLoad)
{
    HashTable t(8);
    const std::size_t initial = t.slots();
    for (std::uint64_t k = 0; k < 1000; ++k)
        put(t, k, val(static_cast<std::uint8_t>(k)));
    EXPECT_GT(t.slots(), initial);
    EXPECT_LE(t.loadFactor(), 0.5);
    // All keys survive the rehashes.
    for (std::uint64_t k = 0; k < 1000; ++k) {
        ASSERT_TRUE(t.contains(k)) << "key " << k;
        EXPECT_EQ(bytesOf(t, k), val(static_cast<std::uint8_t>(k)));
    }
}

TEST(HashTable, ProbesStayShortWithGoodHash)
{
    HashTable t;
    for (std::uint64_t k = 0; k < 20000; ++k)
        put(t, k * 64, val(1)); // adversarial stride
    EXPECT_LT(t.maxProbeLength(), 12u);
}

TEST(HashTable, AdversarialCollidingKeysStillCorrect)
{
    HashTable t(8);
    // Keys differing only in high bits stress the mixer.
    for (std::uint64_t k = 0; k < 256; ++k)
        put(t, k << 48, val(static_cast<std::uint8_t>(k)));
    for (std::uint64_t k = 0; k < 256; ++k)
        EXPECT_EQ(bytesOf(t, k << 48), val(static_cast<std::uint8_t>(k)));
}

TEST(HashTable, MatchesReferenceMapUnderRandomOps)
{
    // Property test: random put/get/erase mirror a std::map oracle.
    // Values vary in length, so overwrites both fit in place and
    // relocate.
    HashTable t;
    std::map<std::uint64_t, std::vector<std::uint8_t>> oracle;
    rpcvalet::sim::Rng rng(99);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t key = rng.uniformInt(0, 499);
        const int op = static_cast<int>(rng.uniformInt(0, 2));
        if (op == 0) {
            const std::vector<std::uint8_t> v(
                static_cast<std::size_t>(i % 7),
                static_cast<std::uint8_t>(i));
            EXPECT_EQ(put(t, key, v), oracle.count(key) == 0);
            oracle[key] = v;
        } else if (op == 1) {
            const auto got = t.find(key);
            const auto ref = oracle.find(key);
            if (ref == oracle.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, ByteView(ref->second));
            }
        } else {
            EXPECT_EQ(t.erase(key), oracle.erase(key) > 0);
        }
        ASSERT_EQ(t.size(), oracle.size());
    }
}

TEST(HashTable, EraseInsideACollisionClusterKeepsTheRest)
{
    // Every key has the same home slot, so each erase from the middle
    // of the cluster must shift the keys behind it back.
    HashTable t(64);
    const std::vector<std::uint64_t> keys = keysSharingAHome(20, 64);
    std::map<std::uint64_t, std::vector<std::uint8_t>> oracle;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto v = val(static_cast<std::uint8_t>(i));
        put(t, keys[i], v);
        oracle[keys[i]] = v;
    }
    ASSERT_EQ(t.slots(), 64u);
    EXPECT_EQ(t.maxProbeLength(), keys.size());
    for (const std::size_t victim : {10u, 3u, 17u, 0u, 19u, 9u}) {
        ASSERT_TRUE(t.erase(keys[victim]));
        oracle.erase(keys[victim]);
        ASSERT_EQ(t.size(), oracle.size());
        for (const std::uint64_t key : keys) {
            const auto ref = oracle.find(key);
            if (ref == oracle.end()) {
                EXPECT_FALSE(t.contains(key)) << "key " << key;
            } else {
                EXPECT_EQ(bytesOf(t, key), ref->second) << "key " << key;
            }
        }
        // No hole is left inside the cluster.
        EXPECT_EQ(t.maxProbeLength(), oracle.size());
    }
}

TEST(HashTable, ValueViewsSurviveSlotGrowth)
{
    HashTable t(8);
    const std::vector<std::uint8_t> v(100, 7);
    put(t, 1, v);
    const auto before = t.find(1);
    ASSERT_TRUE(before.has_value());
    const std::size_t initial = t.slots();
    for (std::uint64_t k = 2; k < 5000; ++k)
        put(t, k, val(static_cast<std::uint8_t>(k)));
    ASSERT_GT(t.slots(), initial);
    // The old view still reads the same bytes at the same address.
    EXPECT_EQ(*before, ByteView(v));
    EXPECT_EQ(t.find(1)->data(), before->data());
}

TEST(HashTable, LargerOverwriteRelocatesTheValue)
{
    HashTable t;
    const std::vector<std::uint8_t> small(16, 1);
    std::vector<std::uint8_t> large(3 * HashTable::blockBytes / 2);
    for (std::size_t i = 0; i < large.size(); ++i)
        large[i] = static_cast<std::uint8_t>(i * 7);
    put(t, 3, small);
    put(t, 4, small);
    // Past the value's capacity: new space at the block tail, then a
    // block of its own for a value bigger than a block.
    const std::uint8_t *old_place = t.find(3)->data();
    const std::vector<std::uint8_t> medium(64, 9);
    EXPECT_FALSE(put(t, 3, medium));
    EXPECT_NE(t.find(3)->data(), old_place);
    EXPECT_EQ(bytesOf(t, 3), medium);
    old_place = t.find(3)->data();
    EXPECT_FALSE(put(t, 3, large));
    EXPECT_NE(t.find(3)->data(), old_place);
    EXPECT_EQ(bytesOf(t, 3), large);
    // Shrinking again fits the new space: in place.
    const std::uint8_t *new_place = t.find(3)->data();
    EXPECT_FALSE(put(t, 3, small));
    EXPECT_EQ(t.find(3)->data(), new_place);
    EXPECT_EQ(bytesOf(t, 3), small);
    // The neighbour is untouched throughout.
    EXPECT_EQ(bytesOf(t, 4), small);
}

TEST(HashTable, EmptyValueSupported)
{
    HashTable t;
    t.put(1, nullptr, 0);
    const auto got = t.find(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->empty());
}

TEST(HashTable, EmptyValueIsDistinctFromAbsentKey)
{
    HashTable t;
    EXPECT_TRUE(t.put(1, nullptr, 0));
    EXPECT_TRUE(t.contains(1));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_FALSE(t.contains(2));
    EXPECT_FALSE(t.find(2).has_value());
    // Overwriting with an empty value keeps the key; erasing drops it.
    put(t, 2, val(4));
    EXPECT_FALSE(t.put(2, nullptr, 0));
    ASSERT_TRUE(t.find(2).has_value());
    EXPECT_TRUE(t.find(2)->empty());
    EXPECT_TRUE(t.erase(1));
    EXPECT_FALSE(t.find(1).has_value());
}

TEST(HashTable, RangePutOverwritesInPlace)
{
    HashTable t;
    const std::vector<std::uint8_t> first(32, 1);
    const std::vector<std::uint8_t> second(32, 2);
    EXPECT_TRUE(t.put(7, first.data(), first.size()));
    const auto stored = t.find(7);
    ASSERT_TRUE(stored.has_value());
    // Same-size overwrite: same bytes in memory, new contents; the old
    // view sees them.
    EXPECT_FALSE(t.put(7, second.data(), second.size()));
    EXPECT_EQ(t.find(7)->data(), stored->data());
    EXPECT_EQ(*stored, ByteView(second));
    EXPECT_EQ(t.size(), 1u);
}

} // namespace
