/**
 * @file
 * Separate-chaining hash table: the in-memory store behind the
 * HERD-like key-value tier (§5 evaluates HERD [27], a KV store built
 * on one-sided RDMA; the data structure itself is a bucketed hash
 * table). Implemented from scratch so the substrate is real, testable
 * code rather than a std::unordered_map alias.
 */

#ifndef RPCVALET_APP_HASH_TABLE_HH
#define RPCVALET_APP_HASH_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpcvalet::app {

/** Fixed-key (u64) hash table with byte-vector values. */
class HashTable
{
  public:
    /** @param initial_buckets Starting bucket count (rounded to pow2). */
    explicit HashTable(std::size_t initial_buckets = 1024);

    /** Insert or overwrite; returns true if the key was new. */
    bool put(std::uint64_t key, std::vector<std::uint8_t> value);

    /**
     * Insert or overwrite with a copy of the @p size bytes at @p data.
     * An existing value is overwritten in place, reusing its buffer;
     * returns true if the key was new.
     */
    bool put(std::uint64_t key, const std::uint8_t *data, std::size_t size);

    /**
     * Lookup without copying: the stored value, or null if absent. The
     * pointer is valid until the key is next written or erased.
     */
    const std::vector<std::uint8_t> *find(std::uint64_t key) const;

    /** Remove; returns true if the key existed. */
    bool erase(std::uint64_t key);

    /** Whether the key is present. */
    bool contains(std::uint64_t key) const;

    /** Number of stored keys. */
    std::size_t size() const { return size_; }

    /** Current bucket count. */
    std::size_t buckets() const { return buckets_.size(); }

    /** Entries per bucket on average. */
    double loadFactor() const;

    /** Length of the longest chain (diagnostics / tests). */
    std::size_t maxChainLength() const;

  private:
    struct Node
    {
        std::uint64_t key;
        std::vector<std::uint8_t> value;
        Node *next;
    };

    std::size_t bucketFor(std::uint64_t key, std::size_t nbuckets) const;
    /** The node holding @p key, or null. */
    Node *findNode(std::uint64_t key) const;
    void maybeGrow();
    static std::uint64_t mix(std::uint64_t key);

    std::vector<Node *> buckets_;
    std::size_t size_ = 0;

  public:
    HashTable(const HashTable &) = delete;
    HashTable &operator=(const HashTable &) = delete;
    ~HashTable();
};

} // namespace rpcvalet::app

#endif // RPCVALET_APP_HASH_TABLE_HH
