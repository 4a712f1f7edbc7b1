/**
 * @file
 * Open-addressing hash table: the in-memory store behind the HERD-like
 * key-value tier (§5 evaluates HERD [27], a KV store built on one-sided
 * RDMA; the data structure itself is a bucketed hash table).
 * Implemented from scratch so the substrate is real, testable code
 * rather than a std::unordered_map alias.
 *
 * Layout:
 *  - Slots: a power-of-two array of 24 B {key, value pointer, len, cap}
 *    records, probed linearly from the key's splitmix64 home slot. The
 *    array doubles before an insert would take the load past 0.5, and
 *    erase shifts the rest of the cluster back, so there are no
 *    tombstones.
 *  - Values: bytes in 64 KiB blocks the table owns, carved from the
 *    tail of the newest block; a value never spans two blocks (one
 *    larger than a block gets a block of its own). An overwrite that
 *    fits the value's capacity is copied in place; a larger one takes
 *    new space at the tail. Space left behind by a relocation or an
 *    erase is reclaimed only when the table is destroyed.
 *
 * View validity: find() returns a non-owning view of the stored bytes.
 * It stays valid until that key is next written or erased (or the table
 * is destroyed). Slot growth and writes to other keys never move a
 * value.
 */

#ifndef RPCVALET_APP_HASH_TABLE_HH
#define RPCVALET_APP_HASH_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "app/wire_format.hh"

namespace rpcvalet::app {

/** Fixed-key (u64) hash table with byte-string values. */
class HashTable
{
  public:
    /** Bytes per value block. */
    static constexpr std::size_t blockBytes = 64 * 1024;

    /** @param initial_slots Starting slot count (rounded to pow2). */
    explicit HashTable(std::size_t initial_slots = 1024);

    /**
     * Insert or overwrite with a copy of the @p size bytes at @p data;
     * returns true if the key was new.
     */
    bool put(std::uint64_t key, const std::uint8_t *data, std::size_t size);

    /**
     * Lookup without copying: a view of the stored value, or nullopt if
     * absent. The view is valid until the key is next written or erased.
     */
    std::optional<ByteView> find(std::uint64_t key) const;

    /** Remove; returns true if the key existed. */
    bool erase(std::uint64_t key);

    /** Whether the key is present. */
    bool contains(std::uint64_t key) const;

    /** Number of stored keys. */
    std::size_t size() const { return size_; }

    /** Current slot count. */
    std::size_t slots() const { return slots_.size(); }

    /** Stored keys per slot. */
    double loadFactor() const;

    /**
     * The most slots any stored key's lookup inspects, its home slot
     * included (diagnostics / tests).
     */
    std::size_t maxProbeLength() const;

    HashTable(const HashTable &) = delete;
    HashTable &operator=(const HashTable &) = delete;

  private:
    /** A free slot has a null value; a stored empty value does not. */
    struct Slot
    {
        std::uint64_t key;
        std::uint8_t *value;
        std::uint32_t len;
        std::uint32_t cap;
    };

    std::size_t homeOf(std::uint64_t key) const;
    /** The slot holding @p key, or the free slot that ends its probe. */
    std::size_t probe(std::uint64_t key) const;
    /** @p size bytes of value space that never move. */
    std::uint8_t *allocate(std::size_t size);
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
    /** Unused tail of the newest block. */
    std::uint8_t *tail_ = nullptr;
    std::size_t tailLeft_ = 0;
};

} // namespace rpcvalet::app

#endif // RPCVALET_APP_HASH_TABLE_HH
