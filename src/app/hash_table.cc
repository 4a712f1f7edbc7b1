#include "app/hash_table.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace rpcvalet::app {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** Where every stored empty value points: never read or written. */
std::uint8_t emptyValue;

} // namespace

HashTable::HashTable(std::size_t initial_slots)
    : slots_(roundUpPow2(std::max<std::size_t>(initial_slots, 8)), Slot{})
{
    static_assert(sizeof(Slot) == 24, "slots are 24 B");
}

std::size_t
HashTable::homeOf(std::uint64_t key) const
{
    return static_cast<std::size_t>(sim::mix64(key)) & (slots_.size() - 1);
}

std::size_t
HashTable::probe(std::uint64_t key) const
{
    // The load stays at or below 0.5, so a free slot always ends the
    // scan.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = homeOf(key);
    while (slots_[i].value != nullptr && slots_[i].key != key)
        i = (i + 1) & mask;
    return i;
}

std::uint8_t *
HashTable::allocate(std::size_t size)
{
    if (size == 0)
        return &emptyValue;
    if (size > blockBytes) {
        // Too big for a shared block: a block of its own, and the
        // current tail stays open.
        blocks_.emplace_back(new std::uint8_t[size]);
        return blocks_.back().get();
    }
    if (size > tailLeft_) {
        blocks_.emplace_back(new std::uint8_t[blockBytes]);
        tail_ = blocks_.back().get();
        tailLeft_ = blockBytes;
    }
    std::uint8_t *out = tail_;
    tail_ += size;
    tailLeft_ -= size;
    return out;
}

bool
HashTable::put(std::uint64_t key, const std::uint8_t *data,
               std::size_t size)
{
    RV_ASSERT(size <= std::numeric_limits<std::uint32_t>::max(),
              "hash table value too large");
    const auto bytes = static_cast<std::uint32_t>(size);
    std::size_t i = probe(key);
    const bool fresh = slots_[i].value == nullptr;
    if (fresh) {
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            i = probe(key);
        }
        slots_[i] = Slot{key, allocate(size), 0, bytes};
        ++size_;
    } else if (bytes > slots_[i].cap) {
        slots_[i].value = allocate(size);
        slots_[i].cap = bytes;
    }
    Slot &slot = slots_[i];
    // memmove: the source may be this key's own stored bytes.
    if (size != 0)
        std::memmove(slot.value, data, size);
    slot.len = bytes;
    return fresh;
}

std::optional<ByteView>
HashTable::find(std::uint64_t key) const
{
    const Slot &slot = slots_[probe(key)];
    if (slot.value == nullptr)
        return std::nullopt;
    return ByteView(slot.value, slot.len);
}

bool
HashTable::contains(std::uint64_t key) const
{
    return slots_[probe(key)].value != nullptr;
}

bool
HashTable::erase(std::uint64_t key)
{
    std::size_t hole = probe(key);
    if (slots_[hole].value == nullptr)
        return false;
    // Backward-shift deletion: walk the rest of the cluster and move
    // back every entry whose probe path crosses the hole.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].value != nullptr;
         j = (j + 1) & mask) {
        const std::size_t home = homeOf(slots_[j].key);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
}

double
HashTable::loadFactor() const
{
    return static_cast<double>(size_) / static_cast<double>(slots_.size());
}

std::size_t
HashTable::maxProbeLength() const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t longest = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].value != nullptr) {
            longest = std::max(longest,
                               ((i - homeOf(slots_[i].key)) & mask) + 1);
        }
    }
    return longest;
}

void
HashTable::grow()
{
    // Values stay where they are; only the slot records move.
    std::vector<Slot> old(slots_.size() * 2, Slot{});
    old.swap(slots_);
    for (const Slot &slot : old) {
        if (slot.value != nullptr)
            slots_[probe(slot.key)] = slot;
    }
}

} // namespace rpcvalet::app
