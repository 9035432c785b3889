// Pluggable stores of packed exploration states.
//
// Every state the explorer reaches is one fixed-size byte record (the
// packed encoding built in src/verify/explorer.h: control state ids
// followed by the instance-layout data bytes of the design and, when a
// monitor is attached, the monitor). A store deduplicates records and
// assigns dense ids in interning order — the explorer commits strictly
// in canonical frontier x letter order, so ids are deterministic for
// any worker-thread count, and BFS parent links over these ids yield
// shortest counterexample traces.
//
// Who hashes: every record is hashed exactly once, with hashBytes(), by
// whoever produces it — the explorer's expansion workers hash each
// successor record they write, in parallel, and hand the hash to the
// store. intern(bytes) is the convenience form that hashes first. Both
// store kinds use that one 64-bit hash for everything record-level: its
// index shard, slot and tag (exact), its probe bits (bitstate) and the
// digest fold.
//
// Two implementations live behind the StateStore interface
// (selected by StoreKind / ExplorerOptions::storeKind):
//
//  * ExactStore — the lossless store: records in an rt::RecordArena (no
//    per-state allocation; growth never moves a record) and kShards
//    HashIndex shards over them, picked by the hash's top bits.
//  * BitstateStore — supertrace-style lossy membership: a bit table
//    sized from a byte budget, k independent probe bits per record
//    hash. A hash collision silently merges two distinct states, so a
//    run can only ever report "no violation found", never "verified"
//    — but the memory per state is a few BITS, so the same budget
//    covers orders of magnitude more states. at() throws (records are
//    not retained): the explorer carries frontier records out-of-band.
//
// Two ways in. intern() is the one-call sequential path. The explorer's
// parallel merge splits it into three steps, each with its own
// threading rule: contains() only reads, so any number of threads may
// call it while nothing writes; commit() is the one sequential step —
// it alone assigns ids, folds the digest, flips bitstate bits and
// accounts memoryBytes(); place() and ExactStore::insertIndex() then
// write the committed records and index entries, concurrently for
// distinct ids and distinct shards.
//
// One record rule: a stored record lives in the arena, whose segments
// never move, so the pointer at() returns is valid for the store's
// lifetime, and at() may run on any number of threads while nothing
// commits.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/record_arena.h"
#include "src/support/diagnostics.h"

namespace ecl::verify {

enum class StoreKind {
    Exact,    ///< Hash-interned arena (default; canonical behavior).
    Bitstate, ///< Lossy supertrace bit table (coverage sweeps).
};

/// CLI/JSON name of a store kind ("exact", "bitstate").
const char* storeKindName(StoreKind kind);
/// Parses a store-kind name; returns false on unknown names.
bool parseStoreKind(const std::string& name, StoreKind& out);

/// Open-addressing index from 64-bit record hashes to dense ids — one
/// shard of the exact store's index: power-of-two slot array (64 slots
/// when empty), linear probing, load factor <= 3/4. A slot packs the
/// hash's upper 32 bits (the tag) beside id + 1 (0 = empty), and the
/// home slot is the tag's low bits — so a probe reads a record only on a
/// tag match, and growth re-slots every entry from its tag alone, never
/// touching the records. The shard number is the hash's top bits, so
/// home slots stay independent of it up to 2^26 slots per shard.
class HashIndex {
public:
    HashIndex();

    /// Whether an entry with this hash has a record `same(id)` confirms
    /// equal. Read-only.
    template <class Same>
    [[nodiscard]] bool contains(std::uint64_t hash, Same&& same) const
    {
        const std::uint64_t tag = hash >> 32;
        for (std::size_t s = tag & mask_;; s = (s + 1) & mask_) {
            const std::uint64_t entry = slots_[s];
            if (entry == 0) return false;
            if (entry >> 32 == tag &&
                same(static_cast<std::uint32_t>(entry) - 1))
                return true;
        }
    }

    /// Returns (id, false) for the entry with this hash whose record
    /// `same(id)` confirms equal, else inserts `newId` and returns
    /// (newId, true). The caller stores record `newId` on insertion.
    template <class Same>
    std::pair<std::uint32_t, bool> findOrInsert(std::uint64_t hash,
                                                std::uint32_t newId,
                                                Same&& same)
    {
        if (full()) grow();
        const std::uint64_t tag = hash >> 32;
        for (std::size_t s = tag & mask_;; s = (s + 1) & mask_) {
            const std::uint64_t entry = slots_[s];
            if (entry == 0) {
                slots_[s] = (tag << 32) | (std::uint64_t{newId} + 1);
                ++count_;
                return {newId, true};
            }
            if (entry >> 32 == tag) {
                const auto id = static_cast<std::uint32_t>(entry) - 1;
                if (same(id)) return {id, false};
            }
        }
    }

    /// Adds an entry the caller knows is absent (no record compare).
    void insert(std::uint64_t hash, std::uint32_t id)
    {
        if (full()) grow();
        const std::uint64_t tag = hash >> 32;
        std::size_t s = tag & mask_;
        while (slots_[s] != 0) s = (s + 1) & mask_;
        slots_[s] = (tag << 32) | (std::uint64_t{id} + 1);
        ++count_;
    }

    /// Pulls the home slot of `hash` toward the cache.
    void prefetch(std::uint64_t hash) const
    {
        __builtin_prefetch(&slots_[(hash >> 32) & mask_]);
    }

    [[nodiscard]] std::size_t bytes() const
    {
        return slots_.size() * sizeof(std::uint64_t);
    }

    /// Slot count of an index holding `entries` entries: the growth rule
    /// (double past load 3/4) in closed form, for accounting ahead of
    /// the inserts.
    static std::size_t slotsFor(std::size_t entries)
    {
        return std::max(kInitialSlots, std::bit_ceil((entries * 4 + 2) / 3));
    }

private:
    static constexpr std::size_t kInitialSlots = 64;

    /// One more entry would pass load 3/4 (size_t arithmetic: count_ * 4
    /// would wrap uint32).
    [[nodiscard]] bool full() const
    {
        return (static_cast<std::size_t>(count_) + 1) * 4 > slots_.size() * 3;
    }
    void grow();

    std::vector<std::uint64_t> slots_; ///< tag << 32 | (id + 1); 0 = empty.
    std::size_t mask_ = 0;
    std::uint32_t count_ = 0;
};

class StateStore {
public:
    virtual ~StateStore() = default;

    /// Interns one record of exactly packedSize() bytes whose
    /// hashBytes(bytes, packedSize()) is `hash` — computed by the caller,
    /// typically off the interning thread. Returns (id, isNew); ids are
    /// dense in interning order. A lossy store returns (kNoId, false) for
    /// a record it considers already seen. A hash that does not match
    /// the bytes breaks dedup silently; debug builds check it and throw
    /// EclError.
    std::pair<std::uint32_t, bool> intern(const std::uint8_t* bytes,
                                          std::uint64_t hash)
    {
        checkHash(bytes, hash);
        return insert(bytes, hash);
    }

    /// intern(bytes, hashBytes(bytes, packedSize())).
    std::pair<std::uint32_t, bool> intern(const std::uint8_t* bytes)
    {
        return intern(bytes, hashBytes(bytes, packedSize_));
    }

    /// Read-only: true exactly when intern(bytes, hash) would report the
    /// record as seen (exact: an equal record is stored; bitstate: all
    /// its probe bits are set). Safe from any number of threads while
    /// nothing writes the store.
    [[nodiscard]] virtual bool contains(const std::uint8_t* bytes,
                                        std::uint64_t hash) const = 0;

    /// The sequential step of a split intern: accepts a record with this
    /// hash that contains() reported absent and no other record of the
    /// batch duplicates. Returns its id — dense, in commit order — or
    /// kNoId when a lossy store finds all its probe bits set (a false
    /// positive against an earlier record of the batch). Assigns the id,
    /// folds the digest and accounts memoryBytes() for the record and
    /// its index entry; the bytes follow through place() (and, exact,
    /// the entry through ExactStore::insertIndex()).
    virtual std::uint32_t commit(std::uint64_t hash) = 0;

    /// Writes the bytes of committed record `id`, whose hash was given
    /// to commit() (debug builds re-hash and throw EclError on a
    /// mismatch). Concurrent calls for distinct ids are safe. A lossy
    /// store keeps no records and only checks.
    void place(std::uint32_t id, const std::uint8_t* bytes,
               std::uint64_t hash)
    {
        checkHash(bytes, hash);
        write(id, bytes);
    }

    /// Hint: a record with this hash is about to be probed. Pulls the
    /// memory contains() reads first toward the cache.
    virtual void prefetch(std::uint64_t hash) const = 0;

    /// The stored record `id`, valid for the store's lifetime. Throws
    /// EclError for an id not yet committed, and when lossy() (bitstate
    /// does not retain records).
    [[nodiscard]] virtual const std::uint8_t* at(std::uint32_t id) const = 0;

    /// Bytes held live by the store (record bytes + index tables),
    /// committed records included. The explorer gates exploration on
    /// this against its memory budget.
    [[nodiscard]] virtual std::uint64_t memoryBytes() const = 0;

    [[nodiscard]] virtual StoreKind kind() const = 0;

    /// True when distinct records can silently merge (bitstate): a
    /// clean run means "no violation found", never "verified".
    [[nodiscard]] bool lossy() const { return kind() == StoreKind::Bitstate; }

    [[nodiscard]] std::uint32_t size() const { return count_; }
    [[nodiscard]] std::size_t packedSize() const { return packedSize_; }

    /// Order-sensitive digest over all interned records: each new record
    /// folds its hashBytes() value in at intern time (determinism
    /// fingerprint: equal iff the same records were accepted in the same
    /// order — comparable across store kinds and thread counts).
    [[nodiscard]] std::uint64_t digest() const { return digest_; }

    /// Sentinel id returned by lossy stores for already-seen records.
    static constexpr std::uint32_t kNoId = 0xffffffffu;

    /// Index shards of the exact store: a record's shard is shardOf() of
    /// its hash — the top kShardBits bits, a constant of the hash and
    /// never of the thread count, so the explorer's merge partitions
    /// successors the same way at any thread count.
    static constexpr unsigned kShardBits = 6;
    static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
    static std::size_t shardOf(std::uint64_t hash)
    {
        return static_cast<std::size_t>(hash >> (64 - kShardBits));
    }

    /// The record hash every store kind keys on: 64-bit, word-at-a-time
    /// (four independent multiply-rotate lanes over 32-byte stripes of
    /// native-endian 8-byte words, then the remaining words — the last
    /// one zero-padded — with the length folded in, then a murmur-style
    /// finalizer). Every step is a bijection of the running state and of
    /// the word it consumes, so any change confined to one word — a
    /// single-bit flip included — changes the result.
    static std::uint64_t hashBytes(const std::uint8_t* p, std::size_t n);

    /// Builds a store of the requested kind. `budgetBytes` sizes the
    /// bitstate bit table (0 = its 4 MiB default); the exact store
    /// ignores it (the explorer enforces the budget against
    /// memoryBytes() instead).
    static std::unique_ptr<StateStore> make(StoreKind kind,
                                            std::size_t packedSize,
                                            std::uint64_t budgetBytes = 0);

protected:
    explicit StateStore(std::size_t packedSize);

    /// The store-kind insertion behind intern(): `hash` is trusted.
    virtual std::pair<std::uint32_t, bool>
    insert(const std::uint8_t* bytes, std::uint64_t hash) = 0;

    /// The store-kind write behind place().
    virtual void write(std::uint32_t id, const std::uint8_t* bytes) = 0;

    /// Folds a newly-accepted record's hash into the digest. Every
    /// implementation calls this exactly once per new id.
    void noteNewRecord(std::uint64_t hash);

    std::size_t packedSize_;
    std::uint32_t count_ = 0;

private:
    /// Debug builds: throws EclError unless `hash` is the bytes' hash.
    void checkHash(const std::uint8_t* bytes, std::uint64_t hash) const;

    std::uint64_t digest_ = 0x9e3779b97f4a7c15ull;
};

/// The lossless hash-interned arena store.
class ExactStore final : public StateStore {
public:
    /// All records have exactly `packedSize` bytes (> 0).
    explicit ExactStore(std::size_t packedSize);

    [[nodiscard]] bool contains(const std::uint8_t* bytes,
                                std::uint64_t hash) const override;
    std::uint32_t commit(std::uint64_t hash) override;

    /// Enters committed record `id` into its index shard. Concurrent
    /// calls are safe for hashes of distinct shards (shardOf()).
    void insertIndex(std::uint64_t hash, std::uint32_t id)
    {
        shards_[shardOf(hash)].index.insert(hash, id);
    }

    void prefetch(std::uint64_t hash) const override
    {
        shards_[shardOf(hash)].index.prefetch(hash);
    }
    [[nodiscard]] const std::uint8_t* at(std::uint32_t id) const override
    {
        if (id >= count_) throw EclError("StateStore::at: id out of range");
        return records_.at(id);
    }
    [[nodiscard]] std::uint64_t memoryBytes() const override;
    [[nodiscard]] StoreKind kind() const override { return StoreKind::Exact; }

    /// Records per arena segment (a power of two, ~1 MiB of records).
    [[nodiscard]] std::uint32_t recordsPerSegment() const
    {
        return records_.recordsPerSegment();
    }

private:
    /// One index shard, with the entries committed to it (ahead of the
    /// index itself between commit() and insertIndex()).
    struct Shard {
        HashIndex index;
        std::uint32_t entries = 0;
    };

    std::pair<std::uint32_t, bool> insert(const std::uint8_t* bytes,
                                          std::uint64_t hash) override;
    void write(std::uint32_t id, const std::uint8_t* bytes) override;

    rt::RecordArena records_; ///< Record id at index id.
    std::array<Shard, kShards> shards_;
    /// Sum of HashIndex::slotsFor(entries) over the shards, in bytes.
    std::uint64_t indexBytes_ = 0;
};

/// Supertrace-style lossy bit table: a few probe bits per state hash.
class BitstateStore final : public StateStore {
public:
    /// Table sized to the largest power-of-two byte count within
    /// `budgetBytes` (64 bytes to 2^60; 0 = 4 MiB default).
    BitstateStore(std::size_t packedSize, std::uint64_t budgetBytes);

    [[nodiscard]] bool contains(const std::uint8_t* bytes,
                                std::uint64_t hash) const override;
    std::uint32_t commit(std::uint64_t hash) override;
    void prefetch(std::uint64_t hash) const override;
    /// Always throws: records are not retained.
    [[nodiscard]] const std::uint8_t* at(std::uint32_t id) const override;
    [[nodiscard]] std::uint64_t memoryBytes() const override;
    [[nodiscard]] StoreKind kind() const override
    {
        return StoreKind::Bitstate;
    }

    /// Fraction of table bits set (coverage-saturation diagnostic).
    [[nodiscard]] double fillRatio() const;

private:
    struct Probes;

    std::pair<std::uint32_t, bool> insert(const std::uint8_t* bytes,
                                          std::uint64_t hash) override;
    void write(std::uint32_t, const std::uint8_t*) override {}
    [[nodiscard]] bool allSet(const Probes& probes) const;

    std::vector<std::uint64_t> bits_;
    std::uint64_t bitMask_ = 0;
};

} // namespace ecl::verify
