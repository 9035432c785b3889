#include "src/verify/state_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ecl::verify {

namespace {
constexpr std::uint64_t kDefaultBitstateBytes = 1ull << 22; // 4 MiB
/// The largest bit table: its 2^63 bits still fit a 64-bit count.
constexpr std::uint64_t kMaxBitstateBytes = 1ull << 60;

// Odd 64-bit mixing constants (the xxHash64 primes).
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;

std::uint64_t load64(const std::uint8_t* p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// One lane step: a bijection of `lane` for a fixed word and of `word`
/// for a fixed lane (odd multipliers, rotations and additions only).
std::uint64_t mixWord(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * kP2, 31) * kP1;
}

/// Folds one word into the running hash; bijective in both, like
/// mixWord.
std::uint64_t foldWord(std::uint64_t h, std::uint64_t word)
{
    return std::rotl(h ^ mixWord(0, word), 27) * kP1 + kP4;
}

/// splitmix64 finalizer: derives independent probe hashes from one
/// record hash (bitstate probes must not be linearly related or the
/// probes collide together and the effective filter degrades to one
/// bit per state).
std::uint64_t remix(std::uint64_t h)
{
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}
} // namespace

// ---------------------------------------------------------------------------
// HashIndex
// ---------------------------------------------------------------------------

HashIndex::HashIndex() : slots_(kInitialSlots, 0), mask_(kInitialSlots - 1) {}

void HashIndex::grow()
{
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (std::uint64_t entry : old) {
        if (entry == 0) continue;
        std::size_t s = (entry >> 32) & mask_;
        while (slots_[s] != 0) s = (s + 1) & mask_;
        slots_[s] = entry;
    }
}

// ---------------------------------------------------------------------------
// StateStore base
// ---------------------------------------------------------------------------

const char* storeKindName(StoreKind kind)
{
    switch (kind) {
    case StoreKind::Exact: return "exact";
    case StoreKind::Bitstate: return "bitstate";
    }
    return "?";
}

bool parseStoreKind(const std::string& name, StoreKind& out)
{
    if (name == "exact") out = StoreKind::Exact;
    else if (name == "bitstate") out = StoreKind::Bitstate;
    else return false;
    return true;
}

StateStore::StateStore(std::size_t packedSize) : packedSize_(packedSize)
{
    if (packedSize_ == 0)
        throw EclError("StateStore: packed state size must be non-zero");
}

std::uint64_t StateStore::hashBytes(const std::uint8_t* p, std::size_t n)
{
    // Four lanes over 32-byte stripes keep four multiply chains in
    // flight; a 181-byte record costs ~11 dependent steps where a
    // byte-serial hash costs 181. The result is stable for a given
    // byte order (the digest is a determinism fingerprint, compared
    // within one host).
    std::uint64_t a = kP1 + kP2, b = kP2, c = 0, d = 0 - kP1;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        a = mixWord(a, load64(p + i));
        b = mixWord(b, load64(p + i + 8));
        c = mixWord(c, load64(p + i + 16));
        d = mixWord(d, load64(p + i + 24));
    }
    std::uint64_t h = std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) +
                      std::rotl(d, 18) + n;
    for (; i + 8 <= n; i += 8) h = foldWord(h, load64(p + i));
    if (i < n) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, p + i, n - i);
        h = foldWord(h, tail);
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

void StateStore::checkHash([[maybe_unused]] const std::uint8_t* bytes,
                           [[maybe_unused]] std::uint64_t hash) const
{
#ifndef NDEBUG
    if (hash != hashBytes(bytes, packedSize_))
        throw EclError("StateStore: hash does not match the record bytes");
#endif
}

void StateStore::noteNewRecord(std::uint64_t hash)
{
    digest_ = digest_ * 0x100000001b3ull ^ hash;
}

std::unique_ptr<StateStore> StateStore::make(StoreKind kind,
                                             std::size_t packedSize,
                                             std::uint64_t budgetBytes)
{
    switch (kind) {
    case StoreKind::Exact:
        return std::make_unique<ExactStore>(packedSize);
    case StoreKind::Bitstate:
        return std::make_unique<BitstateStore>(packedSize, budgetBytes);
    }
    throw EclError("StateStore::make: unknown store kind");
}

// ---------------------------------------------------------------------------
// ExactStore
// ---------------------------------------------------------------------------

ExactStore::ExactStore(std::size_t packedSize)
    : StateStore(packedSize), records_(packedSize_),
      indexBytes_(kShards * HashIndex::slotsFor(0) * sizeof(std::uint64_t))
{
}

bool ExactStore::contains(const std::uint8_t* bytes, std::uint64_t hash) const
{
    return shards_[shardOf(hash)].index.contains(hash, [&](std::uint32_t id) {
        return std::memcmp(records_.at(id), bytes, packedSize_) == 0;
    });
}

std::uint32_t ExactStore::commit(std::uint64_t hash)
{
    Shard& sh = shards_[shardOf(hash)];
    indexBytes_ += (HashIndex::slotsFor(sh.entries + 1) -
                    HashIndex::slotsFor(sh.entries)) *
                   sizeof(std::uint64_t);
    ++sh.entries;
    records_.push(); // written by place()
    noteNewRecord(hash);
    return count_++;
}

std::pair<std::uint32_t, bool> ExactStore::insert(const std::uint8_t* bytes,
                                                  std::uint64_t hash)
{
    auto res = shards_[shardOf(hash)].index.findOrInsert(
        hash, count_, [&](std::uint32_t id) {
            return std::memcmp(records_.at(id), bytes, packedSize_) == 0;
        });
    if (res.second) write(commit(hash), bytes);
    return res;
}

void ExactStore::write(std::uint32_t id, const std::uint8_t* bytes)
{
    std::memcpy(records_.at(id), bytes, packedSize_);
}

std::uint64_t ExactStore::memoryBytes() const
{
    return static_cast<std::uint64_t>(count_) * packedSize_ + indexBytes_;
}

// ---------------------------------------------------------------------------
// BitstateStore
// ---------------------------------------------------------------------------

/// The three supertrace probe bits of one record hash.
struct BitstateStore::Probes {
    std::uint64_t bit[3];

    Probes(std::uint64_t h, std::uint64_t mask)
    {
        const std::uint64_t h2 = remix(h);
        bit[0] = h & mask;
        bit[1] = h2 & mask;
        bit[2] = remix(h2) & mask;
    }
};

BitstateStore::BitstateStore(std::size_t packedSize,
                             std::uint64_t budgetBytes)
    : StateStore(packedSize)
{
    if (budgetBytes == 0) budgetBytes = kDefaultBitstateBytes;
    // The largest power-of-two byte count within the budget (mask
    // probing), from 64 bytes to kMaxBitstateBytes: no product here can
    // wrap, and a table the machine cannot back throws std::bad_alloc
    // like any other allocation.
    const std::uint64_t bytes = std::bit_floor(
        std::clamp<std::uint64_t>(budgetBytes, 64, kMaxBitstateBytes));
    bits_.assign(static_cast<std::size_t>(bytes / sizeof(std::uint64_t)), 0);
    bitMask_ = bytes * 8 - 1;
}

void BitstateStore::prefetch(std::uint64_t hash) const
{
    for (std::uint64_t p : Probes(hash, bitMask_).bit)
        __builtin_prefetch(&bits_[static_cast<std::size_t>(p >> 6)]);
}

bool BitstateStore::contains(const std::uint8_t*, std::uint64_t hash) const
{
    return allSet(Probes(hash, bitMask_));
}

std::uint32_t BitstateStore::commit(std::uint64_t hash)
{
    // Test-and-set: an earlier record of the same batch may have set
    // all three bits since the caller's contains().
    const Probes probes(hash, bitMask_);
    if (allSet(probes)) return kNoId;
    for (std::uint64_t p : probes.bit)
        bits_[static_cast<std::size_t>(p >> 6)] |= 1ull << (p & 63);
    noteNewRecord(hash);
    return count_++;
}

bool BitstateStore::allSet(const Probes& probes) const
{
    // Supertrace membership: three independent probe bits per record.
    // "Seen" = all three set. False positives (distinct states mapping
    // to three already-set bits) silently drop states — hence lossy(),
    // hence "no violation found" only.
    for (std::uint64_t p : probes.bit)
        if (!(bits_[static_cast<std::size_t>(p >> 6)] & (1ull << (p & 63))))
            return false;
    return true;
}

std::pair<std::uint32_t, bool>
BitstateStore::insert(const std::uint8_t*, std::uint64_t hash)
{
    const std::uint32_t id = commit(hash);
    return {id, id != kNoId};
}

const std::uint8_t* BitstateStore::at(std::uint32_t) const
{
    throw EclError("BitstateStore::at: bitstate stores membership bits "
                   "only — interned records cannot be read back");
}

std::uint64_t BitstateStore::memoryBytes() const
{
    return bits_.size() * sizeof(std::uint64_t);
}

double BitstateStore::fillRatio() const
{
    std::uint64_t set = 0;
    for (std::uint64_t w : bits_) set += __builtin_popcountll(w);
    return static_cast<double>(set) /
           static_cast<double>(bits_.size() * 64);
}

} // namespace ecl::verify
