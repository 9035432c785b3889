// Tests for the explicit-state verification layer (src/verify).
//
// The load-bearing suites:
//  * brute force — the explorer's reachable-state set and minimal
//    counterexample are cross-checked against exhaustive input-sequence
//    enumeration replayed on rt::SyncEngine (a fully independent
//    oracle: no shared successor code, state compared byte-for-byte via
//    packState());
//  * determinism — 1-thread and 4-thread exploration must agree on
//    state count, interning order (digest), transition count and the
//    minimal counterexample, over all 8 paper modules;
//  * acceptance — a paper module + monitor pair yields a counterexample
//    that replays bit-exactly on SyncEngine;
//  * store kinds — exact and bitstate stores agree on state counts,
//    interning digests and thread-count determinism (bitstate modulo
//    its documented lossiness, which never fires on the pinned paper
//    inputs);
//  * cut points — the state cap, the store budget and the first
//    violation stop a level on the same transition at 1-4 threads, with
//    pinned counts and digests;
//  * partial-order reduction — reduced runs are differentially checked
//    against the unreduced explorer over the committed corpus and 200
//    generated programs: verdict agreement, state-set equality on
//    complete runs, and bit-exact counterexample replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/corpus/program_gen.h"
#include "src/verify/replay.h"
#include "src/verify/state_store.h"

#ifndef ECL_FIXTURE_DIR
#define ECL_FIXTURE_DIR "tests/fixtures"
#endif
#ifndef ECL_CORPUS_DIR
#define ECL_CORPUS_DIR "tests/corpus"
#endif

using namespace ecl;

namespace {

std::shared_ptr<CompiledModule> compileSrc(const std::string& src,
                                           const std::string& module = "")
{
    Compiler compiler(src);
    std::vector<std::string> names = compiler.moduleNames();
    return compiler.compile(module.empty() ? names.back() : module);
}

std::shared_ptr<CompiledModule> compilePaper(const char* source,
                                             const char* module)
{
    Compiler compiler(std::string(source) == std::string("stack")
                          ? paper::protocolStackSource()
                          : paper::audioBufferSource());
    return compiler.compile(module);
}

// Pure-control module with a finite state space (full exploration
// terminates) and three independent inputs.
const char* kPureSrc =
    "module m (input pure i0, input pure i1, input pure i2,"
    " output pure o0, output pure o1) {"
    " while (1) {"
    "  par {"
    "    { await (i0 & ~i1); emit (o0); }"
    "    { await (i1 | i2); emit (o1); }"
    "  }"
    " } }";

// Valued input + data state (acc grows per go instant, bounded only by
// the exploration depth).
const char* kAccSrc =
    "module m (input pure go, input int x, output int acc_out) {"
    " int acc;"
    " acc = 0;"
    " while (1) {"
    "  await (go);"
    "  acc = acc + x;"
    "  emit_v (acc_out, acc);"
    " } }";

// Same shape but with a reachable violation signal: acc >= 2 needs two
// go instants with x == 1.
const char* kOverflowSrc =
    "module m (input pure go, input int x,"
    " output pure violation_overflow) {"
    " int acc;"
    " acc = 0;"
    " while (1) {"
    "  await (go);"
    "  acc = acc + x;"
    "  if (acc >= 2) { emit (violation_overflow); }"
    " } }";

// ---------------------------------------------------------------------------
// Brute-force oracle: exhaustive input-sequence enumeration on SyncEngine
// ---------------------------------------------------------------------------

/// One letter of the FULL input alphabet: the (signal, value) pairs to
/// apply; empty Value = pure presence.
using BfLetter = std::vector<std::pair<int, Value>>;

/// Full alphabet over ALL inputs (no pruning): canonical mixed-radix
/// order, lowest signal index least significant, absent < domain values;
/// scalar domain {0, 1}, aggregates only the zero value — the explorer's
/// default domains.
std::vector<BfLetter> fullAlphabet(const ModuleSema& sema)
{
    struct In {
        int sig;
        std::vector<Value> dom; ///< Empty = pure.
    };
    std::vector<In> ins;
    for (const SignalInfo& s : sema.signals) {
        if (s.dir != SignalDir::Input) continue;
        In in{s.index, {}};
        if (!s.pure) {
            if (s.valueType->isScalar()) {
                in.dom.push_back(Value::fromInt(s.valueType, 0));
                in.dom.push_back(Value::fromInt(s.valueType, 1));
            } else {
                in.dom.emplace_back(s.valueType);
            }
        }
        ins.push_back(std::move(in));
    }
    std::vector<std::size_t> radix;
    std::size_t total = 1;
    for (const In& in : ins) {
        radix.push_back(in.dom.empty() ? 2 : 1 + in.dom.size());
        total *= radix.back();
    }
    std::vector<BfLetter> letters;
    letters.reserve(total);
    std::vector<std::size_t> digits(ins.size(), 0);
    for (std::size_t code = 0; code < total; ++code) {
        BfLetter letter;
        for (std::size_t k = 0; k < ins.size(); ++k) {
            if (digits[k] == 0) continue;
            letter.emplace_back(ins[k].sig,
                                ins[k].dom.empty()
                                    ? Value{}
                                    : ins[k].dom[digits[k] - 1]);
        }
        letters.push_back(std::move(letter));
        for (std::size_t k = 0; k < ins.size(); ++k) {
            if (++digits[k] < radix[k]) break;
            digits[k] = 0;
        }
    }
    return letters;
}

struct BruteResult {
    std::set<std::vector<std::uint8_t>> states; ///< Root included.
    bool violated = false;
    std::vector<int> minViolationSeq; ///< Letter codes, BFS-lex first.
};

/// BFS over input sequences (lengths ascending, letter codes ascending),
/// each replayed from scratch on a fresh SyncEngine. Terminated prefixes
/// are not extended (the explorer does not expand dead states either).
BruteResult bruteForce(const CompiledModule& mod,
                       const std::vector<BfLetter>& alphabet, int maxDepth,
                       const std::vector<std::string>& violationSignals)
{
    std::vector<int> violIdx;
    for (const std::string& name : violationSignals)
        violIdx.push_back(mod.moduleSema().findSignal(name)->index);

    BruteResult out;
    {
        auto fresh = mod.makeEngine();
        out.states.insert(fresh->packState());
    }

    struct Replay {
        bool terminated = false;
        bool violated = false;
    };
    auto replaySeq = [&](const std::vector<int>& seq) {
        auto eng = mod.makeEngine();
        Replay r;
        for (int li : seq) {
            for (const auto& [sig, v] : alphabet[static_cast<std::size_t>(
                     li)]) {
                if (v.empty())
                    eng->setInput(sig);
                else
                    eng->setInputValue(sig, v);
            }
            eng->react();
        }
        out.states.insert(eng->packState());
        for (int vi : violIdx)
            if (eng->outputPresent(vi)) r.violated = true;
        r.terminated = eng->terminated();
        return r;
    };

    std::vector<std::vector<int>> frontier{{}};
    for (int depth = 1; depth <= maxDepth; ++depth) {
        std::vector<std::vector<int>> next;
        for (const std::vector<int>& seq : frontier) {
            for (std::size_t li = 0; li < alphabet.size(); ++li) {
                std::vector<int> ext = seq;
                ext.push_back(static_cast<int>(li));
                Replay r = replaySeq(ext);
                if (r.violated && !out.violated) {
                    out.violated = true;
                    out.minViolationSeq = ext;
                }
                if (!r.terminated) next.push_back(std::move(ext));
            }
        }
        frontier = std::move(next);
    }
    return out;
}

std::set<std::vector<std::uint8_t>> explorerStates(const verify::Explorer& ex)
{
    const verify::StateStore& store = ex.stateStore();
    std::set<std::vector<std::uint8_t>> out;
    for (std::uint32_t id = 0; id < store.size(); ++id)
        out.emplace(store.at(id), store.at(id) + store.packedSize());
    return out;
}

/// Explorer trace -> (signal, value) per instant for comparison with a
/// brute-force letter sequence.
std::vector<BfLetter> traceLetters(const ModuleSema& sema,
                                   const rt::InputTrace& t)
{
    std::vector<BfLetter> out;
    for (const rt::TraceInstant& in : t.instants) {
        BfLetter letter;
        for (const rt::TraceEvent& ev : in.inputs)
            letter.emplace_back(
                ev.signal,
                ev.value.empty()
                    ? Value()
                    : Value::fromBytes(sema.signals[ev.signal].valueType,
                                       ev.value.data()));
        out.push_back(std::move(letter));
    }
    return out;
}

/// A trace's text form (rt::writeTrace): signal names and value bytes per
/// instant, so two counterexamples compare input for input.
std::string traceText(const rt::InputTrace& t)
{
    std::ostringstream os;
    rt::writeTrace(t, os);
    return os.str();
}

void expectLettersEqual(const std::vector<BfLetter>& a,
                        const std::vector<BfLetter>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size()) << "instant " << t;
        for (std::size_t k = 0; k < a[t].size(); ++k) {
            EXPECT_EQ(a[t][k].first, b[t][k].first)
                << "instant " << t << " input " << k;
            const Value& va = a[t][k].second;
            const Value& vb = b[t][k].second;
            ASSERT_EQ(va.empty(), vb.empty());
            if (!va.empty()) {
                ASSERT_EQ(va.size(), vb.size());
                EXPECT_EQ(0,
                          std::memcmp(va.data(), vb.data(), va.size()))
                    << "instant " << t << " input " << k;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// StateStore unit tests
// ---------------------------------------------------------------------------

TEST(StateStore, InternDedupsAndNumbersSequentially)
{
    verify::ExactStore store(8);
    std::uint8_t rec[8] = {0};
    for (std::uint32_t i = 0; i < 10000; ++i) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        EXPECT_TRUE(isNew);
        EXPECT_EQ(id, i);
    }
    EXPECT_EQ(store.size(), 10000u);
    const std::uint64_t digest = store.digest();
    // Re-interning is a no-op in any order.
    for (std::uint32_t i = 0; i < 10000; i += 37) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        EXPECT_FALSE(isNew);
        EXPECT_EQ(id, i);
    }
    EXPECT_EQ(store.size(), 10000u);
    EXPECT_EQ(store.digest(), digest);
    // Records read back bit-exactly.
    std::uint32_t probe = 4242;
    std::memcpy(rec, &probe, 4);
    EXPECT_EQ(0, std::memcmp(store.at(4242), rec, 8));
}

TEST(StateStore, BitstateIsLossyMembershipOnly)
{
    verify::BitstateStore store(8, 1 << 16);
    EXPECT_TRUE(store.lossy());
    EXPECT_EQ(store.memoryBytes(), 1u << 16);
    std::uint8_t rec[8] = {0};
    std::uint32_t fresh = 0;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        if (isNew) {
            EXPECT_EQ(id, fresh);
            ++fresh;
        } else {
            // A (rare at this fill) collision merges silently.
            EXPECT_EQ(id, verify::StateStore::kNoId);
        }
    }
    EXPECT_EQ(store.size(), fresh);
    EXPECT_GT(store.fillRatio(), 0.0);
    // Exact re-probes of seen records always report seen.
    for (std::uint32_t i = 0; i < 1000; i += 41) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        EXPECT_FALSE(isNew);
        EXPECT_EQ(id, verify::StateStore::kNoId);
    }
    // Records are not retained: at() must refuse rather than fabricate.
    EXPECT_THROW((void)store.at(0), EclError);
}

TEST(StateStore, FactoryBuildsEveryKindAndParsesNames)
{
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Bitstate}) {
        auto store = verify::StateStore::make(kind, 16);
        ASSERT_TRUE(store);
        EXPECT_EQ(store->kind(), kind);
        EXPECT_EQ(store->packedSize(), 16u);
        verify::StoreKind parsed;
        ASSERT_TRUE(
            verify::parseStoreKind(verify::storeKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    verify::StoreKind parsed;
    EXPECT_FALSE(verify::parseStoreKind("hashcompact", parsed));
    EXPECT_FALSE(verify::parseStoreKind("compressed", parsed));
}

TEST(StateStore, FactoryBudgetSizesTheBitstateTableOnly)
{
    // make()'s defaulted budget: 0 picks the bitstate default (4 MiB);
    // any other budget rounds down to a power-of-two table with a
    // 64-byte floor. The exact store ignores it (the explorer enforces
    // the budget against memoryBytes() instead).
    using verify::StateStore;
    using verify::StoreKind;
    EXPECT_EQ(StateStore::make(StoreKind::Bitstate, 16)->memoryBytes(),
              4u << 20);
    EXPECT_EQ(StateStore::make(StoreKind::Bitstate, 16, 1 << 12)
                  ->memoryBytes(),
              1u << 12);
    EXPECT_EQ(StateStore::make(StoreKind::Bitstate, 16, 5000)->memoryBytes(),
              1u << 12);
    EXPECT_EQ(StateStore::make(StoreKind::Bitstate, 16, 1)->memoryBytes(),
              64u);
    EXPECT_EQ(StateStore::make(StoreKind::Exact, 16, 64)->memoryBytes(),
              StateStore::make(StoreKind::Exact, 16)->memoryBytes());
}

/// An `n`-byte record (181 = the protocol stack's packed size) whose
/// bytes all depend on `i`; it starts with `i` itself, so records of
/// distinct `i` are distinct.
std::vector<std::uint8_t> patternRecord(std::uint32_t i, std::size_t n = 181)
{
    std::vector<std::uint8_t> rec(n);
    std::uint64_t x = std::uint64_t{i} * 0x9e3779b97f4a7c15ull + 1;
    for (std::uint8_t& b : rec) {
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ull;
        b = static_cast<std::uint8_t>(x >> 56);
    }
    std::memcpy(rec.data(), &i, sizeof i);
    return rec;
}

TEST(StateStore, PrehashedInternMatchesHashingInternForEveryKind)
{
    // Explorer workers hash successors and call intern(bytes, hash);
    // every other caller interns the bytes alone. Both must be the same
    // operation: same (id, isNew) sequence, same digest — revisits and
    // (for a small bitstate table) collisions included.
    using verify::StateStore;
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Bitstate}) {
        auto hashing = StateStore::make(kind, 181, 1 << 12);
        auto prehashed = StateStore::make(kind, 181, 1 << 12);
        for (std::uint32_t i = 0; i < 20000; ++i) {
            const std::vector<std::uint8_t> rec = patternRecord(i % 7000);
            const auto a = hashing->intern(rec.data());
            const auto b = prehashed->intern(
                rec.data(), StateStore::hashBytes(rec.data(), rec.size()));
            ASSERT_EQ(a, b) << verify::storeKindName(kind) << " intern " << i;
        }
        EXPECT_EQ(hashing->size(), prehashed->size());
        EXPECT_EQ(hashing->digest(), prehashed->digest());
#ifndef NDEBUG
        // Debug builds reject a hash that does not belong to the bytes.
        const std::vector<std::uint8_t> rec = patternRecord(1);
        EXPECT_THROW(
            prehashed->intern(rec.data(),
                              StateStore::hashBytes(rec.data(), 181) ^ 1),
            EclError);
#endif
    }
}

TEST(StateStore, ContainsAgreesWithInternForEveryKind)
{
    // The explorer's workers filter successors with contains() before
    // the merge: it must answer exactly what intern() would — revisits
    // and (for a small bitstate table) collisions included.
    using verify::StateStore;
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Bitstate}) {
        auto store = StateStore::make(kind, 181, 1 << 12);
        for (std::uint32_t i = 0; i < 20000; ++i) {
            const std::vector<std::uint8_t> rec = patternRecord(i % 7000);
            const std::uint64_t hash =
                StateStore::hashBytes(rec.data(), rec.size());
            const bool seen = store->contains(rec.data(), hash);
            ASSERT_EQ(seen, !store->intern(rec.data(), hash).second)
                << verify::storeKindName(kind) << " record " << i;
            ASSERT_TRUE(store->contains(rec.data(), hash));
        }
    }
}

TEST(StateStore, CommitAndPlaceMatchIntern)
{
    // The merge's split intern — contains() to filter, commit() for the
    // ids, place() and insertIndex() for the bytes — must build the
    // store one intern() per record builds: same ids, digest and
    // memoryBytes(), the same records read back, and the same dedup
    // afterwards. Bitstate commit() drops what its bits already cover.
    using verify::StateStore;
    constexpr std::size_t kBytes = 181;
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Bitstate}) {
        auto interned = StateStore::make(kind, kBytes, 1 << 12);
        auto split = StateStore::make(kind, kBytes, 1 << 12);
        auto* exact = dynamic_cast<verify::ExactStore*>(split.get());
        // Batches of distinct records, each batch committed before any
        // of it is placed, as one BFS level is.
        for (std::uint32_t batch = 0; batch < 8; ++batch) {
            std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
                placed;
            for (std::uint32_t i = 0; i < 3000; ++i) {
                const std::vector<std::uint8_t> rec =
                    patternRecord(batch * 2000 + i, kBytes);
                const std::uint64_t hash =
                    StateStore::hashBytes(rec.data(), kBytes);
                const auto want = interned->intern(rec.data(), hash);
                if (split->contains(rec.data(), hash)) {
                    ASSERT_FALSE(want.second) << "record " << i;
                    continue;
                }
                const std::uint32_t id = split->commit(hash);
                ASSERT_EQ(id, want.first) << "record " << i;
                if (id != StateStore::kNoId) placed.emplace_back(id, rec);
            }
            EXPECT_EQ(split->memoryBytes(), interned->memoryBytes());
            for (const auto& [id, rec] : placed) {
                const std::uint64_t hash =
                    StateStore::hashBytes(rec.data(), kBytes);
                split->place(id, rec.data(), hash);
                if (exact) exact->insertIndex(hash, id);
            }
        }
        EXPECT_EQ(split->size(), interned->size());
        EXPECT_EQ(split->digest(), interned->digest());
        EXPECT_EQ(split->memoryBytes(), interned->memoryBytes());
        if (!exact) continue;
        for (std::uint32_t id = 0; id < split->size(); id += 97)
            EXPECT_EQ(0, std::memcmp(exact->at(id), interned->at(id),
                                     kBytes))
                << "id " << id;
        for (std::uint32_t i = 0; i < 16000; i += 89) {
            const std::vector<std::uint8_t> rec = patternRecord(i, kBytes);
            EXPECT_EQ(split->intern(rec.data()), interned->intern(rec.data()))
                << "record " << i;
        }
    }
}

TEST(StateStore, ExactStoreSpansArenaSegmentsAndIndexGrowth)
{
    // 200k protocol-stack-sized records fill dozens of arena segments
    // and double the index seven times. Ids stay dense, dedup holds
    // across segments, and records read back bit-exactly on both sides
    // of every segment boundary.
    constexpr std::size_t kBytes = 181;
    constexpr std::uint32_t kRecords = 200000;
    verify::ExactStore store(kBytes);
    const std::uint32_t perSegment = store.recordsPerSegment();
    ASSERT_GE(kRecords / perSegment, 4u);
    for (std::uint32_t i = 0; i < kRecords; ++i) {
        const std::vector<std::uint8_t> rec = patternRecord(i, kBytes);
        ASSERT_EQ(store.intern(rec.data()),
                  (std::pair<std::uint32_t, bool>{i, true}));
    }
    // The index grew past kRecords * 4/3 slots (load factor 3/4).
    EXPECT_GE(store.memoryBytes() - std::uint64_t{kRecords} * kBytes,
              std::uint64_t{kRecords} * 4 / 3 * sizeof(std::uint64_t));

    const std::uint64_t digest = store.digest();
    for (std::uint32_t i = kRecords; i-- > 0;) {
        const std::vector<std::uint8_t> rec = patternRecord(i, kBytes);
        ASSERT_EQ(store.intern(rec.data()),
                  (std::pair<std::uint32_t, bool>{i, false}));
    }
    EXPECT_EQ(store.size(), kRecords);
    EXPECT_EQ(store.digest(), digest);

    for (std::uint32_t edge = perSegment; edge < kRecords;
         edge += perSegment) {
        for (std::uint32_t id : {edge - 1, edge}) {
            const std::vector<std::uint8_t> want = patternRecord(id, kBytes);
            EXPECT_EQ(0, std::memcmp(store.at(id), want.data(), kBytes))
                << "id " << id;
        }
    }
}

TEST(RecordArena, NeverMovesARecord)
{
    // 181-byte records, 4,096 to a segment: a fill of three segments and
    // one record reads back bit-exactly where it was written, and a
    // refill after clear() lands in the same segments at the same
    // addresses.
    constexpr std::size_t kBytes = 181;
    rt::RecordArena arena(kBytes);
    const std::uint32_t perSegment = arena.recordsPerSegment();
    EXPECT_EQ(perSegment, 4096u);
    const std::uint32_t n = 3 * perSegment + 1;
    std::vector<const std::uint8_t*> where;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint8_t* rec = arena.push();
        const std::vector<std::uint8_t> want = patternRecord(i, kBytes);
        std::memcpy(rec, want.data(), kBytes);
        where.push_back(rec);
    }
    ASSERT_EQ(arena.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(arena.at(i), where[i]) << "record " << i;
        const std::vector<std::uint8_t> want = patternRecord(i, kBytes);
        ASSERT_EQ(0, std::memcmp(arena.at(i), want.data(), kBytes))
            << "record " << i;
    }
    arena.pop();
    EXPECT_EQ(arena.size(), n - 1);
    arena.clear();
    EXPECT_EQ(arena.size(), 0u);
    arena.resize(n);
    ASSERT_EQ(arena.size(), n);
    for (std::uint32_t i = 0; i < n; i += perSegment / 2)
        EXPECT_EQ(arena.at(i), where[i]) << "record " << i;

    // A record past 1 MiB gets a segment of its own.
    constexpr std::size_t kBig = std::size_t{3} << 20;
    rt::RecordArena big(kBig);
    EXPECT_EQ(big.recordsPerSegment(), 1u);
    std::uint8_t* first = big.push();
    first[kBig - 1] = 7;
    big.push()[0] = 9;
    EXPECT_EQ(first[kBig - 1], 7);
    EXPECT_EQ(big.at(1)[0], 9);
}

TEST(StateStore, HashBytesSeparatesNearbyRecords)
{
    using verify::StateStore;
    auto hash = [](const std::vector<std::uint8_t>& r, std::size_t n) {
        return StateStore::hashBytes(r.data(), n);
    };

    // Every single-bit flip of a 181-byte record.
    std::vector<std::uint8_t> rec = patternRecord(42);
    std::set<std::uint64_t> flips{hash(rec, rec.size())};
    for (std::size_t bit = 0; bit < rec.size() * 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        rec[bit / 8] ^= mask;
        EXPECT_TRUE(flips.insert(hash(rec, rec.size())).second)
            << "bit " << bit;
        rec[bit / 8] ^= mask;
    }

    // Zero-filled records of every length 1..64: the zero-padded last
    // word must not alias a record of another length.
    const std::vector<std::uint8_t> zeros(64, 0);
    std::set<std::uint64_t> lengths;
    for (std::size_t n = 1; n <= zeros.size(); ++n)
        lengths.insert(hash(zeros, n));
    EXPECT_EQ(lengths.size(), zeros.size());

    // Records differing only in the trailing partial word (bytes
    // 176..180 of 181).
    const std::vector<std::uint8_t> base = patternRecord(7);
    std::set<std::vector<std::uint8_t>> tails;
    std::set<std::uint64_t> tailHashes;
    for (std::size_t k = 176; k < base.size(); ++k) {
        for (unsigned v = 0; v < 256; ++v) {
            std::vector<std::uint8_t> r = base;
            r[k] = static_cast<std::uint8_t>(v);
            tails.insert(r);
            tailHashes.insert(hash(r, r.size()));
        }
    }
    EXPECT_EQ(tailHashes.size(), tails.size());
}

// ---------------------------------------------------------------------------
// Brute-force cross-checks (<= 4 inputs, depth <= 6)
// ---------------------------------------------------------------------------

TEST(VerifyBruteForce, PureControlReachableSetMatches)
{
    auto mod = compileSrc(kPureSrc);
    const std::vector<BfLetter> alphabet =
        fullAlphabet(mod->moduleSema()); // 2^3 letters
    ASSERT_EQ(alphabet.size(), 8u);
    BruteResult brute = bruteForce(*mod, alphabet, 4, {});

    // The explorer prunes untested pure inputs; brute force sets them.
    verify::ExplorerOptions opts;
    opts.maxDepth = 4;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    EXPECT_FALSE(res.violated);
    EXPECT_EQ(explorerStates(*ex), brute.states);
}

TEST(VerifyBruteForce, ValuedInputReachableSetMatches)
{
    auto mod = compileSrc(kAccSrc);
    const std::vector<BfLetter> alphabet =
        fullAlphabet(mod->moduleSema()); // 2 * 3 letters
    ASSERT_EQ(alphabet.size(), 6u);
    BruteResult brute = bruteForce(*mod, alphabet, 5, {});

    verify::ExplorerOptions opts;
    opts.maxDepth = 5;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    EXPECT_FALSE(res.violated);
    EXPECT_EQ(explorerStates(*ex), brute.states);
}

TEST(VerifyBruteForce, MinimalViolationTraceMatches)
{
    auto mod = compileSrc(kOverflowSrc);
    const std::vector<BfLetter> alphabet = fullAlphabet(mod->moduleSema());
    BruteResult brute =
        bruteForce(*mod, alphabet, 6, {"violation_overflow"});
    ASSERT_TRUE(brute.violated);

    verify::ExplorerOptions opts;
    opts.maxDepth = 6;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::DesignSignal);
    EXPECT_EQ(res.violation.what, "violation_overflow");
    EXPECT_EQ(res.trace.instants.size(), brute.minViolationSeq.size());

    // Same minimal counterexample, input for input.
    std::vector<BfLetter> bruteLetters;
    for (int li : brute.minViolationSeq)
        bruteLetters.push_back(alphabet[static_cast<std::size_t>(li)]);
    expectLettersEqual(traceLetters(mod->moduleSema(), res.trace),
                       bruteLetters);

    // And it replays on the production engine.
    auto engine = mod->makeEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*engine, nullptr, res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyBruteForce, RandomWalkStatesAreReachable)
{
    // Every state a concretely-driven SyncEngine can reach (inputs drawn
    // from the explorer's domains) must be in the explored set.
    auto mod = compileSrc(kPureSrc);
    auto ex = mod->makeExplorer({});
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.stats.complete);
    const std::set<std::vector<std::uint8_t>> states = explorerStates(*ex);
    const std::vector<BfLetter> alphabet = fullAlphabet(mod->moduleSema());

    std::mt19937 rng(20260728u);
    for (int walk = 0; walk < 10; ++walk) {
        auto eng = mod->makeEngine();
        EXPECT_TRUE(states.count(eng->packState()));
        for (int t = 0; t < 30; ++t) {
            const BfLetter& letter = alphabet[rng() % alphabet.size()];
            for (const auto& [sig, v] : letter) {
                if (v.empty())
                    eng->setInput(sig);
                else
                    eng->setInputValue(sig, v);
            }
            eng->react();
            EXPECT_TRUE(states.count(eng->packState()))
                << "walk " << walk << " instant " << t;
        }
    }
}

// ---------------------------------------------------------------------------
// Option equivalences and run stats
// ---------------------------------------------------------------------------

TEST(VerifyStats, BfsSplitsExpandAndMerge)
{
    auto mod = compileSrc(kPureSrc);
    verify::ExploreResult rb = mod->makeExplorer({})->run();
    EXPECT_TRUE(rb.stats.complete);

    // A run's time splits into expand and merge phases.
    EXPECT_GT(rb.stats.expandSeconds, 0.0);
    EXPECT_GT(rb.stats.mergeSeconds, 0.0);
    EXPECT_LE(rb.stats.expandSeconds + rb.stats.mergeSeconds,
              rb.stats.seconds);
}

TEST(VerifyOptions, DepthAndStateBoundsReportIncomplete)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    EXPECT_FALSE(res.stats.complete);
    EXPECT_EQ(res.stats.depthReached, 3);

    verify::ExplorerOptions capped;
    capped.maxStates = 4;
    auto ex2 = mod->makeExplorer(capped);
    verify::ExploreResult res2 = ex2->run();
    EXPECT_FALSE(res2.stats.complete);
    EXPECT_EQ(res2.stats.states, 4u);
}

TEST(VerifyOptions, EveryDepthBoundPastAViolationFindsItMinimal)
{
    // x grows by 2 in an instant with a present and by 1 otherwise, so
    // x == 12 first holds after six instants of a. States with the same
    // x are reached at several depths; a bounded search must still find
    // the violation under every bound that reaches it, and always at its
    // least depth.
    const char* src =
        "module m (input pure a, output pure violation) {"
        " int x = 0;"
        " while (1) {"
        "  present (a) { x += 2; } else { x += 1; }"
        "  if (x == 12) emit (violation);"
        "  await ();"
        " } }";
    auto mod = compileSrc(src);
    for (int bound : {3, 5}) {
        verify::ExplorerOptions opts;
        opts.maxDepth = bound;
        verify::ExploreResult res = mod->makeExplorer(opts)->run();
        EXPECT_FALSE(res.violated) << "bound " << bound;
        EXPECT_FALSE(res.stats.complete) << "bound " << bound;
    }
    for (int bound : {6, 7, 8, 16}) {
        verify::ExplorerOptions opts;
        opts.maxDepth = bound;
        verify::ExploreResult res = mod->makeExplorer(opts)->run();
        ASSERT_TRUE(res.violated) << "bound " << bound;
        EXPECT_EQ(res.violation.what, "violation") << "bound " << bound;
        EXPECT_EQ(res.violation.depth, 6) << "bound " << bound;
        EXPECT_EQ(res.trace.instants.size(), 6u) << "bound " << bound;
        auto engine = mod->makeEngine();
        verify::ReplayOutcome rp =
            verify::replayCounterexample(*engine, nullptr, res);
        EXPECT_TRUE(rp.reproduced) << "bound " << bound << ": " << rp.detail;
    }
}

TEST(VerifyOptions, RunIsSingleShot)
{
    auto mod = compileSrc(kPureSrc);
    auto ex = mod->makeExplorer({});
    (void)ex->run();
    EXPECT_THROW(ex->run(), EclError);
}

TEST(VerifyOptions, ThreadCountIsCapped)
{
    // Every worker is a VM plus per-level buffers, and all but one are
    // OS threads: a typo must not start thousands. The worker pool
    // refuses a count past rt::kMaxThreads before it starts a thread (a
    // helper the throw left joinable would end the process).
    auto mod = compileSrc(kPureSrc);
    verify::ExplorerOptions opts;
    opts.threads = rt::kMaxThreads + 1;
    auto ex = mod->makeExplorer(opts);
    EXPECT_THROW((void)ex->run(), EclError);
}

TEST(VerifyOptions, ScalarDomainOverridePerSignal)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    opts.scalarDomains["x"] = {5};
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    // acc after one go instant with x=5 must be 5: find a state whose
    // acc variable reads 5.
    const verify::StateStore& store = ex->stateStore();
    const rt::InstanceLayout& layout = ex->designLayout();
    bool sawFive = false;
    for (std::uint32_t id = 0; id < store.size(); ++id) {
        verify::StateView view(mod->moduleSema(), layout, 0,
                               store.at(id) + 4);
        if (view.var("acc") == 5) sawFive = true;
    }
    EXPECT_TRUE(sawFive);
    EXPECT_FALSE(res.violated);
}

TEST(VerifyPredicates, SignalReadsAValuedSignalsSlot)
{
    // acc_out carries acc from the instant acc changes: a predicate over
    // the signal's slot trips where one over the variable does
    // (PredicateViolationWithReplay). A pure signal has no slot.
    auto mod = compileSrc(kAccSrc);
    const ModuleSema& sema = mod->moduleSema();
    const int accOut = sema.findSignal("acc_out")->index;
    verify::ExplorerOptions opts;
    opts.maxDepth = 8;
    auto ex = mod->makeExplorer(opts);
    ex->addPredicate("acc_out_le_2", [accOut](const verify::StateView& s) {
        return s.signal(accOut) > 2;
    });
    const verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.what, "acc_out_le_2");
    EXPECT_EQ(res.trace.instants.size(), 4u);
    const verify::StateView root(sema, ex->designLayout(), 0,
                                 ex->stateStore().at(0) + 4);
    EXPECT_EQ(root.signal(accOut), 0);
    EXPECT_THROW((void)root.signal(sema.findSignal("go")->index), EclError);
}

TEST(VerifyPredicates, ValueMismatchPrintsBothValues)
{
    // A counterexample whose violation value was altered no longer
    // replays, and the mismatch prints both values.
    auto mod = compileSrc("module m (input int x, output int violation_x) {"
                          " while (1) { await (x);"
                          "   if (x > 0) emit_v (violation_x, x); } }");
    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    verify::ExploreResult res = mod->makeExplorer(opts)->run();
    ASSERT_TRUE(res.violated);
    ASSERT_EQ(res.violation.value.toInt(), 1); // x's domain is {0, 1}
    res.violation.value = Value::fromInt(res.violation.value.type(), 7);
    auto engine = mod->makeEngine();
    const verify::ReplayOutcome rp =
        verify::replayCounterexample(*engine, nullptr, res);
    EXPECT_FALSE(rp.reproduced);
    EXPECT_NE(rp.detail.find("explorer 7 vs replay 1"), std::string::npos)
        << rp.detail;
}

TEST(VerifyOptions, AlphabetTruncatedAtLetterCap)
{
    // 5,000 values of x plus "x absent" exceed the per-state letter cap:
    // the first kMaxLettersPerState letters are expanded, the rest are
    // dropped and the run cannot claim completeness.
    auto mod = compileSrc("module m (input int x, output int y)\n"
                          "{\n"
                          "    while (1) {\n"
                          "        await (x);\n"
                          "        emit_v (y, x);\n"
                          "    }\n"
                          "}\n");
    verify::ExplorerOptions opts;
    opts.maxDepth = 1;
    for (std::int64_t v = 0; v < 5000; ++v)
        opts.scalarDomains["x"].push_back(v);
    verify::ExploreResult res = mod->makeExplorer(opts)->run();
    EXPECT_EQ(verify::kMaxLettersPerState, 4096u);
    EXPECT_TRUE(res.stats.alphabetTruncated);
    EXPECT_FALSE(res.stats.complete);
    EXPECT_EQ(res.stats.transitions, 4096u);
}

TEST(VerifyPredicates, PredicateViolationWithReplay)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 8;
    auto ex = mod->makeExplorer(opts);
    ex->addPredicate("acc_le_2", [](const verify::StateView& s) {
        return s.var("acc") > 2;
    });
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::Predicate);
    EXPECT_EQ(res.violation.what, "acc_le_2");
    // Minimal: acc > 2 needs three go/x=1 instants after boot.
    EXPECT_EQ(res.trace.instants.size(), 4u);
    auto engine = mod->makeEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*engine, nullptr, res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

// ---------------------------------------------------------------------------
// Monitors
// ---------------------------------------------------------------------------

const char* kSpeakerMonitorSrc =
    "module mon (input pure speaker_on, output pure violation) {"
    " while (1) { await (speaker_on); emit (violation); } }";

TEST(VerifyMonitor, PaperModuleViolationReplaysBitExactly)
{
    // Acceptance: buffer_top + "speaker never turns on" monitor. The
    // speaker IS reachable, so exploration must produce a counterexample
    // that replays bit-exactly on SyncEngine — and identically for 1 and
    // 4 worker threads.
    auto design = compilePaper("buffer", "buffer_top");
    auto monitor = compileSrc(kSpeakerMonitorSrc);

    verify::ExploreResult first;
    std::uint64_t firstDigest = 0;
    for (int threads : {1, 4}) {
        verify::ExplorerOptions opts;
        opts.threads = threads;
        auto ex = design->makeExplorer(opts);
        monitor->attachAsMonitor(*ex);
        verify::ExploreResult res = ex->run();
        ASSERT_TRUE(res.violated) << "threads=" << threads;
        EXPECT_EQ(res.violation.kind,
                  verify::Violation::Kind::MonitorSignal);
        EXPECT_EQ(res.violation.what, "violation");

        auto dEng = design->makeEngine();
        auto mEng = monitor->makeEngine();
        verify::ReplayOutcome rp =
            verify::replayCounterexample(*dEng, mEng.get(), res);
        EXPECT_TRUE(rp.reproduced) << rp.detail;

        if (threads == 1) {
            first = res;
            firstDigest = ex->stateDigest();
        } else {
            // Thread-count determinism on the violating run.
            EXPECT_EQ(res.stats.states, first.stats.states);
            EXPECT_EQ(res.stats.transitions, first.stats.transitions);
            EXPECT_EQ(res.violation.depth, first.violation.depth);
            EXPECT_EQ(firstDigest, ex->stateDigest());
            EXPECT_EQ(traceText(res.trace), traceText(first.trace));
        }
    }
}

TEST(VerifyMonitor, ValuedViolationValueIsBitExact)
{
    auto design = compileSrc(
        "module d (input pure tick, output int level) {"
        " int n;"
        " n = 0;"
        " while (1) { await (tick); n = n + 1; emit_v (level, n); } }");
    auto monitor = compileSrc(
        "module m (input int level, output int violation_level) {"
        " while (1) {"
        "  await (level);"
        "  if (level >= 2) { emit_v (violation_level, level * 10); }"
        " } }");

    auto ex = design->makeExplorer({});
    monitor->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::MonitorSignal);
    EXPECT_EQ(res.violation.what, "violation_level");
    ASSERT_FALSE(res.violation.value.empty());
    EXPECT_EQ(res.violation.value.toInt(), 20);

    auto dEng = design->makeEngine();
    auto mEng = monitor->makeEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*dEng, mEng.get(), res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyMonitor, WiredUntestedPureInputIsNotPruned)
{
    // The design never tests `b`, so dirty-set pruning would hold it
    // absent — but the monitor awaits it. Wired design inputs must stay
    // in the alphabet or this (trivially reachable) violation is missed
    // and the run is falsely reported complete.
    auto design = compileSrc(
        "module d (input pure a, input pure b, output pure o) {"
        " while (1) { await (a); emit (o); } }");
    auto monitor = compileSrc(
        "module m (input pure b, output pure violation) {"
        " while (1) { await (b); emit (violation); } }");
    auto ex = design->makeExplorer({});
    monitor->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::MonitorSignal);
    EXPECT_EQ(res.trace.instants.size(), 2u); // arm the await at boot, then b

    auto dEng = design->makeEngine();
    auto mEng = monitor->makeEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*dEng, mEng.get(), res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyMonitor, MonitorRuntimeErrorViolationReplays)
{
    // A monitor whose reaction traps (array index out of bounds once the
    // design's level reaches 2) is itself a verification result; the
    // replay must reproduce the trap, not leak the exception.
    auto design = compileSrc(
        "module d (input pure tick, output int level) {"
        " int n;"
        " n = 0;"
        " while (1) { await (tick); n = n + 1; emit_v (level, n); } }");
    auto monitor = compileSrc(
        "module m (input int level, output pure violation) {"
        " int buf[2];"
        " while (1) { await (level); buf[level] = 1; } }");
    auto ex = design->makeExplorer({});
    monitor->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::RuntimeError);

    auto dEng = design->makeEngine();
    auto mEng = monitor->makeEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*dEng, mEng.get(), res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyRuntimeError, TrapBehindEqualBranchesTrapsAtEveryLevel)
{
    // The predicate 100 / v > 3 guards two equal branches. From -O1 they
    // are one stored subtree under a test node with two edges to it; the
    // test must stay and run its predicate, so v = 0 traps on every
    // engine at every level, and the explorer finds and replays it.
    std::ifstream in(std::string(ECL_FIXTURE_DIR) +
                     "/trap_equal_branches.ecl");
    ASSERT_TRUE(in);
    const std::string src((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    Compiler compiler(src);
    const auto expectTrap = [](const auto& react) {
        try {
            react();
            ADD_FAILURE() << "v = 0 did not trap";
        } catch (const EclError& e) {
            EXPECT_NE(std::string(e.what()).find("runtime: division by zero"),
                      std::string::npos)
                << e.what();
        }
    };
    for (int level = 0; level <= 2; ++level) {
        SCOPED_TRACE("-O" + std::to_string(level));
        CompileOptions copts;
        copts.optLevel = level;
        auto mod = compiler.compile("trapdiv", copts);
        const efsm::FlatProgram& flat = mod->flatProgram();
        EXPECT_EQ(level > 0,
                  std::any_of(flat.nodes.begin(), flat.nodes.end(),
                              [](const efsm::FlatNode& n) {
                                  return !n.isLeaf() && n.predChunk >= 0 &&
                                         n.onTrue == n.onFalse;
                              }))
            << "equal branches are one shared subtree from -O1 on";

        for (EngineKind kind : {EngineKind::Flat, EngineKind::TreeWalk}) {
            auto eng = mod->makeEngine(kind);
            eng->react();
            eng->setInputScalar("v", 0);
            expectTrap([&] { eng->react(); });
        }
        auto batch = mod->makeBatchEngine(1);
        batch->step(); // boot
        batch->setInputScalar(0, mod->moduleSema().findSignal("v")->index,
                              0);
        expectTrap([&] { batch->step(); });

        verify::ExplorerOptions opts;
        opts.maxDepth = 4;
        verify::ExploreResult res = mod->makeExplorer(opts)->run();
        ASSERT_TRUE(res.violated);
        EXPECT_EQ(res.violation.kind, verify::Violation::Kind::RuntimeError);
        EXPECT_EQ(res.violation.depth, 2);
        EXPECT_NE(res.violation.what.find("runtime: division by zero"),
                  std::string::npos)
            << res.violation.what;
        auto engine = mod->makeEngine();
        verify::ReplayOutcome rp =
            verify::replayCounterexample(*engine, nullptr, res);
        EXPECT_TRUE(rp.reproduced) << rp.detail;
    }
}

TEST(VerifyMonitor, WiringErrors)
{
    auto design = compileSrc(kPureSrc);
    auto unmatched = compileSrc(
        "module m (input pure nonexistent, output pure violation) {"
        " while (1) { await (nonexistent); emit (violation); } }");
    auto ex = design->makeExplorer({});
    EXPECT_THROW(unmatched->attachAsMonitor(*ex), EclError);

    // A monitor that can never flag anything is rejected at run().
    auto silent = compileSrc(
        "module m (input pure i0, output pure saw_it) {"
        " while (1) { await (i0); emit (saw_it); } }");
    auto ex2 = design->makeExplorer({});
    silent->attachAsMonitor(*ex2);
    EXPECT_THROW(ex2->run(), EclError);

    // ...unless its signal's name holds "violation", in any case.
    auto flagging = compileSrc(
        "module m (input pure i0, output pure saw_Violation) {"
        " while (1) { await (i0); emit (saw_Violation); } }");
    auto ex3 = design->makeExplorer({});
    flagging->attachAsMonitor(*ex3);
    verify::ExploreResult res = ex3->run();
    EXPECT_TRUE(res.violated);
    EXPECT_EQ(res.violation.what, "saw_Violation");
}

// ---------------------------------------------------------------------------
// 1-thread vs 4-thread determinism over all 8 paper modules
// ---------------------------------------------------------------------------

struct PaperCase {
    const char* source;
    const char* module;
    int depth;
};

void PrintTo(const PaperCase& c, std::ostream* os)
{
    *os << c.source << "/" << c.module;
}

class VerifyDeterminismTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(VerifyDeterminismTest, OneAndFourThreadsAgree)
{
    const PaperCase& pc = GetParam();
    auto mod = compilePaper(pc.source, pc.module);

    verify::ExploreStats first;
    std::uint64_t firstDigest = 0;
    for (int threads : {1, 4}) {
        verify::ExplorerOptions opts;
        opts.threads = threads;
        opts.maxDepth = pc.depth;
        opts.maxStates = 200000;
        auto ex = mod->makeExplorer(opts);
        verify::ExploreResult res = ex->run();
        EXPECT_FALSE(res.violated);
        if (threads == 1) {
            first = res.stats;
            firstDigest = ex->stateDigest();
        } else {
            EXPECT_EQ(res.stats.states, first.states);
            EXPECT_EQ(res.stats.transitions, first.transitions);
            EXPECT_EQ(res.stats.peakFrontier, first.peakFrontier);
            EXPECT_EQ(res.stats.depthReached, first.depthReached);
            EXPECT_EQ(res.stats.complete, first.complete);
            EXPECT_EQ(ex->stateDigest(), firstDigest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModules, VerifyDeterminismTest,
    ::testing::Values(PaperCase{"stack", "assemble", 8},
                      PaperCase{"stack", "checkcrc", 8},
                      PaperCase{"stack", "prochdr", 8},
                      PaperCase{"stack", "toplevel", 8},
                      PaperCase{"buffer", "producer", 8},
                      PaperCase{"buffer", "playback", 8},
                      PaperCase{"buffer", "blinker", 8},
                      PaperCase{"buffer", "buffer_top", 20}));

// ---------------------------------------------------------------------------
// Explorer states vs batch-engine arena compatibility
// ---------------------------------------------------------------------------

TEST(VerifyLayout, PackedStatesAreArenaCompatible)
{
    // The explorer's per-module data bytes use rt::InstanceLayout — the
    // exact layout a BatchEngine instance slice uses. Drive one batch
    // instance and one explorer-domain walk to the same instant stream
    // and compare the encoded SyncEngine state against the explored set
    // (already covered) AND the batch arena stride contract.
    auto mod = compileSrc(kAccSrc);
    const rt::InstanceLayout layout =
        rt::computeInstanceLayout(mod->moduleSema());
    auto batch = mod->makeBatchEngine(1);
    // An instance holds its slice at the layout's stride, plus its
    // presence rows, counts and scheduling rows.
    EXPECT_GT(batch->bytesPerInstance(), layout.stride);
    EXPECT_EQ(batch->packInstanceState(0).size(), 4 + layout.dataBytes);
    EXPECT_LE(layout.dataBytes, layout.stride);
    // packedSize = 4-byte control header + dataBytes (no monitor).
    verify::ExplorerOptions opts;
    opts.maxDepth = 2;
    auto ex2 = mod->makeExplorer(opts);
    (void)ex2->run();
    EXPECT_EQ(ex2->packedSize(), 4 + layout.dataBytes);
}

// ---------------------------------------------------------------------------
// Optimization-level regression: the minimized machine (-O2) must explore
// no more states than the verbatim tables (-O0) with identical verdicts,
// and counterexamples found on the minimized machine must replay on
// engines at EITHER level (the unoptimized SyncEngine included).
// ---------------------------------------------------------------------------

std::shared_ptr<CompiledModule> compilePaperAt(const char* source,
                                               const char* module,
                                               int optLevel)
{
    Compiler compiler(std::string(source) == std::string("stack")
                          ? paper::protocolStackSource()
                          : paper::audioBufferSource());
    CompileOptions copts;
    copts.optLevel = optLevel;
    return compiler.compile(module, copts);
}

std::shared_ptr<CompiledModule> compileSrcAt(const std::string& src,
                                             int optLevel)
{
    Compiler compiler(src);
    CompileOptions copts;
    copts.optLevel = optLevel;
    return compiler.compile(compiler.moduleNames().back(), copts);
}

class VerifyOptLevelTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(VerifyOptLevelTest, MinimizedMachineExploresNoMoreStates)
{
    const PaperCase& pc = GetParam();
    auto o0 = compilePaperAt(pc.source, pc.module, 0);
    auto o2 = compilePaperAt(pc.source, pc.module, 2);

    verify::ExplorerOptions opts;
    opts.maxDepth = pc.depth;
    opts.maxStates = 200000;
    auto ex0 = o0->makeExplorer(opts);
    auto ex2 = o2->makeExplorer(opts);
    verify::ExploreResult r0 = ex0->run();
    verify::ExploreResult r2 = ex2->run();

    EXPECT_LE(r2.stats.controlStates, r0.stats.controlStates);
    EXPECT_LE(r2.stats.states, r0.stats.states);
    EXPECT_EQ(r2.violated, r0.violated);
    EXPECT_EQ(r2.stats.complete, r0.stats.complete);
    EXPECT_EQ(r2.stats.depthReached, r0.stats.depthReached);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModules, VerifyOptLevelTest,
    ::testing::Values(PaperCase{"stack", "assemble", 6},
                      PaperCase{"stack", "checkcrc", 6},
                      PaperCase{"stack", "prochdr", 6},
                      PaperCase{"stack", "toplevel", 6},
                      PaperCase{"buffer", "producer", 8},
                      PaperCase{"buffer", "playback", 8},
                      PaperCase{"buffer", "blinker", 8},
                      PaperCase{"buffer", "buffer_top", 16}));

TEST(VerifyOptLevel, DesignViolationVerdictAndReplayAcrossLevels)
{
    auto o0 = compileSrcAt(kOverflowSrc, 0);
    auto o2 = compileSrcAt(kOverflowSrc, 2);
    auto ex0 = o0->makeExplorer({});
    auto ex2 = o2->makeExplorer({});
    verify::ExploreResult r0 = ex0->run();
    verify::ExploreResult r2 = ex2->run();

    ASSERT_TRUE(r0.violated);
    ASSERT_TRUE(r2.violated);
    EXPECT_EQ(r2.violation.kind, r0.violation.kind);
    EXPECT_EQ(r2.violation.what, r0.violation.what);
    // BFS minimal depth is a property of the behavior, which
    // minimization preserves exactly.
    EXPECT_EQ(r2.violation.depth, r0.violation.depth);
    EXPECT_LE(r2.stats.states, r0.stats.states);

    // Bit-exact replay on the engine of the level that found it.
    auto e2 = o2->makeEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*e2, nullptr, r2);
    EXPECT_TRUE(rp.reproduced) << rp.detail;

    // The -O2 counterexample must also reproduce the violating emission
    // on the UNOPTIMIZED engine (state ids differ after minimization, so
    // the packed-state comparison does not apply — the emission does).
    auto cross = [](CompiledModule& mod, const verify::ExploreResult& res) {
        auto eng = mod.makeEngine();
        const std::vector<int> map =
            rt::mapTraceSignals(res.trace, eng->moduleSema());
        for (const rt::TraceInstant& in : res.trace.instants) {
            rt::stageInputs(*eng, res.trace, map, in);
            eng->react();
        }
        return eng->outputPresent(res.violation.signal);
    };
    EXPECT_TRUE(cross(*o0, r2)) << "O2 trace must violate on the O0 engine";
    EXPECT_TRUE(cross(*o2, r0)) << "O0 trace must violate on the O2 engine";
}

TEST(VerifyOptLevel, MonitorViolationReplaysOnUnoptimizedEngines)
{
    auto design2 = compilePaperAt("buffer", "buffer_top", 2);
    auto monitor2 = compileSrcAt(kSpeakerMonitorSrc, 2);
    auto ex = design2->makeExplorer({});
    monitor2->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);

    // Feed the trace found on the minimized machine to -O0 engines of
    // both modules, wiring the monitor by name exactly as the explorer
    // does; the monitor must emit its violation in the final instant.
    auto design0 = compilePaperAt("buffer", "buffer_top", 0);
    auto monitor0 = compileSrcAt(kSpeakerMonitorSrc, 0);
    auto dEng = design0->makeEngine();
    auto mEng = monitor0->makeEngine();
    const std::vector<verify::MonitorWire> wires =
        verify::wireMonitor(dEng->moduleSema(), mEng->moduleSema());
    const std::vector<int> map =
        rt::mapTraceSignals(res.trace, dEng->moduleSema());
    for (const rt::TraceInstant& in : res.trace.instants) {
        rt::stageInputs(*dEng, res.trace, map, in);
        dEng->react();
        for (const verify::MonitorWire& w : wires) {
            if (!dEng->outputPresent(w.designSig)) continue;
            if (w.valued)
                mEng->setInputScalar(
                    w.monitorSig, dEng->outputValue(w.designSig).toInt());
            else
                mEng->setInput(w.monitorSig);
        }
        mEng->react();
    }
    EXPECT_TRUE(mEng->outputPresent(res.violation.signal));
}

// ---------------------------------------------------------------------------
// Store-kind determinism: the bitstate store must reproduce the exact
// store's canonical state counts and interning digest, and both kinds
// must agree with themselves at any thread count, over all 8 paper
// modules. (Bitstate equality is a property of the pinned inputs — no
// collision occurs at the default table size — and is deterministic, so
// pinning it here means a digest change is a real behavior change, not
// noise.)
// ---------------------------------------------------------------------------

class VerifyStoreDeterminismTest
    : public ::testing::TestWithParam<
          std::tuple<PaperCase, verify::StoreKind>> {};

TEST_P(VerifyStoreDeterminismTest, KindAndThreadCountAgree)
{
    const PaperCase& pc = std::get<0>(GetParam());
    const verify::StoreKind kind = std::get<1>(GetParam());
    auto mod = compilePaper(pc.source, pc.module);

    // Canonical reference: the exact store at 1 thread.
    std::uint64_t refStates = 0, refTransitions = 0, refDigest = 0;
    if (kind != verify::StoreKind::Exact) {
        verify::ExplorerOptions ref;
        ref.maxDepth = pc.depth;
        ref.maxStates = 200000;
        auto exRef = mod->makeExplorer(ref);
        verify::ExploreResult r = exRef->run();
        refStates = r.stats.states;
        refTransitions = r.stats.transitions;
        refDigest = exRef->stateDigest();
    }

    verify::ExploreStats first;
    std::uint64_t firstDigest = 0;
    // 2 and 3 threads split levels into uneven chunks.
    for (int threads : {1, 2, 3, 4}) {
        verify::ExplorerOptions opts;
        opts.threads = threads;
        opts.maxDepth = pc.depth;
        opts.maxStates = 200000;
        opts.storeKind = kind;
        auto ex = mod->makeExplorer(opts);
        verify::ExploreResult res = ex->run();
        EXPECT_FALSE(res.violated);
        EXPECT_EQ(res.stats.storeKind, kind);
        EXPECT_EQ(res.stats.lossyStore,
                  kind == verify::StoreKind::Bitstate);
        EXPECT_GT(res.stats.storeMemoryBytes, 0u);
        if (threads == 1) {
            first = res.stats;
            firstDigest = ex->stateDigest();
            if (kind != verify::StoreKind::Exact) {
                EXPECT_EQ(res.stats.states, refStates);
                EXPECT_EQ(res.stats.transitions, refTransitions);
                EXPECT_EQ(ex->stateDigest(), refDigest);
            }
        } else {
            EXPECT_EQ(res.stats.states, first.states);
            EXPECT_EQ(res.stats.transitions, first.transitions);
            EXPECT_EQ(res.stats.peakFrontier, first.peakFrontier);
            EXPECT_EQ(res.stats.depthReached, first.depthReached);
            EXPECT_EQ(res.stats.complete, first.complete);
            EXPECT_EQ(ex->stateDigest(), firstDigest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModulesAllKinds, VerifyStoreDeterminismTest,
    ::testing::Combine(
        ::testing::Values(PaperCase{"stack", "assemble", 8},
                          PaperCase{"stack", "checkcrc", 8},
                          PaperCase{"stack", "prochdr", 8},
                          PaperCase{"stack", "toplevel", 8},
                          PaperCase{"buffer", "producer", 8},
                          PaperCase{"buffer", "playback", 8},
                          PaperCase{"buffer", "blinker", 8},
                          PaperCase{"buffer", "buffer_top", 20}),
        ::testing::Values(verify::StoreKind::Exact,
                          verify::StoreKind::Bitstate)));

// ---------------------------------------------------------------------------
// Where a level is cut: the state cap, the store budget and the first
// violation each land inside the last level of the stack toplevel at
// depth 12 with in_byte drawn from {17, 200} (10,050 states; the last
// level holds ids 4,994-10,049) and must land on the same transition at
// every thread count, 2 and 3 threads splitting the level unevenly.
// ---------------------------------------------------------------------------

struct CutRun {
    verify::ExploreResult res;
    std::uint64_t digest = 0;
};

CutRun exploreToplevel12(const CompiledModule& design,
                         verify::ExplorerOptions opts, int threads,
                         const CompiledModule* monitor = nullptr)
{
    opts.threads = threads;
    opts.maxDepth = 12;
    opts.scalarDomains["in_byte"] = {17, 200};
    auto ex = design.makeExplorer(std::move(opts));
    if (monitor) monitor->attachAsMonitor(*ex);
    CutRun run;
    run.res = ex->run();
    run.digest = ex->stateDigest();
    return run;
}

void expectSameCut(const CutRun& a, const CutRun& b)
{
    EXPECT_EQ(b.res.stats.states, a.res.stats.states);
    EXPECT_EQ(b.res.stats.transitions, a.res.stats.transitions);
    EXPECT_EQ(b.res.stats.complete, a.res.stats.complete);
    EXPECT_EQ(b.digest, a.digest);
    EXPECT_EQ(b.res.violated, a.res.violated);
    EXPECT_EQ(b.res.violation.depth, a.res.violation.depth);
    EXPECT_EQ(traceText(b.res.trace), traceText(a.res.trace));
}

TEST(VerifyCutDeterminism, StateCapInsideTheLastLevel)
{
    auto mod = compilePaper("stack", "toplevel");
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Bitstate}) {
        verify::ExplorerOptions opts;
        opts.maxStates = 7500;
        opts.storeKind = kind;
        CutRun first;
        for (int threads : {1, 2, 3, 4}) {
            SCOPED_TRACE(std::string(verify::storeKindName(kind)) + ", " +
                         std::to_string(threads) + " threads");
            CutRun run = exploreToplevel12(*mod, opts, threads);
            // Pinned: what interning each successor in turn gives.
            EXPECT_EQ(run.res.stats.states, 7500u);
            EXPECT_EQ(run.res.stats.transitions, 29961u);
            EXPECT_EQ(run.digest, 0x25fcec7ed7ad245bull);
            EXPECT_EQ(run.res.stats.depthReached, 12);
            EXPECT_FALSE(run.res.stats.complete);
            EXPECT_FALSE(run.res.violated);
            if (threads == 1) first = std::move(run);
            else expectSameCut(first, run);
        }
    }
}

TEST(VerifyCutDeterminism, StoreBudgetInsideTheLastLevel)
{
    // The budget is checked against memoryBytes() — records plus index
    // slots — before each new state, in canonical order.
    constexpr std::uint64_t kBudget = 1'600'000;
    auto mod = compilePaper("stack", "toplevel");
    verify::ExplorerOptions opts;
    opts.storeBudgetBytes = kBudget;
    CutRun first;
    for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        CutRun run = exploreToplevel12(*mod, opts, threads);
        EXPECT_GT(run.res.stats.states, 4994u);
        EXPECT_LT(run.res.stats.states, 10050u);
        EXPECT_GT(run.res.stats.storeMemoryBytes, kBudget);
        EXPECT_EQ(run.res.stats.transitions, 29961u);
        EXPECT_FALSE(run.res.stats.complete);
        if (threads == 1) first = std::move(run);
        else expectSameCut(first, run);
    }
}

TEST(VerifyCutDeterminism, ViolationInTheLastWorkersChunk)
{
    // The monitor flags the eleventh 200 byte in a row, whichever resets
    // came between. That first happens at depth 12, on a successor of
    // frontier id 7,570, inside the last of four chunks [6,646, 7,606):
    // the earlier chunks' new states must be committed, and nothing
    // after the violating transition.
    auto design = compilePaper("stack", "toplevel");
    auto monitor = compileSrc(
        "typedef unsigned char byte;"
        "module watch (input byte in_byte, output pure violation) {"
        " int run = 0;"
        " while (1) {"
        "  await (in_byte);"
        "  if (in_byte == 200) run = run + 1; else run = 0;"
        "  if (run == 11) emit (violation);"
        " } }");
    CutRun first;
    for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        CutRun run = exploreToplevel12(*design, {}, threads, monitor.get());
        ASSERT_TRUE(run.res.violated);
        EXPECT_EQ(run.res.violation.kind,
                  verify::Violation::Kind::MonitorSignal);
        EXPECT_EQ(run.res.violation.depth, 12);
        // Pinned: what interning each successor in turn gives.
        EXPECT_EQ(run.res.stats.states, 15241u);
        EXPECT_EQ(run.res.stats.transitions, 45422u);
        EXPECT_EQ(run.digest, 0xcbf9578a4c43145aull);
        auto dEng = design->makeEngine();
        auto mEng = monitor->makeEngine();
        verify::ReplayOutcome rp =
            verify::replayCounterexample(*dEng, mEng.get(), run.res);
        EXPECT_TRUE(rp.reproduced) << rp.detail;
        if (threads == 1) first = std::move(run);
        else expectSameCut(first, run);
    }
}

// ---------------------------------------------------------------------------
// Record segments: the stack toplevel at depth 14 with in_byte drawn from
// {17, 200} (40,578 states; the last level holds 20,352). At every thread
// count from 1 to 4, each worker's successor buffer holds 7,051 or more
// records of the last level, past the 4,096 of one segment, and the bitstate
// level buffer spans five segments.
// ---------------------------------------------------------------------------

TEST(VerifyArenaDeterminism, LevelsSpanRecordSegments)
{
    auto mod = compilePaper("stack", "toplevel");
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Bitstate}) {
        for (int threads : {1, 2, 3, 4}) {
            SCOPED_TRACE(std::string(verify::storeKindName(kind)) + ", " +
                         std::to_string(threads) + " threads");
            verify::ExplorerOptions opts;
            opts.threads = threads;
            opts.maxDepth = 14;
            opts.storeKind = kind;
            opts.scalarDomains["in_byte"] = {17, 200};
            auto ex = mod->makeExplorer(opts);
            const verify::ExploreResult res = ex->run();
            EXPECT_FALSE(res.violated);
            // Pinned: what interning each successor in turn gives.
            EXPECT_EQ(res.stats.states, 40578u);
            EXPECT_EQ(res.stats.transitions, 121353u);
            EXPECT_EQ(res.stats.peakFrontier, 20352u);
            EXPECT_EQ(ex->stateDigest(), 0xab4625068e740e78ull);
            // The last level's new states alone outnumber the records of
            // one segment per worker.
            EXPECT_GT(res.stats.peakFrontier,
                      static_cast<std::uint64_t>(threads) *
                          rt::RecordArena(ex->packedSize())
                              .recordsPerSegment());
            if (kind != verify::StoreKind::Exact) continue;
            // What run() leaves, the store, re-interns into a fresh one.
            const verify::StateStore& store = ex->stateStore();
            verify::ExactStore fresh(store.packedSize());
            for (std::uint32_t id = 0; id < store.size(); ++id)
                fresh.intern(store.at(id));
            EXPECT_EQ(fresh.size(), store.size());
            EXPECT_EQ(fresh.digest(), store.digest());
        }
    }
}

// ---------------------------------------------------------------------------
// Partial-order reduction differentials vs the unreduced explorer
// ---------------------------------------------------------------------------

// Finite pure-par module: three arms awaiting private pure inputs with
// pure emissions — the shape whose composite input letters commute with
// their singleton chains.
const char* kFinitePureParSrc =
    "module m (input pure a, input pure b, input pure c,"
    " output pure oa, output pure ob, output pure oc) {"
    " while (1) {"
    "  par {"
    "    { await (a); emit (oa); }"
    "    { await (b); emit (ob); }"
    "    { await (c); emit (oc); }"
    "  }"
    "  await ();"
    " } }";

TEST(VerifyPor, FinitePureParStateSetMatchesUnreduced)
{
    auto mod = compileSrc(kFinitePureParSrc);
    auto base = mod->makeExplorer({});
    verify::ExploreResult rb = base->run();
    ASSERT_TRUE(rb.stats.complete);
    EXPECT_FALSE(rb.violated);

    verify::ExplorerOptions opts;
    opts.partialOrder = true;
    auto red = mod->makeExplorer(opts);
    verify::ExploreResult rr = red->run();
    ASSERT_TRUE(rr.stats.complete);
    EXPECT_FALSE(rr.violated);

    // The reduction must actually fire on this shape, skip work, and —
    // because every dropped composite letter commutes with a kept
    // singleton chain — still reach the IDENTICAL reachable set once
    // both runs complete (interning order differs; compare sets).
    EXPECT_GT(rr.stats.lettersReduced, 0u);
    EXPECT_LT(rr.stats.transitions, rb.stats.transitions);
    EXPECT_EQ(explorerStates(*red), explorerStates(*base));

    // The reduced explorer keeps thread-count determinism.
    opts.threads = 4;
    auto red4 = mod->makeExplorer(opts);
    verify::ExploreResult rr4 = red4->run();
    EXPECT_EQ(rr4.stats.states, rr.stats.states);
    EXPECT_EQ(rr4.stats.transitions, rr.stats.transitions);
    EXPECT_EQ(red4->stateDigest(), red->stateDigest());
}

TEST(VerifyPor, CompoundAssignmentsCommuteAtO0)
{
    // Unoptimized, `x += 3` and `x -= 2` compile to AddrVar, ConstInt,
    // StoreCompound: the compound form of a commutative update. The byte
    // wraps, so the state space is finite and both runs complete.
    const char* src =
        "typedef unsigned char byte;\n"
        "module m (input pure a, input pure b) {"
        " byte x;"
        " while (1) {"
        "  par { { await (a); x += 3; } { await (b); x -= 2; } }"
        "  await ();"
        " } }";
    Compiler compiler(src);
    CompileOptions copts;
    copts.optLevel = 0;
    auto mod = compiler.compile("m", copts);
    auto base = mod->makeExplorer({});
    const verify::ExploreResult rb = base->run();
    ASSERT_TRUE(rb.stats.complete);
    verify::ExplorerOptions opts;
    opts.partialOrder = true;
    auto red = mod->makeExplorer(opts);
    const verify::ExploreResult rr = red->run();
    ASSERT_TRUE(rr.stats.complete);
    EXPECT_GT(rr.stats.lettersReduced, 0u);
    EXPECT_LT(rr.stats.transitions, rb.stats.transitions);
    EXPECT_EQ(explorerStates(*red), explorerStates(*base));
}

TEST(VerifyPor, CorpusScenariosAgreeWithUnreduced)
{
    std::vector<corpus::Scenario> set =
        corpus::loadCorpusDir(ECL_CORPUS_DIR);
    ASSERT_GE(set.size(), 24u);
    int compared = 0;
    for (const corpus::Scenario& s : set) {
        std::shared_ptr<CompiledModule> mod;
        try {
            mod = corpus::compileScenario(s, 2);
        } catch (const EclError&) {
            continue;
        }

        verify::ExplorerOptions opts;
        opts.maxDepth = 3;
        opts.maxStates = 4000;
        verify::ExploreResult base = mod->makeExplorer(opts)->run();
        opts.partialOrder = true;
        verify::ExploreResult red = mod->makeExplorer(opts)->run();

        // Reduction only ever skips work.
        EXPECT_LE(red.stats.states, base.stats.states) << s.name;
        EXPECT_LE(red.stats.transitions, base.stats.transitions) << s.name;
        // Every reduced behavior is an unreduced behavior: a reduced
        // violation must exist in the unreduced run too, and replay
        // bit-exactly on the production engine.
        if (red.violated) {
            EXPECT_TRUE(base.violated) << s.name;
            auto eng = mod->makeEngine();
            verify::ReplayOutcome rp =
                verify::replayCounterexample(*eng, nullptr, red);
            EXPECT_TRUE(rp.reproduced) << s.name << ": " << rp.detail;
        }
        if (base.violated) {
            auto eng = mod->makeEngine();
            verify::ReplayOutcome rp =
                verify::replayCounterexample(*eng, nullptr, base);
            EXPECT_TRUE(rp.reproduced) << s.name << ": " << rp.detail;
            // A complete reduced run covers every reachable behavior up
            // to commutation, so it cannot miss the verdict.
            if (red.stats.complete) {
                EXPECT_TRUE(red.violated) << s.name;
            }
        }
        if (base.stats.complete && red.stats.complete) {
            EXPECT_EQ(red.violated, base.violated) << s.name;
        }
        ++compared;
    }
    EXPECT_GE(compared, 24);
}

TEST(VerifyPor, GeneratedProgramsVerdictDifferential)
{
    // 200 generator programs (first compiling seeds from 1 up), each
    // explored with reduction off and on under identical bounds.
    int tested = 0;
    for (unsigned seed = 1; tested < 200 && seed < 4000; ++seed) {
        corpus::ProgramGen gen(seed, 3);
        std::shared_ptr<CompiledModule> mod;
        try {
            mod = compileSrc(gen.generate());
        } catch (const EclError&) {
            continue; // causality-rejected seed
        }

        verify::ExplorerOptions opts;
        opts.maxDepth = 3;
        opts.maxStates = 1500;
        verify::ExploreResult base = mod->makeExplorer(opts)->run();
        opts.partialOrder = true;
        verify::ExploreResult red = mod->makeExplorer(opts)->run();

        EXPECT_LE(red.stats.states, base.stats.states) << "seed " << seed;
        EXPECT_LE(red.stats.transitions, base.stats.transitions)
            << "seed " << seed;
        if (red.violated) {
            EXPECT_TRUE(base.violated) << "seed " << seed;
            auto eng = mod->makeEngine();
            verify::ReplayOutcome rp =
                verify::replayCounterexample(*eng, nullptr, red);
            EXPECT_TRUE(rp.reproduced)
                << "seed " << seed << ": " << rp.detail;
        }
        if (base.violated && red.stats.complete) {
            EXPECT_TRUE(red.violated) << "seed " << seed;
        }
        if (base.stats.complete && red.stats.complete) {
            EXPECT_EQ(red.violated, base.violated) << "seed " << seed;
        }
        ++tested;
    }
    EXPECT_EQ(tested, 200);
}

TEST(VerifyPor, PureParCorpusScenarioReducesAtLeast3x)
{
    // The acceptance bar: on the committed wide-par corpus scenario the
    // reduced run explores at least 3x fewer states than the unreduced
    // one under the same bounds, with the same (clean) verdict. The
    // exact counts are pinned — they are as deterministic as the corpus
    // digests themselves.
    std::vector<corpus::Scenario> set =
        corpus::loadCorpusDir(ECL_CORPUS_DIR);
    const corpus::Scenario* par = nullptr;
    for (const corpus::Scenario& s : set)
        if (s.name == "par_pure10") par = &s;
    ASSERT_NE(par, nullptr) << "par_pure10.scn missing from the corpus";
    auto mod = corpus::compileScenario(*par, 2);

    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    verify::ExploreResult base = mod->makeExplorer(opts)->run();
    opts.partialOrder = true;
    verify::ExploreResult red = mod->makeExplorer(opts)->run();

    EXPECT_FALSE(base.violated);
    EXPECT_FALSE(red.violated);
    EXPECT_EQ(base.stats.states, 1026u);
    EXPECT_EQ(red.stats.states, 59u);
    EXPECT_GT(red.stats.lettersReduced, 0u);
    EXPECT_GE(base.stats.states, 3 * red.stats.states);
}

// ---------------------------------------------------------------------------
// Native successor computation vs the VM
// ---------------------------------------------------------------------------

class VerifyNativeSuccTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(VerifyNativeSuccTest, StateSetMatchesVm)
{
    const PaperCase& pc = GetParam();
    auto mod = compilePaper(pc.source, pc.module);

    verify::ExplorerOptions opts;
    opts.maxDepth = pc.depth;
    opts.maxStates = 200000;
    auto vmEx = mod->makeExplorer(opts);
    verify::ExploreResult rv = vmEx->run();

    opts.nativeSuccessors = true;
    auto natEx = mod->makeExplorer(opts);
    verify::ExploreResult rn = natEx->run();
    if (!rn.stats.usedNativeSuccessors)
        GTEST_SKIP() << "no host C compiler; native successors fell back "
                        "to the VM";

    // Bit-exact agreement: same states in the same canonical order.
    EXPECT_EQ(rn.stats.states, rv.stats.states);
    EXPECT_EQ(rn.stats.transitions, rv.stats.transitions);
    EXPECT_EQ(rn.stats.complete, rv.stats.complete);
    EXPECT_EQ(natEx->stateDigest(), vmEx->stateDigest());
    EXPECT_EQ(rn.violated, rv.violated);
}

INSTANTIATE_TEST_SUITE_P(
    PaperModules, VerifyNativeSuccTest,
    ::testing::Values(PaperCase{"stack", "assemble", 8},
                      PaperCase{"stack", "toplevel", 8},
                      PaperCase{"buffer", "producer", 8},
                      PaperCase{"buffer", "buffer_top", 12}));

TEST(VerifyNativeSucc, ValuedModuleAgreesAndFallbackIsHonest)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 5;
    auto vmEx = mod->makeExplorer(opts);
    verify::ExploreResult rv = vmEx->run();
    EXPECT_FALSE(rv.stats.usedNativeSuccessors); // not requested

    opts.nativeSuccessors = true;
    auto natEx = mod->makeExplorer(opts);
    verify::ExploreResult rn = natEx->run();
    if (!rn.stats.usedNativeSuccessors)
        GTEST_SKIP() << "no host C compiler; native successors fell back "
                        "to the VM";
    EXPECT_EQ(rn.stats.states, rv.stats.states);
    EXPECT_EQ(natEx->stateDigest(), vmEx->stateDigest());
}

// ---------------------------------------------------------------------------
// Bitstate coverage in a fixed memory budget
// ---------------------------------------------------------------------------

TEST(VerifyStoreScaling, BitstateCoversTenTimesMoreStatesInBudget)
{
    // A generated deep-preemption program whose counter makes the data
    // state space effectively unbounded. The exact store stops when its
    // arena + index exceed the budget; the bitstate table — a few BITS
    // per state in the same budget — must cover >= 10x more states.
    auto mod = compileSrc(corpus::deepPreemptProgram(8));
    const std::uint64_t kBudget = 64 * 1024;

    verify::ExplorerOptions opts;
    opts.storeBudgetBytes = kBudget;
    verify::ExploreResult exact = mod->makeExplorer(opts)->run();
    ASSERT_FALSE(exact.stats.complete); // the budget is what stopped it
    ASSERT_GT(exact.stats.states, 0u);
    EXPECT_FALSE(exact.violated);

    verify::ExplorerOptions bopts;
    bopts.storeKind = verify::StoreKind::Bitstate;
    bopts.storeBudgetBytes = kBudget;
    bopts.maxStates =
        static_cast<std::uint32_t>(30 * exact.stats.states);
    verify::ExploreResult bit = mod->makeExplorer(bopts)->run();
    EXPECT_TRUE(bit.stats.lossyStore);
    EXPECT_LE(bit.stats.storeMemoryBytes, kBudget);
    EXPECT_FALSE(bit.violated);
    EXPECT_GE(bit.stats.states, 10 * exact.stats.states);
}

} // namespace
