// Randomized concurrency/differential stress suite for the batch
// multi-instance runtime (src/runtime/batch_engine.h).
//
// For every (module, backend) pair the suite builds a single-threaded
// REFERENCE by driving N independent single engines (SyncEngine for the
// VM backend, NativeEngine for the AOT one) with a seeded mixed
// sparse/dense stimulus, recording each instant's reacted set, full
// ReactionResults and the final packed state of every instance. Batch
// engines at every thread count — including more threads than the
// machine has cores — must then reproduce the reference bit-exactly:
// reacted flags, outputs, ExecCounters, the merged step-event stream
// (ascending instance order, per-instance emission order preserved) and
// packed final state. A separate determinism pin compares the
// concatenated event streams across thread counts directly, and a drain
// sweep follows every stimulus instant with empty ones, as the benches'
// drain tail does. Modules cover the paper designs and
// full-kernel-grammar generated programs (src/corpus/program_gen.h).
// BatchTrapSmoke pins that a data trap in one instance leaves every
// other instance of the step reacting, at one thread and at four.
// BatchPageSmoke drives the instances on either side of each record
// arena segment edge through inputs, park, reset and restore;
// BatchLastResultSmoke pins when lastResult() has a reaction to report;
// BatchStagingSmoke that a rejected input stages nothing.
// BatchOrderSmoke pins that a step's outcome does not depend on the order
// its inputs were staged in.
//
// Tests named *Smoke* are the fast subset the ASan CI job runs; the
// TSan job runs the whole binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/program_gen.h"
#include "tests/ecl_test_util.h"

namespace {

using namespace ecl;
using corpus::ProgramGen;

// --- module corpus -----------------------------------------------------------

struct ModuleCase {
    const char* name;   ///< Display/test-parameter name.
    const char* paper;  ///< "stack"/"buffer", or nullptr for generated.
    const char* module; ///< Top module (paper sources).
    unsigned genSeed;   ///< ProgramGen seed when paper == nullptr.
};

std::shared_ptr<CompiledModule> compileCase(const ModuleCase& mc)
{
    if (mc.paper) {
        Compiler compiler(std::string(mc.paper) == std::string("stack")
                              ? paper::protocolStackSource()
                              : paper::audioBufferSource());
        return compiler.compile(mc.module);
    }
    ProgramGen gen(mc.genSeed);
    Compiler compiler(gen.generate());
    return compiler.compile("m"); // may throw (causality): caller skips
}

constexpr ModuleCase kModules[] = {
    {"stack_toplevel", "stack", "toplevel", 0},
    {"buffer_top", "buffer", "buffer_top", 0},
    {"gen5", nullptr, nullptr, 5},
    {"gen12", nullptr, nullptr, 12},
};

// --- seeded stimulus ---------------------------------------------------------

/// Mixed sparse/dense population: instance i's traffic class is i % 4 —
/// dense (every instant), bursty (5 on / 15 off), sparse (1 in 17),
/// idle (boot only).
bool classActive(std::size_t i, int t)
{
    switch (i % 4) {
    case 0: return true;
    case 1: return t % 20 < 5;
    case 2: return t % 17 == 0;
    default: return false;
    }
}

/// One instant's input draw for one instance, applied to a batch slot
/// and/or a single engine. The draw sequence depends only on the rng
/// state, so identical seeds reproduce identical stimuli on every side.
bool applyInputs(std::mt19937& rng, const ModuleSema& sema,
                 rt::BatchEngine* batch, std::size_t inst,
                 rt::ReactiveEngine* single)
{
    bool any = false;
    for (const SignalInfo& s : sema.signals) {
        if (s.dir != SignalDir::Input) continue;
        if ((rng() & 3u) != 0) continue; // present 1/4 of draws
        any = true;
        if (s.pure) {
            if (batch) batch->setInput(inst, s.index);
            if (single) single->setInput(s.index);
        } else {
            Value v(s.valueType);
            for (std::size_t b = 0; b < v.size(); ++b)
                v.data()[b] = static_cast<std::uint8_t>(rng());
            if (batch) batch->setInputValue(inst, s.index, v);
            if (single) single->setInputValue(s.index, std::move(v));
        }
    }
    return any;
}

/// Whether instance i draws inputs at instant t >= 1. Only every
/// `period`-th instant carries stimulus; the period - 1 instants after
/// it are empty, so only instances with an auto-resume pending react.
bool drawsAt(std::size_t i, int t, int period)
{
    return (t - 1) % period == 0 && classActive(i, (t - 1) / period);
}

unsigned instanceSeed(std::size_t i) // one rng stream per instance
{
    return static_cast<unsigned>(7000003 * i + 101);
}

int instantsFor(int instances)
{
    return instances >= 1000 ? 6 : instances >= 64 ? 16 : 40;
}

// --- reference (N independent single engines) --------------------------------

struct Reference {
    std::string backend; ///< Resolved backend name ("flat"/"native").
    /// Per instant: ascending reacted instance ids and their full
    /// reaction records (parallel arrays). Instant 0 is the boot step.
    std::vector<std::vector<std::uint32_t>> reacted;
    std::vector<std::vector<rt::ReactionResult>> results;
    std::vector<std::vector<std::uint8_t>> finalState;
};

std::unique_ptr<rt::ReactiveEngine>
makeSingle(const std::shared_ptr<CompiledModule>& mod, bool native)
{
    if (native) return mod->makeEngine(EngineKind::Native);
    return mod->makeEngine(EngineKind::Flat);
}

Reference buildReference(const std::shared_ptr<CompiledModule>& mod,
                         std::size_t n, bool native, int instants,
                         int period)
{
    const ModuleSema& sema = mod->moduleSema();
    Reference ref;
    std::vector<std::unique_ptr<rt::ReactiveEngine>> engines;
    std::vector<std::mt19937> rngs;
    for (std::size_t i = 0; i < n; ++i) {
        engines.push_back(makeSingle(mod, native));
        rngs.emplace_back(instanceSeed(i));
    }
    ref.backend = engines[0]->backendName();

    for (int t = 0; t <= instants; ++t) {
        std::vector<std::uint32_t> reacted;
        std::vector<rt::ReactionResult> results;
        for (std::size_t i = 0; i < n; ++i) {
            bool run;
            if (t == 0) {
                run = true; // boot: fresh batch instances are all dirty
            } else {
                bool resume = engines[i]->needsAutoResume();
                bool any = drawsAt(i, t, period) &&
                           applyInputs(rngs[i], sema, nullptr, i,
                                       engines[i].get());
                run = any || resume;
            }
            if (!run) continue;
            reacted.push_back(static_cast<std::uint32_t>(i));
            results.push_back(engines[i]->react());
        }
        ref.reacted.push_back(std::move(reacted));
        ref.results.push_back(std::move(results));
    }
    for (std::size_t i = 0; i < n; ++i)
        ref.finalState.push_back(engines[i]->packState());
    return ref;
}

// --- batch run + comparison --------------------------------------------------

void expectCountersEqual(const ExecCounters& a, const ExecCounters& b,
                         const char* where)
{
    EXPECT_EQ(a.exprOps, b.exprOps) << where;
    EXPECT_EQ(a.loads, b.loads) << where;
    EXPECT_EQ(a.stores, b.stores) << where;
    EXPECT_EQ(a.branches, b.branches) << where;
    EXPECT_EQ(a.calls, b.calls) << where;
    EXPECT_EQ(a.aggBytes, b.aggBytes) << where;
}

/// Runs the seeded stimulus through a batch engine at `threads` and
/// asserts bit-exactness against the reference; returns the full
/// concatenated event stream for cross-thread-count determinism pins.
std::vector<rt::BatchEngine::StepEvent>
runAndCompare(const std::shared_ptr<CompiledModule>& mod,
              const Reference& ref, std::size_t n, int threads, bool native,
              int instants, int period)
{
    const ModuleSema& sema = mod->moduleSema();
    auto batch = mod->makeBatchEngine(
        n, {.threads = threads},
        native ? EngineKind::Native : EngineKind::Flat);
    EXPECT_EQ(ref.backend, batch->backendName());
    std::vector<std::mt19937> rngs;
    for (std::size_t i = 0; i < n; ++i) rngs.emplace_back(instanceSeed(i));

    std::vector<rt::BatchEngine::StepEvent> allEvents;
    for (int t = 0; t <= instants; ++t) {
        if (t > 0)
            for (std::size_t i = 0; i < n; ++i)
                if (drawsAt(i, t, period))
                    applyInputs(rngs[i], sema, batch.get(), i, nullptr);
        const std::vector<std::uint32_t>& reacted =
            ref.reacted[static_cast<std::size_t>(t)];
        const std::vector<rt::ReactionResult>& results =
            ref.results[static_cast<std::size_t>(t)];
        EXPECT_EQ(batch->step(), reacted.size())
            << "t" << threads << " instant " << t;

        std::size_t cursor = 0; // walks the reference's reacted set
        for (std::size_t i = 0; i < n; ++i) {
            const bool expect =
                cursor < reacted.size() && reacted[cursor] == i;
            EXPECT_EQ(batch->reactedLastStep(i), expect)
                << "t" << threads << " inst " << i << " instant " << t;
            if (!expect) continue;
            const rt::ReactionResult& ro = results[cursor];
            const rt::ReactionResult& rb = batch->lastResult(i);
            EXPECT_EQ(rb.emittedOutputs, ro.emittedOutputs)
                << "t" << threads << " inst " << i << " instant " << t;
            EXPECT_EQ(rb.terminated, ro.terminated)
                << "t" << threads << " inst " << i << " instant " << t;
            EXPECT_EQ(rb.treeTests, ro.treeTests)
                << "t" << threads << " inst " << i << " instant " << t;
            EXPECT_EQ(rb.actionsRun, ro.actionsRun)
                << "t" << threads << " inst " << i << " instant " << t;
            EXPECT_EQ(rb.emitsRun, ro.emitsRun)
                << "t" << threads << " inst " << i << " instant " << t;
            expectCountersEqual(rb.dataCounters, ro.dataCounters, "batch");
            ++cursor;
        }
        EXPECT_EQ(cursor, reacted.size());

        // Merged event stream: the reference outputs in ascending
        // instance order, identical for every thread count.
        const auto& events = batch->lastStepEvents();
        std::size_t e = 0;
        for (std::size_t r = 0; r < reacted.size(); ++r)
            for (int sig : results[r].emittedOutputs) {
                if (e >= events.size()) {
                    ADD_FAILURE() << "event stream short: t" << threads
                                  << " instant " << t;
                    return allEvents;
                }
                EXPECT_EQ(events[e].instance, reacted[r])
                    << "t" << threads << " instant " << t;
                EXPECT_EQ(events[e].signal, sig)
                    << "t" << threads << " instant " << t;
                ++e;
            }
        EXPECT_EQ(e, events.size()) << "t" << threads << " instant " << t;
        allEvents.insert(allEvents.end(), events.begin(), events.end());
    }

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(batch->packInstanceState(i), ref.finalState[i])
            << "t" << threads << " inst " << i;
    return allEvents;
}

// --- the matrix --------------------------------------------------------------

struct StressCase {
    ModuleCase mod;
    bool native;
};

void PrintTo(const StressCase& c, std::ostream* os)
{
    *os << c.mod.name << (c.native ? "/native" : "/vm");
}

class BatchStressTest : public ::testing::TestWithParam<StressCase> {
protected:
    /// Null when the generator produced a causality-rejected program —
    /// the caller GTEST_SKIPs.
    std::shared_ptr<CompiledModule> compileOrNull()
    {
        try {
            return compileCase(GetParam().mod);
        } catch (const EclError& e) {
            // Only a causality reject skips: every compile has flat
            // tables, so failing to build them is a bug.
            EXPECT_EQ(std::string(e.what()).find("flat tables for module"),
                      std::string::npos)
                << e.what();
            return nullptr;
        }
    }

    /// Full sweep for one instance count: reference once, then every
    /// thread count (including oversubscribed: 8 > typical CI cores)
    /// compared to it and to each other (determinism pin). `period` > 1
    /// stretches the run so each stimulus instant is followed by
    /// period - 1 empty ones (see drawsAt).
    void sweepThreads(const std::shared_ptr<CompiledModule>& mod,
                      std::size_t n, std::initializer_list<int> threads,
                      int period = 1)
    {
        const bool native = GetParam().native;
        const int instants = instantsFor(static_cast<int>(n)) * period;
        Reference ref = buildReference(mod, n, native, instants, period);
        std::vector<rt::BatchEngine::StepEvent> pinned;
        bool first = true;
        for (int t : threads) {
            auto events =
                runAndCompare(mod, ref, n, t, native, instants, period);
            if (first) {
                pinned = std::move(events);
                first = false;
                continue;
            }
            // Same seed => byte-identical output ordering at every
            // thread count.
            ASSERT_EQ(events.size(), pinned.size()) << "threads " << t;
            for (std::size_t k = 0; k < events.size(); ++k) {
                ASSERT_EQ(events[k].instance, pinned[k].instance)
                    << "threads " << t << " event " << k;
                ASSERT_EQ(events[k].signal, pinned[k].signal)
                    << "threads " << t << " event " << k;
            }
        }
    }
};

TEST_P(BatchStressTest, SmokeSingleInstanceAllThreadCounts)
{
    auto mod = compileOrNull();
    if (!mod) GTEST_SKIP() << "module unavailable (causality-rejected)";
    sweepThreads(mod, 1, {1, 2, 4, 8});
}

TEST_P(BatchStressTest, SmokeMidPopulationAllThreadCounts)
{
    auto mod = compileOrNull();
    if (!mod) GTEST_SKIP() << "module unavailable (causality-rejected)";
    sweepThreads(mod, 64, {1, 2, 4, 8});
}

TEST_P(BatchStressTest, LargePopulation)
{
    auto mod = compileOrNull();
    if (!mod) GTEST_SKIP() << "module unavailable (causality-rejected)";
    // 1000 instances crosses the adaptive-participation grain at every
    // thread count (1000 / 128 ≈ 7 shards wanted), so all workers really
    // run; instants are few to keep the TSan budget sane.
    sweepThreads(mod, 1000, {1, 4, 8});
}

TEST_P(BatchStressTest, DrainTailMatchesReference)
{
    auto mod = compileOrNull();
    if (!mod) GTEST_SKIP() << "module unavailable (causality-rejected)";
    // The benches drain a batch with step() calls that carry no inputs,
    // reading lastStepEvents() after each. Three empty instants after
    // every stimulus instant: auto-resume chains must drain exactly as
    // on the independent engines, at one thread and at four.
    sweepThreads(mod, 64, {1, 4}, /*period=*/4);
}

// A data trap in one instance ends only that instance's reaction: every
// other instance of the step still reacts, delta pauses are re-scheduled,
// and step() rethrows the single engine's trap text — at any thread
// count, on both backends.
TEST(BatchTrapSmoke, TrapInOneInstanceLeavesTheOthersReacting)
{
    Compiler compiler("module m (input int v, output int o,\n"
                      "          output pure tick)\n"
                      "{\n"
                      "    while (1) {\n"
                      "        await (v);\n"
                      "        emit_v (o, 100 / v);\n"
                      "        await ();\n"
                      "        emit (tick);\n"
                      "    }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int v = sema.findSignal("v")->index;
    const int o = sema.findSignal("o")->index;
    const int tick = sema.findSignal("tick")->index;
    // Instances 0 and 300 divide by zero; with 4 threads they sit in
    // different shards (600 instances split 150 per worker).
    constexpr std::size_t kInstances = 600;
    auto traps = [](std::size_t i) { return i % 300 == 0; };
    const std::size_t kValid = kInstances - 2;

    bool haveNative = false;
    for (EngineKind kind : {EngineKind::Flat, EngineKind::Native}) {
        // The single engine of the same backend gives the expected text.
        auto single = mod->makeEngine(kind);
        if (kind == EngineKind::Native) {
            haveNative = std::string(single->backendName()) == "native";
            if (!haveNative) continue;
        }
        single->react();
        single->setInputScalar(v, 0);
        std::string singleMsg = "(no trap)";
        try {
            single->react();
        } catch (const EclError& e) {
            singleMsg = e.what();
        }
        ASSERT_NE(singleMsg.find("division by zero"), std::string::npos)
            << singleMsg;

        for (int threads : {1, 4}) {
            SCOPED_TRACE(std::string(single->backendName()) + " threads " +
                         std::to_string(threads));
            auto batch = mod->makeBatchEngine(kInstances,
                                              {.threads = threads}, kind);
            ASSERT_STREQ(batch->backendName(), single->backendName());
            batch->step(); // boot: every instance reaches await (v)
            for (std::size_t i = 0; i < kInstances; ++i)
                batch->setInputScalar(i, v, traps(i) ? 0 : 5);
            std::string msg = "(no trap)";
            try {
                batch->step();
            } catch (const EclError& e) {
                msg = e.what();
            }
            EXPECT_EQ(msg, singleMsg);

            std::size_t reacted = 0;
            for (std::size_t i = 0; i < kInstances; ++i) {
                if (!batch->reactedLastStep(i)) continue;
                EXPECT_FALSE(traps(i)) << "instance " << i;
                EXPECT_EQ(batch->outputValue(i, o).toInt(), 20)
                    << "instance " << i;
                ++reacted;
            }
            EXPECT_EQ(reacted, kValid);

            // Every instance that reacted sits in the delta pause, so the
            // next step resumes exactly those and each emits tick.
            EXPECT_EQ(batch->step(), kValid);
            std::size_t ticks = 0;
            for (const rt::BatchEngine::StepEvent& ev :
                 batch->lastStepEvents())
                if (ev.signal == tick) ++ticks;
            EXPECT_EQ(ticks, kValid);
        }
    }
    if (!haveNative)
        GTEST_SKIP() << "AOT native backend unavailable; VM checked only";
}

// --- segment edges and lastResult -------------------------------------------

// The instance on each side of every segment edge, and the last instance,
// alone in its segment. The protocol stack's records are 280 bytes on the
// VM and 232 native, so an rt::RecordArena segment holds 2,048 or 4,096
// of them: the edges below are both backends' (the native ones every
// second pair).
constexpr std::size_t kPagedInstances = 4 * 2048 + 1;
constexpr std::size_t kEdges[] = {2047, 2048, 4095, 4096,
                                  6143, 6144, 8191, 8192};
/// Their segment neighbours, which also get traffic; kDonors[k] is what
/// kEdges[k] is restored from, in another segment on either backend.
constexpr std::size_t kNeighbours[] = {0,    1,    2046, 2049, 4094,
                                       4097, 6142, 6145, 8190};
constexpr std::size_t kDonors[] = {4097, 6142, 8190, 2046,
                                   1,    2049, 4094, 0};

bool isEdge(std::size_t i)
{
    return std::find(std::begin(kEdges), std::end(kEdges), i) !=
           std::end(kEdges);
}

/// One batch instance's reference: a single engine of the same backend,
/// the bytes it was fed, one per reaction (-1: none), and whether its
/// next reaction is a boot. A restore from a donor is mirrored by a fresh
/// engine replaying the donor's reactions.
struct Mirror {
    std::unique_ptr<rt::ReactiveEngine> eng;
    std::vector<int> fed;
    bool boot = true;
    bool parked = false;
};

void expectSameReaction(const rt::ReactionResult& rb,
                        const rt::ReactionResult& ro, std::size_t inst)
{
    EXPECT_EQ(rb.emittedOutputs, ro.emittedOutputs) << "inst " << inst;
    EXPECT_EQ(rb.terminated, ro.terminated) << "inst " << inst;
    EXPECT_EQ(rb.treeTests, ro.treeTests) << "inst " << inst;
    EXPECT_EQ(rb.actionsRun, ro.actionsRun) << "inst " << inst;
    EXPECT_EQ(rb.emitsRun, ro.emitsRun) << "inst " << inst;
    expectCountersEqual(rb.dataCounters, ro.dataCounters, "segment edge");
}

/// Every instance of `batch` against its mirror after one step: reacted
/// mark, packed state, and for a reacted instance its reaction and
/// presence; the merged events are the mirrors' outputs in instance
/// order, and an edge that did not react has no last reaction.
void expectMatchesMirrors(
    const rt::BatchEngine& batch, const std::vector<Mirror>& ref,
    const std::vector<std::optional<rt::ReactionResult>>& results)
{
    const ModuleSema& sema = batch.moduleSema();
    std::vector<rt::BatchEngine::StepEvent> events;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(batch.reactedLastStep(i), results[i].has_value())
            << "inst " << i;
        ASSERT_EQ(batch.packInstanceState(i), ref[i].eng->packState())
            << "inst " << i;
        if (!results[i]) {
            if (isEdge(i)) {
                EXPECT_THROW((void)batch.lastResult(i), EclError);
            }
            continue;
        }
        expectSameReaction(batch.lastResult(i), *results[i], i);
        for (const SignalInfo& sig : sema.signals)
            EXPECT_EQ(batch.outputPresent(i, sig.index),
                      ref[i].eng->outputPresent(sig.index))
                << "inst " << i << " signal " << sig.name;
        for (int out : results[i]->emittedOutputs)
            events.push_back({static_cast<std::uint32_t>(i), out});
    }
    const auto& got = batch.lastStepEvents();
    ASSERT_EQ(got.size(), events.size());
    for (std::size_t k = 0; k < events.size(); ++k) {
        EXPECT_EQ(got[k].instance, events[k].instance) << "event " << k;
        EXPECT_EQ(got[k].signal, events[k].signal) << "event " << k;
    }
}

/// Instances on both sides of every segment edge — and their neighbours
/// — take packets of the protocol stack; the edges are parked, reset and
/// restored from instances in other segments. After every step both
/// batch engines (1 and 4 threads) must equal the independent single
/// engines.
void checkPageEdges(EngineKind kind)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    const int inByte = mod->moduleSema().findSignal("in_byte")->index;
    const std::vector<std::uint8_t> pkt =
        test::makePacket(paper::kAddrByte, 1);

    std::vector<Mirror> ref(kPagedInstances);
    for (Mirror& m : ref) m.eng = mod->makeEngine(kind);
    if (kind == EngineKind::Native &&
        std::string(ref[0].eng->backendName()) != "native")
        GTEST_SKIP() << "AOT native backend unavailable";
    std::vector<std::unique_ptr<rt::BatchEngine>> batches;
    for (int threads : {1, 4})
        batches.push_back(mod->makeBatchEngine(kPagedInstances,
                                               {.threads = threads}, kind));
    // A record plus 7 bytes of scheduling rows: when the records change
    // size, kEdges must move to the new segment edges.
    ASSERT_EQ(batches[0]->bytesPerInstance(),
              kind == EngineKind::Native ? 239u : 287u);
    auto replay = [&](Mirror& m, const std::vector<int>& fed) {
        m.eng = mod->makeEngine(kind);
        for (int b : fed) {
            if (b >= 0) m.eng->setInputScalar(inByte, b);
            (void)m.eng->react();
        }
        m.fed = fed;
        m.boot = false;
        m.parked = false;
    };

    const int steps = static_cast<int>(pkt.size()) + 24;
    std::size_t edgeOutputs = 0;
    for (int t = 0; t < steps; ++t) {
        SCOPED_TRACE("step " + std::to_string(t));
        if (t == 10)
            for (std::size_t e : kEdges) {
                for (auto& b : batches) b->parkInstance(e);
                ref[e].parked = true;
            }
        if (t == 15)
            for (std::size_t e : kEdges) {
                for (auto& b : batches) b->resetInstance(e);
                ref[e] = Mirror{mod->makeEngine(kind), {}, true, false};
            }
        if (t == 30)
            for (std::size_t k = 0; k < std::size(kEdges); ++k) {
                const std::vector<std::uint8_t> state =
                    batches[0]->packInstanceState(kDonors[k]);
                for (auto& b : batches)
                    b->restoreInstanceState(kEdges[k], state.data(),
                                            state.size());
                replay(ref[kEdges[k]], ref[kDonors[k]].fed);
            }

        // Each instance continues its own packet, one byte a step, but
        // every seventh step is empty: only delta pauses react then.
        std::vector<int> staged(kPagedInstances, -1);
        if (t > 0 && t % 7 != 0) {
            auto feed = [&](std::size_t i) {
                if (ref[i].parked) return;
                std::size_t n = 0;
                for (int b : ref[i].fed) n += b >= 0;
                staged[i] = pkt[n % pkt.size()];
                for (auto& b : batches)
                    b->setInputScalar(i, inByte, staged[i]);
                ref[i].eng->setInputScalar(inByte, staged[i]);
            };
            for (std::size_t i : kEdges) feed(i);
            for (std::size_t i : kNeighbours) feed(i);
        }

        std::vector<std::optional<rt::ReactionResult>> results(
            kPagedInstances);
        std::size_t reactions = 0;
        for (std::size_t i = 0; i < kPagedInstances; ++i) {
            Mirror& m = ref[i];
            if (m.parked ||
                !(m.boot || staged[i] >= 0 || m.eng->needsAutoResume()))
                continue;
            results[i] = m.eng->react();
            m.fed.push_back(staged[i]);
            m.boot = false;
            ++reactions;
        }
        for (std::size_t e : kEdges)
            if (results[e]) edgeOutputs += results[e]->emittedOutputs.size();
        for (auto& b : batches) {
            SCOPED_TRACE(std::to_string(b->threads()) + " thread(s)");
            ASSERT_EQ(b->step(), reactions);
            expectMatchesMirrors(*b, ref, results);
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
    // The restored edges finished their donors' packets.
    EXPECT_GT(edgeOutputs, 0u);
}

TEST(BatchPageSmoke, VmInstancesAcrossPageEdges)
{
    checkPageEdges(EngineKind::Flat);
}

TEST(BatchPageSmoke, NativeInstancesAcrossPageEdges)
{
    checkPageEdges(EngineKind::Native);
}

// A 4 MiB instance gets an arena segment of its own (1024 records of it
// would be 4 GiB): instances in consecutive segments react, stage, reset
// and restore independently, each equal to a single engine fed the same
// values.
TEST(BatchPageSmoke, BigRecordsGetAPageEach)
{
    Compiler compiler("module m (input int v, output int o) {\n"
                      "  int a[1048576];\n"
                      "  while (1) {\n"
                      "    await (v);\n"
                      "    a[(v * 7919) & 1048575] += v;\n"
                      "    emit_v (o, a[(v * 7919) & 1048575] + a[1048575]);\n"
                      "  }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    const int v = mod->moduleSema().findSignal("v")->index;
    const int o = mod->moduleSema().findSignal("o")->index;
    constexpr std::size_t kInstances = 3;
    auto batch = mod->makeBatchEngine(kInstances);
    std::vector<std::unique_ptr<rt::ReactiveEngine>> ref;
    for (std::size_t i = 0; i < kInstances; ++i)
        ref.push_back(mod->makeEngine());
    batch->step();
    for (auto& e : ref) e->react();
    for (std::int64_t round = 1; round <= 4; ++round) {
        for (std::size_t i = 0; i < kInstances; ++i) {
            const std::int64_t value =
                round * 131071 + static_cast<std::int64_t>(i);
            batch->setInputScalar(i, v, value);
            ref[i]->setInputScalar(v, value);
            ref[i]->react();
        }
        ASSERT_EQ(batch->step(), kInstances);
        for (std::size_t i = 0; i < kInstances; ++i) {
            EXPECT_EQ(batch->outputValue(i, o).toInt(),
                      ref[i]->outputValue(o).toInt())
                << "round " << round << " inst " << i;
            EXPECT_EQ(batch->packInstanceState(i), ref[i]->packState())
                << "round " << round << " inst " << i;
        }
    }
    // Instance 1 takes instance 0's state; instance 2 starts over.
    const std::vector<std::uint8_t> donor = batch->packInstanceState(0);
    batch->restoreInstanceState(1, donor.data(), donor.size());
    batch->resetInstance(2);
    EXPECT_EQ(batch->packInstanceState(1), donor);
    EXPECT_EQ(batch->packInstanceState(2),
              mod->makeEngine()->packState());
}

// lastResult() reports only a reaction of the last step: it throws for an
// instance that did not react, for one whose reaction trapped, and for
// one reset since — a reused slot never shows its previous tenant's
// reaction.
TEST(BatchLastResultSmoke, ThrowsWithoutALastReaction)
{
    Compiler compiler("module m (input int v, output int o)\n"
                      "{\n"
                      "    while (1) {\n"
                      "        await (v);\n"
                      "        emit_v (o, 100 / v);\n"
                      "    }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    const int v = mod->moduleSema().findSignal("v")->index;
    const int o = mod->moduleSema().findSignal("o")->index;
    for (EngineKind kind : {EngineKind::Flat, EngineKind::Native}) {
        auto batch = mod->makeBatchEngine(3, {}, kind);
        SCOPED_TRACE(batch->backendName());
        EXPECT_THROW((void)batch->lastResult(0), EclError); // never reacted
        batch->step(); // boot
        EXPECT_NO_THROW((void)batch->lastResult(0));
        batch->setInputScalar(0, v, 5);
        batch->setInputScalar(1, v, 0); // traps
        EXPECT_THROW(batch->step(), EclError);
        const rt::ReactionResult r = batch->lastResult(0);
        EXPECT_EQ(r.emittedOutputs, std::vector<int>{o});
        EXPECT_THROW((void)batch->lastResult(1), EclError); // trapped
        EXPECT_THROW((void)batch->lastResult(2), EclError); // did not react
        batch->resetInstance(0);
        EXPECT_THROW((void)batch->lastResult(0), EclError); // reset
        EXPECT_THROW((void)batch->lastResult(3), EclError); // out of range
    }
}

// A rejected input stages nothing: the instant stays closed, the instance
// is not queued, and a later valid input is staged and reacted as usual —
// so a serving layer never sees a session with "staged inputs" that no
// step will consume.
TEST(BatchStagingSmoke, RejectedValueLeavesNoInstantOpen)
{
    Compiler compiler("module m (input pure p, input int v, output int o)\n"
                      "{\n"
                      "    while (1) {\n"
                      "        await (v);\n"
                      "        emit_v (o, v);\n"
                      "    }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int p = sema.findSignal("p")->index;
    const int v = sema.findSignal("v")->index;
    const int o = sema.findSignal("o")->index;
    const Value three = Value::fromInt(sema.findSignal("v")->valueType, 3);
    for (EngineKind kind : {EngineKind::Flat, EngineKind::Native}) {
        auto batch = mod->makeBatchEngine(2, {}, kind);
        SCOPED_TRACE(batch->backendName());
        batch->step(); // boot
        EXPECT_THROW(batch->setInputValue(0, p, three), EclError);
        EXPECT_FALSE(batch->hasStagedInputs(0));
        EXPECT_FALSE(batch->pendingDirty(0));
        EXPECT_FALSE(batch->hasPendingWork());
        EXPECT_EQ(batch->step(), 0u);

        batch->setInputValue(0, v, three);
        EXPECT_TRUE(batch->hasStagedInputs(0));
        EXPECT_TRUE(batch->pendingDirty(0));
        EXPECT_EQ(batch->step(), 1u);
        EXPECT_FALSE(batch->hasStagedInputs(0));
        EXPECT_EQ(batch->outputValue(0, o).toInt(), 3);
    }
}

// --- staging order ------------------------------------------------------------

/// Everything a run observes: per instant the step's reaction count and
/// trap text, the merged events, every instance's last reaction (or that
/// it had none) and every instance's packed state.
struct OrderRun {
    std::vector<std::size_t> reactions;
    std::vector<std::string> traps;
    std::vector<std::vector<std::pair<std::uint32_t, std::int32_t>>> events;
    std::vector<std::vector<std::vector<std::uint64_t>>> results;
    std::vector<std::vector<std::vector<std::uint8_t>>> states;
};

enum class StageOrder { Ascending, Descending, Shuffled };

// A step reacts the same instances in the same order, whatever order
// their inputs were staged in: ascending, descending or shuffled
// instance ids, with instances staged more than once, parked instances
// and instances resuming from a delta pause. Every run of a
// backend, at one thread and at four, must observe exactly what its
// one-thread ascending run did — and an instance that traps after
// emitting contributes no event.
TEST(BatchOrderSmoke, StepIsIndependentOfStagingOrder)
{
    Compiler compiler("module m (input int v, input pure p, output int o,\n"
                      "          output pure seen, output pure tick)\n"
                      "{\n"
                      "    while (1) {\n"
                      "        await (v);\n"
                      "        emit (seen);\n"
                      "        emit_v (o, 100 / v);\n"
                      "        await ();\n"
                      "        emit (tick);\n"
                      "    }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int v = sema.findSignal("v")->index;
    const int p = sema.findSignal("p")->index;
    // 1000 instances: a step with most of them dirty spreads over all
    // four workers (shares of at least 128 reactions).
    constexpr std::size_t kInstances = 1000;
    constexpr int kInstants = 8;

    struct Stage {
        std::uint32_t inst;
        int sig;
        std::int64_t value; ///< v's value; unused for p.
    };
    // Instant t's staging, in ascending instance order: v for two thirds
    // of the instances (0, so a trap, for one in 50), v again for every
    // fifth and p for every fourth; then one in 41 is parked.
    auto staging = [&](int t) {
        std::vector<Stage> out;
        for (std::uint32_t i = 0; i < kInstances; ++i) {
            if ((i * 7 + static_cast<std::uint32_t>(t)) % 3 == 0) continue;
            const std::int64_t value =
                (i + static_cast<std::uint32_t>(t)) % 50 == 0
                    ? 0
                    : 1 + (i + static_cast<std::uint32_t>(t)) % 9;
            out.push_back({i, v, value});
            if (i % 5 == 0) out.push_back({i, v, value});
            if (i % 4 == 0) out.push_back({i, p, 0});
        }
        return out;
    };
    auto parked = [](std::size_t i, int t) {
        return (i * 13 + static_cast<std::size_t>(t)) % 41 == 0;
    };

    auto run = [&](EngineKind kind, int threads, StageOrder order,
                   std::string& backend) {
        auto batch =
            mod->makeBatchEngine(kInstances, {.threads = threads}, kind);
        backend = batch->backendName();
        OrderRun r;
        std::mt19937 rng(1234);
        for (int t = 0; t <= kInstants; ++t) {
            if (t > 0) {
                std::vector<Stage> stages = staging(t);
                if (order == StageOrder::Descending)
                    std::reverse(stages.begin(), stages.end());
                else if (order == StageOrder::Shuffled)
                    std::shuffle(stages.begin(), stages.end(), rng);
                for (const Stage& st : stages) {
                    if (st.sig == p)
                        batch->setInput(st.inst, p);
                    else
                        batch->setInputScalar(st.inst, v, st.value);
                }
                for (std::size_t i = 0; i < kInstances; ++i)
                    if (parked(i, t)) batch->parkInstance(i);
            }
            std::string trap;
            std::size_t n = 0;
            try {
                n = batch->step();
            } catch (const EclError& e) {
                trap = e.what();
            }
            r.reactions.push_back(n);
            r.traps.push_back(trap);
            std::vector<std::pair<std::uint32_t, std::int32_t>> events;
            for (const rt::BatchEngine::StepEvent& ev :
                 batch->lastStepEvents()) {
                // A trapped (or idle) instance has no events.
                EXPECT_TRUE(batch->reactedLastStep(ev.instance))
                    << "instance " << ev.instance << " instant " << t;
                events.emplace_back(ev.instance, ev.signal);
            }
            r.events.push_back(std::move(events));
            std::vector<std::vector<std::uint64_t>> results;
            std::vector<std::vector<std::uint8_t>> states;
            for (std::size_t i = 0; i < kInstances; ++i) {
                std::vector<std::uint64_t> res;
                if (batch->reactedLastStep(i)) {
                    const rt::ReactionResult lr = batch->lastResult(i);
                    const ExecCounters& c = lr.dataCounters;
                    res = {1,           lr.terminated, lr.treeTests,
                           lr.actionsRun, lr.emitsRun,  c.exprOps,
                           c.loads,     c.stores,      c.branches,
                           c.calls,     c.aggBytes};
                    for (int sig : lr.emittedOutputs)
                        res.push_back(static_cast<std::uint64_t>(sig));
                }
                results.push_back(std::move(res));
                states.push_back(batch->packInstanceState(i));
            }
            r.results.push_back(std::move(results));
            r.states.push_back(std::move(states));
        }
        return r;
    };

    bool haveNative = false;
    for (EngineKind kind : {EngineKind::Flat, EngineKind::Native}) {
        std::string backend;
        const OrderRun base = run(kind, 1, StageOrder::Ascending, backend);
        if (kind == EngineKind::Native) {
            haveNative = backend == "native";
            if (!haveNative) continue;
        }
        // The stimulus traps: instances with v = 0 emit seen, then divide.
        std::size_t trapped = 0;
        for (const std::string& trap : base.traps)
            if (trap.find("division by zero") != std::string::npos)
                ++trapped;
        EXPECT_GT(trapped, 0u) << backend;
        for (int threads : {1, 4})
            for (StageOrder order :
                 {StageOrder::Ascending, StageOrder::Descending,
                  StageOrder::Shuffled}) {
                SCOPED_TRACE(backend + " threads " + std::to_string(threads) +
                             " order " +
                             std::to_string(static_cast<int>(order)));
                std::string b;
                const OrderRun r = run(kind, threads, order, b);
                EXPECT_EQ(r.reactions, base.reactions);
                EXPECT_EQ(r.traps, base.traps);
                EXPECT_EQ(r.events, base.events);
                EXPECT_EQ(r.results, base.results);
                EXPECT_EQ(r.states, base.states);
            }
    }
    if (!haveNative)
        GTEST_SKIP() << "AOT native backend unavailable; VM checked only";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchStressTest,
    ::testing::Values(StressCase{kModules[0], false},
                      StressCase{kModules[0], true},
                      StressCase{kModules[1], false},
                      StressCase{kModules[1], true},
                      StressCase{kModules[2], false},
                      StressCase{kModules[2], true},
                      StressCase{kModules[3], false},
                      StressCase{kModules[3], true}));

} // namespace
