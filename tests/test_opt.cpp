// Tests for the post-flatten optimization pipeline (src/opt).
//
// The load-bearing suites:
//  * differential — -O2 must be bit-exact with -O0 in every observable
//    (outputs, valued emissions, termination, auto-resume, runtime
//    traps) over all 8 paper modules and >= 1000 generated full-grammar
//    programs; -O1 additionally preserves instruction-level ExecCounters
//    exactly, and -O2's counters never exceed -O0's (every transform
//    only removes counted executions);
//  * pass-level pins — idempotence (optimize(optimize(p)) is a no-op),
//    stats monotonicity, a hand-built module whose known-bisimilar
//    states MUST merge, config-pool dedup, the exact node counts of the
//    shared (one row per distinct subtree) tables and their shape (no
//    duplicate or unreachable row from -O1, one tree per state at -O0,
//    sharing idempotent under remapStates), fusion actually firing on
//    the hot chunks the bench speedup claims depend on, and every stage
//    firing somewhere in the committed corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/opt/opt.h"
#include "src/corpus/program_gen.h"

namespace {

using namespace ecl;
using corpus::ProgramGen;
using corpus::Profile;
using corpus::runStimulus;

std::shared_ptr<CompiledModule> compileAt(Compiler& compiler,
                                          const std::string& module,
                                          int optLevel)
{
    CompileOptions copts;
    copts.optLevel = optLevel;
    return compiler.compile(module, copts);
}

struct PaperCase {
    const char* source;
    const char* module;
};

void PrintTo(const PaperCase& c, std::ostream* os)
{
    *os << c.source << "/" << c.module;
}

Compiler paperCompiler(const PaperCase& pc)
{
    return Compiler(std::string(pc.source) == std::string("stack")
                        ? paper::protocolStackSource()
                        : paper::audioBufferSource());
}

const PaperCase kPaperCases[] = {
    {"stack", "assemble"}, {"stack", "checkcrc"},  {"stack", "prochdr"},
    {"stack", "toplevel"}, {"buffer", "producer"}, {"buffer", "playback"},
    {"buffer", "blinker"}, {"buffer", "buffer_top"}};

void expectCountersLe(const ExecCounters& o2, const ExecCounters& o0,
                      int instant)
{
    EXPECT_LE(o2.exprOps, o0.exprOps) << "instant " << instant;
    EXPECT_LE(o2.loads, o0.loads) << "instant " << instant;
    EXPECT_LE(o2.stores, o0.stores) << "instant " << instant;
    EXPECT_LE(o2.branches, o0.branches) << "instant " << instant;
    EXPECT_LE(o2.calls, o0.calls) << "instant " << instant;
    EXPECT_LE(o2.aggBytes, o0.aggBytes) << "instant " << instant;
}

void expectCountersEq(const ExecCounters& a, const ExecCounters& b,
                      int instant)
{
    EXPECT_EQ(a.exprOps, b.exprOps) << "instant " << instant;
    EXPECT_EQ(a.loads, b.loads) << "instant " << instant;
    EXPECT_EQ(a.stores, b.stores) << "instant " << instant;
    EXPECT_EQ(a.branches, b.branches) << "instant " << instant;
    EXPECT_EQ(a.calls, b.calls) << "instant " << instant;
    EXPECT_EQ(a.aggBytes, b.aggBytes) << "instant " << instant;
}

/// Lockstep drive of one module compiled at two levels: every
/// observable must agree instant by instant; engine-level counters
/// (treeTests/actionsRun/emitsRun — preserved by minimization, untouched
/// by the bytecode optimizer) must agree exactly; data ExecCounters obey
/// `counterMode`: 0 = exact equality, 1 = component-wise lhs <= rhs.
void driveLockstep(CompiledModule& lhs, CompiledModule& rhs,
                   unsigned stimulusSeed, int instants, int counterMode)
{
    auto a = lhs.makeEngine();
    auto b = rhs.makeEngine();
    const ModuleSema& sema = lhs.moduleSema();
    std::mt19937 rng(stimulusSeed * 2654435761u + 97u);
    a->react();
    b->react();
    for (int t = 0; t < instants; ++t) {
        for (const SignalInfo& s : sema.signals) {
            if (s.dir != SignalDir::Input) continue;
            if ((rng() & 3u) != 0) continue;
            if (s.pure) {
                a->setInput(s.index);
                b->setInput(s.index);
            } else {
                Value v(s.valueType);
                for (std::size_t i = 0; i < v.size(); ++i)
                    v.data()[i] = static_cast<std::uint8_t>(rng());
                a->setInputValue(s.index, v);
                b->setInputValue(s.index, std::move(v));
            }
        }
        rt::ReactionResult ra = a->react();
        rt::ReactionResult rb = b->react();
        for (const SignalInfo& s : sema.signals) {
            if (s.dir != SignalDir::Output) continue;
            ASSERT_EQ(a->outputPresent(s.index), b->outputPresent(s.index))
                << "instant " << t << " output " << s.name;
            if (!s.pure && a->outputPresent(s.index)) {
                ASSERT_TRUE(a->outputValue(s.index) ==
                            b->outputValue(s.index))
                    << "instant " << t << " value of " << s.name;
            }
        }
        ASSERT_EQ(ra.terminated, rb.terminated) << "instant " << t;
        ASSERT_EQ(a->terminated(), b->terminated()) << "instant " << t;
        ASSERT_EQ(a->needsAutoResume(), b->needsAutoResume())
            << "instant " << t;
        ASSERT_EQ(ra.treeTests, rb.treeTests) << "instant " << t;
        ASSERT_EQ(ra.actionsRun, rb.actionsRun) << "instant " << t;
        ASSERT_EQ(ra.emitsRun, rb.emitsRun) << "instant " << t;
        ASSERT_EQ(ra.emittedOutputs, rb.emittedOutputs) << "instant " << t;
        if (counterMode == 0)
            expectCountersEq(ra.dataCounters, rb.dataCounters, t);
        else
            expectCountersLe(ra.dataCounters, rb.dataCounters, t);
    }
}

// ---------------------------------------------------------------------------
// Differential: -O2 and -O1 vs -O0 over the paper modules
// ---------------------------------------------------------------------------

class OptDifferentialTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(OptDifferentialTest, O2BitExactWithO0)
{
    Compiler compiler = paperCompiler(GetParam());
    auto o0 = compileAt(compiler, GetParam().module, 0);
    auto o2 = compileAt(compiler, GetParam().module, 2);
    for (unsigned seed = 1; seed <= 3; ++seed)
        driveLockstep(*o2, *o0, seed, 150, /*counterMode=*/1);
}

TEST_P(OptDifferentialTest, O1CounterExactWithO0)
{
    Compiler compiler = paperCompiler(GetParam());
    auto o0 = compileAt(compiler, GetParam().module, 0);
    auto o1 = compileAt(compiler, GetParam().module, 1);
    for (unsigned seed = 1; seed <= 2; ++seed)
        driveLockstep(*o1, *o0, seed, 100, /*counterMode=*/0);
}

INSTANTIATE_TEST_SUITE_P(AllPaperModules, OptDifferentialTest,
                         ::testing::ValuesIn(kPaperCases));

// ---------------------------------------------------------------------------
// Differential: >= 1000 generated full-grammar programs
// ---------------------------------------------------------------------------

TEST(OptGeneratedDifferential, ThousandProgramsO0VsO2)
{
    int compiled = 0;
    int rejected = 0;
    for (unsigned seed = 1; seed <= 1000; ++seed) {
        ProgramGen gen(seed);
        const std::string src = gen.generate();
        std::shared_ptr<CompiledModule> o0;
        std::shared_ptr<CompiledModule> o2;
        try {
            Compiler compiler(src);
            o0 = compileAt(compiler, "m", 0);
            o2 = compileAt(compiler, "m", 2);
        } catch (const EclError& e) {
            // Static causality; rarity asserted below. Every compile has
            // flat tables, so failing to build them is a bug, not a
            // reject.
            ASSERT_EQ(std::string(e.what()).find("flat tables for module"),
                      std::string::npos)
                << "seed " << seed << ": " << e.what() << "\n" << src;
            ++rejected;
            continue;
        }
        ++compiled;
        auto e0 = o0->makeEngine();
        auto e2 = o2->makeEngine();
        const unsigned stim = seed * 31 + 7;
        std::string t0 = runStimulus(*e0, Profile::Random, stim, 30);
        std::string t2 = runStimulus(*e2, Profile::Random, stim, 30);
        ASSERT_EQ(t0, t2) << "seed " << seed << "\n" << src;
    }
    // The generator is tuned to produce overwhelmingly compilable
    // programs; a regression here silently guts the sweep's coverage.
    EXPECT_GE(compiled, 950) << rejected << " programs rejected";
}

// ---------------------------------------------------------------------------
// Pass-level pins
// ---------------------------------------------------------------------------

/// Semantic dump of the flat tables (source locations and consumed AST
/// pointers excluded) for idempotence comparison.
std::string dumpFlat(const efsm::FlatProgram& f)
{
    std::ostringstream out;
    out << "init " << f.initialState << " dead " << f.deadState << "\n";
    for (const efsm::FlatState& s : f.states)
        out << "S root=" << s.root << " cfg=" << s.config
            << " d=" << s.dead << " ar=" << s.autoResume << "\n";
    for (const efsm::FlatNode& n : f.nodes)
        out << "N a=[" << n.actionsBegin << "," << n.actionsEnd
            << ") t=" << n.testSignal << " p=" << n.predChunk
            << " T=" << n.onTrue << " F=" << n.onFalse
            << " next=" << n.nextState << " f=" << int(n.flags) << "\n";
    for (const efsm::FlatAction& a : f.actions)
        out << "A k=" << int(a.kind) << " o=" << a.isOutput
            << " s=" << a.signal << " c=" << a.chunk << "\n";
    for (const PauseSet& c : f.configs) out << "C " << c.hash() << "\n";
    return out.str();
}

std::string dumpCode(const bc::Program& p)
{
    std::ostringstream out;
    for (std::size_t c = 0; c < p.chunks.size(); ++c)
        out << "chunk " << c << " regs=" << p.chunks[c].numRegs
            << " expr=" << p.chunks[c].isExpr << "\n"
            << bc::disassemble(p, static_cast<int>(c));
    for (const bc::CompiledFunction& f : p.functions)
        out << "fn " << f.name << " -> " << f.chunk << "\n";
    return out.str();
}

TEST(OptPasses, PipelineIsIdempotent)
{
    for (const PaperCase& pc : kPaperCases) {
        SCOPED_TRACE(std::string(pc.source) + "/" + pc.module);
        Compiler compiler = paperCompiler(pc);
        auto mod = compileAt(compiler, pc.module, 0); // verbatim tables
        efsm::FlatProgram flat = mod->flatProgram();
        bc::Program code = mod->byteCode();
        opt::optimize(flat, code, 2);
        const std::string flat1 = dumpFlat(flat);
        const std::string code1 = dumpCode(code);
        opt::PipelineStats again = opt::optimize(flat, code, 2);
        EXPECT_EQ(flat1, dumpFlat(flat));
        EXPECT_EQ(code1, dumpCode(code));
        // The second run must find nothing left to do.
        EXPECT_EQ(again.minimize.mergedStates, 0u);
        EXPECT_EQ(again.minimize.unreachableStates, 0u);
        EXPECT_EQ(again.bytecode.chunksDeduped, 0u);
        EXPECT_EQ(again.bytecode.constantsFolded, 0u);
        EXPECT_EQ(again.bytecode.deadInstrsRemoved, 0u);
        EXPECT_EQ(again.bytecode.instrsFused, 0u);
    }
}

TEST(OptPasses, StatsAreMonotone)
{
    for (const PaperCase& pc : kPaperCases) {
        SCOPED_TRACE(std::string(pc.source) + "/" + pc.module);
        Compiler compiler = paperCompiler(pc);
        auto mod = compileAt(compiler, pc.module, 2);
        const opt::PipelineStats& st = mod->optStats();
        EXPECT_EQ(st.level, 2);
        EXPECT_TRUE(st.minimized);
        EXPECT_TRUE(st.bytecodeOptimized);
        EXPECT_LE(st.minimize.statesAfter, st.minimize.statesBefore);
        EXPECT_LE(st.minimize.nodesAfter, st.minimize.nodesBefore);
        EXPECT_LE(st.minimize.actionsAfter, st.minimize.actionsBefore);
        EXPECT_LE(st.minimize.configsAfter, st.minimize.configsBefore);
        EXPECT_LE(st.bytecode.instrsAfter, st.bytecode.instrsBefore);
        EXPECT_LE(st.bytecode.chunksAfter, st.bytecode.chunksBefore);
        EXPECT_GT(st.minimize.refinementRounds, 0);
    }
}

// Hand-built module with two KNOWN bisimilar control states: the then
// branch waits for `a` once, the else branch twice — after the first
// else-await, the residual behavior ("await a, then emit o, restart") is
// exactly the then branch's wait state. Distinct pause points, so the
// builder must create two states; minimization must merge them.
const char* kBisimilarSrc =
    "module m (input pure a, input pure b, output pure o) {"
    " while (1) {"
    "  present (b) {"
    "   await (a);"
    "  } else {"
    "   await (a);"
    "   await (a);"
    "  }"
    "  emit (o);"
    " } }";

TEST(OptPasses, MinimizationMergesKnownBisimilarStates)
{
    Compiler compiler(kBisimilarSrc);
    auto o0 = compileAt(compiler, "m", 0);
    auto o1 = compileAt(compiler, "m", 1);
    const opt::PipelineStats& st = o1->optStats();
    EXPECT_GE(st.minimize.mergedStates, 1u);
    EXPECT_LT(o1->flatProgram().states.size(),
              o0->flatProgram().states.size());
    for (unsigned seed = 1; seed <= 5; ++seed)
        driveLockstep(*o1, *o0, seed, 60, /*counterMode=*/0);
}

TEST(OptPasses, ConfigPoolHasNoDuplicatesAndOnlyReferencedEntries)
{
    for (const std::string& src :
         {std::string(kBisimilarSrc), paper::protocolStackSource()}) {
        Compiler compiler(src);
        auto mod = compiler.compile(compiler.moduleNames().back());
        const efsm::FlatProgram& flat = mod->flatProgram();
        std::set<std::size_t> referenced;
        for (const efsm::FlatState& s : flat.states) {
            ASSERT_GE(s.config, 0);
            ASSERT_LT(static_cast<std::size_t>(s.config),
                      flat.configs.size());
            referenced.insert(static_cast<std::size_t>(s.config));
        }
        EXPECT_EQ(referenced.size(), flat.configs.size())
            << "unreferenced configs survive in the pool";
        for (std::size_t i = 0; i < flat.configs.size(); ++i)
            for (std::size_t j = i + 1; j < flat.configs.size(); ++j)
                EXPECT_FALSE(flat.configs[i] == flat.configs[j])
                    << "duplicate interned configs " << i << "," << j;
    }
}

TEST(OptPasses, TablesStoreEachDistinctSubtreeOnce)
{
    // From -O1 the node table holds one row per distinct decision
    // subtree. As one tree per state, the same -O2 tables held 214 rows
    // for toplevel, 1,392 for the paper modules, 117,075 for par_pure10
    // and 122,741 for the whole corpus.
    std::size_t paperNodes = 0;
    for (const PaperCase& pc : kPaperCases) {
        Compiler compiler = paperCompiler(pc);
        auto mod = compileAt(compiler, pc.module, 2);
        const std::size_t nodes = mod->flatProgram().nodes.size();
        if (std::string(pc.module) == "toplevel") {
            EXPECT_EQ(nodes, 73u);
        }
        paperNodes += nodes;
    }
    EXPECT_EQ(paperNodes, 585u);

    std::size_t corpusNodes = 0;
    std::size_t scenarios = 0;
    for (const corpus::Scenario& s : corpus::loadCorpusDir(ECL_CORPUS_DIR)) {
        auto mod = corpus::compileScenario(s, 2);
        const std::size_t nodes = mod->flatProgram().nodes.size();
        if (s.name == "par_pure10") {
            EXPECT_EQ(nodes, 11264u);
        }
        corpusNodes += nodes;
        ++scenarios;
    }
    EXPECT_EQ(scenarios, 31u);
    EXPECT_EQ(corpusNodes, 13755u);
}

/// References to each node row: state roots plus test-node edges.
std::vector<std::size_t> rowParents(const efsm::FlatProgram& flat)
{
    std::vector<std::size_t> parents(flat.nodes.size(), 0);
    for (const efsm::FlatState& s : flat.states)
        ++parents[static_cast<std::size_t>(s.root)];
    for (const efsm::FlatNode& n : flat.nodes) {
        if (n.isLeaf()) continue;
        ++parents[static_cast<std::size_t>(n.onTrue)];
        ++parents[static_cast<std::size_t>(n.onFalse)];
    }
    return parents;
}

std::vector<std::int32_t> identityMap(const efsm::FlatProgram& flat)
{
    std::vector<std::int32_t> ids(flat.states.size());
    for (std::size_t s = 0; s < ids.size(); ++s)
        ids[s] = static_cast<std::int32_t>(s);
    return ids;
}

TEST(OptPasses, OptLevelZeroStoresOneTreePerState)
{
    // -O0 keeps flatten's layout: every row hangs under exactly one
    // parent, so equal subtrees are stored once per occurrence.
    for (const PaperCase& pc : kPaperCases) {
        SCOPED_TRACE(std::string(pc.source) + "/" + pc.module);
        Compiler compiler = paperCompiler(pc);
        auto mod = compileAt(compiler, pc.module, 0);
        for (std::size_t p : rowParents(mod->flatProgram()))
            ASSERT_EQ(p, 1u);
    }
    for (const corpus::Scenario& s : corpus::loadCorpusDir(ECL_CORPUS_DIR)) {
        SCOPED_TRACE(s.name);
        auto mod = corpus::compileScenario(s, 0);
        for (std::size_t p : rowParents(mod->flatProgram()))
            ASSERT_EQ(p, 1u);
    }
}

TEST(OptPasses, SharedTablesHoldNoDuplicateOrUnreachableRows)
{
    // From -O1 no two rows are the same subtree, every row is reachable
    // from a state's root, and some rows serve several parents.
    std::size_t sharedRows = 0;
    const auto check = [&](const efsm::FlatProgram& flat) {
        const std::vector<std::int32_t> ids = identityMap(flat);
        efsm::SubtreeClasses classes(flat, ids);
        for (std::size_t i = 0; i < flat.nodes.size(); ++i)
            classes.of(static_cast<std::int32_t>(i));
        EXPECT_EQ(classes.classCount(), flat.nodes.size());

        std::vector<bool> reached(flat.nodes.size(), false);
        std::vector<std::int32_t> stack;
        for (const efsm::FlatState& s : flat.states) stack.push_back(s.root);
        while (!stack.empty()) {
            const std::int32_t r = stack.back();
            stack.pop_back();
            if (reached[static_cast<std::size_t>(r)]) continue;
            reached[static_cast<std::size_t>(r)] = true;
            const efsm::FlatNode& n = flat.nodes[static_cast<std::size_t>(r)];
            if (n.isLeaf()) continue;
            stack.push_back(n.onTrue);
            stack.push_back(n.onFalse);
        }
        EXPECT_EQ(std::count(reached.begin(), reached.end(), false), 0);

        for (std::size_t p : rowParents(flat))
            if (p > 1) ++sharedRows;
    };
    for (int level = 1; level <= 2; ++level) {
        SCOPED_TRACE("-O" + std::to_string(level));
        for (const PaperCase& pc : kPaperCases) {
            SCOPED_TRACE(std::string(pc.source) + "/" + pc.module);
            Compiler compiler = paperCompiler(pc);
            check(compileAt(compiler, pc.module, level)->flatProgram());
        }
        for (const corpus::Scenario& s :
             corpus::loadCorpusDir(ECL_CORPUS_DIR)) {
            SCOPED_TRACE(s.name);
            check(corpus::compileScenario(s, level)->flatProgram());
        }
    }
    EXPECT_GT(sharedRows, 0u);
}

TEST(OptPasses, IdentityRemapStoresEachSubtreeOnceAndIsIdempotent)
{
    // remapStates without merging a state still shares: the rows it
    // reports saved are exactly the -O0 rows beyond the distinct
    // subtrees, and a second pass finds nothing left to share.
    std::size_t saved = 0;
    for (const PaperCase& pc : kPaperCases) {
        SCOPED_TRACE(std::string(pc.source) + "/" + pc.module);
        Compiler compiler = paperCompiler(pc);
        auto mod = compileAt(compiler, pc.module, 0);
        efsm::FlatProgram flat = mod->flatProgram();
        const std::vector<std::int32_t> ids = identityMap(flat);
        const std::size_t rows = flat.nodes.size();
        const std::size_t states = flat.states.size();
        std::size_t distinct = 0;
        {
            efsm::SubtreeClasses classes(flat, ids);
            for (const efsm::FlatState& s : flat.states) classes.of(s.root);
            distinct = classes.classCount();
        }

        const std::size_t first = flat.remapStates(ids);
        EXPECT_EQ(first, rows - distinct);
        EXPECT_EQ(flat.nodes.size(), distinct);
        EXPECT_EQ(flat.states.size(), states);
        const std::string once = dumpFlat(flat);
        EXPECT_EQ(flat.remapStates(ids), 0u);
        EXPECT_EQ(dumpFlat(flat), once);
        saved += first;
    }
    EXPECT_GT(saved, 0u);
}

TEST(OptPasses, FusionFiresOnHotChunks)
{
    // The bench speedup claim rests on superinstruction fusion hitting
    // the protocol stack's hot chunks (loop-bound predicates, the CRC
    // fold, scalar assignments). Pin that the optimized program actually
    // contains fused ops and got smaller.
    Compiler compiler(paper::protocolStackSource());
    auto o0 = compileAt(compiler, "toplevel", 0);
    auto o2 = compileAt(compiler, "toplevel", 2);
    const std::string d2 = dumpCode(o2->byteCode());
    EXPECT_NE(d2.find("binimm"), std::string::npos);
    EXPECT_NE(d2.find("stvsc"), std::string::npos);
    EXPECT_LT(o2->byteCode().code.size(), o0->byteCode().code.size());
    EXPECT_GT(o2->optStats().bytecode.instrsFused, 0u);
}

TEST(OptPasses, EveryStageFiresOnTheCorpus)
{
    // Every -O1/-O2 stage earns its place on real traffic: summed over
    // every committed scenario, each one fires. A stage that goes idle
    // fails here instead of lingering as code that serves no program.
    opt::BytecodeStats bytecode;
    std::size_t mergedStates = 0;
    std::size_t nodesShared = 0;
    for (const corpus::Scenario& s : corpus::loadCorpusDir(ECL_CORPUS_DIR)) {
        SCOPED_TRACE(s.name);
        auto mod = corpus::compileScenario(s, 2);
        const opt::PipelineStats& st = mod->optStats();
        bytecode.constantsFolded += st.bytecode.constantsFolded;
        bytecode.instrsFused += st.bytecode.instrsFused;
        bytecode.deadInstrsRemoved += st.bytecode.deadInstrsRemoved;
        bytecode.chunksDeduped += st.bytecode.chunksDeduped;
        mergedStates += st.minimize.mergedStates;
        nodesShared += st.minimize.nodesShared;
    }
    EXPECT_GT(bytecode.constantsFolded, 0u);
    EXPECT_GT(bytecode.instrsFused, 0u);
    EXPECT_GT(bytecode.deadInstrsRemoved, 0u);
    EXPECT_GT(bytecode.chunksDeduped, 0u);
    EXPECT_GT(mergedStates, 0u);
    EXPECT_GT(nodesShared, 0u);
}

TEST(OptPasses, DeclarationZeroingSurvivesO2)
{
    // Fusion and dead-register elimination must keep a declaration's
    // zeroing. The local `x` below is read by its own initializer through
    // a fused AddrIndexVar (the index load is folded into the address op,
    // and DCE drops the separate LoadVarSc), so the only thing giving
    // that read the value 0 on every entry is the declaration's ZeroVar.
    // `x` is overwritten with 1 at the end of the block: dropping the
    // ZeroVar would leak that 1 into the next invocation's index read and
    // flip s from 0 to 9.
    Compiler compiler(
        "module m (input pure t, output int s) {"
        " int arr[4];"
        " int arr2[4];"
        " int out;"
        " while (1) {"
        "  await (t);"
        "  { arr[1] = 2; arr2[2] = 9; int x = arr2[arr[x]];"
        "    out = x; x = 1; }"
        "  emit_v (s, out);"
        " } }");
    auto o0 = compileAt(compiler, "m", 0);
    auto o2 = compileAt(compiler, "m", 2);
    auto e0 = o0->makeEngine();
    auto e2 = o2->makeEngine();
    e0->react();
    e2->react();
    for (int i = 0; i < 3; ++i) {
        e0->setInput("t");
        e2->setInput("t");
        e0->react();
        e2->react();
        ASSERT_EQ(e2->outputValue("s").toInt(), e0->outputValue("s").toInt())
            << "instant " << i;
        ASSERT_EQ(e0->outputValue("s").toInt(), 0) << "instant " << i;
    }
}

TEST(OptPasses, OptLevelZeroLeavesTablesVerbatim)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compileAt(compiler, "buffer_top", 0);
    const opt::PipelineStats& st = mod->optStats();
    EXPECT_EQ(st.level, 0);
    EXPECT_FALSE(st.minimized);
    EXPECT_FALSE(st.bytecodeOptimized);
    // -O0 keeps the flatten-time invariant: state ids equal the Efsm's.
    EXPECT_EQ(mod->flatProgram().states.size(),
              mod->machine().states.size());
}

} // namespace
