// Native AOT backend differential suite: the C emitted by
// codegen::generateC() is compiled with the host C compiler, dlopened
// through rt::NativeModule, and driven behind the common ReactiveEngine
// interface — then compared bit-exactly (trace strings AND packed final
// state) against the -O2 bytecode VM over the paper modules, the
// committed scenario corpus, and a seeded generator sweep. Every test
// that needs a host C compiler skips cleanly when none is available;
// the fallback tests assert the graceful degradation contract itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/codegen/c_gen.h"
#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/corpus/program_gen.h"
#include "src/runtime/native_abi.h"
#include "src/runtime/native_module.h"
#include "src/runtime/trace.h"
#include "src/support/strings.h"

namespace ecl {
namespace {

// The eight paper modules (both figures), with per-module stimulus seeds
// so no two modules see the same input stream.
struct PaperCase {
    const char* module;
    bool stack; ///< protocolStackSource vs audioBufferSource.
    unsigned stimSeed;
};

const PaperCase kPaperCases[] = {
    {"assemble", true, 101},   {"checkcrc", true, 102},
    {"prochdr", true, 103},    {"toplevel", true, 104},
    {"producer", false, 105},  {"playback", false, 106},
    {"blinker", false, 107},   {"buffer_top", false, 108},
};

std::shared_ptr<CompiledModule> compilePaper(const PaperCase& pc,
                                             int optLevel)
{
    Compiler compiler(pc.stack ? paper::protocolStackSource()
                               : paper::audioBufferSource());
    CompileOptions opts;
    opts.optLevel = optLevel;
    return compiler.compile(pc.module, opts);
}

/// True when makeEngine(EngineKind::Native) actually yields the native
/// backend on this machine (a host C compiler exists and the generated
/// C compiles). Probed once; every differential test skips otherwise.
bool nativeAvailable()
{
    static const bool avail = [] {
        auto mod = compilePaper(kPaperCases[6], 2); // blinker: smallest
        auto eng = mod->makeEngine(EngineKind::Native);
        return std::string(eng->backendName()) == "native";
    }();
    return avail;
}

#define REQUIRE_NATIVE()                                                    \
    if (!nativeAvailable())                                                 \
    GTEST_SKIP() << "no host C compiler; native backend unavailable"

/// A compiler usable for standalone syntax checks of the emitted TU.
std::string syntaxCheckCompiler()
{
    if (const char* cc = std::getenv("CC"); cc && *cc) return cc;
    for (const char* cand : {"cc", "gcc", "clang"}) {
        std::string probe =
            std::string(cand) + " --version >/dev/null 2>&1";
        if (std::system(probe.c_str()) == 0) return cand;
    }
    return "";
}

/// Scoped env var override that restores the previous value on exit.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

private:
    const char* name_;
    bool hadOld_ = false;
    std::string old_;
};

std::filesystem::path freshTempDir(const std::string& tag)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("ecl_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------------------
// The emitted translation unit itself: compiles standalone, warning-clean.
// ---------------------------------------------------------------------------

TEST(NativeCodegen, GeneratedCIsWarningCleanC99)
{
    std::string cc = syntaxCheckCompiler();
    if (cc.empty()) GTEST_SKIP() << "no host C compiler on PATH";
    auto dir = freshTempDir("cgen_syntax");
    for (const PaperCase& pc : kPaperCases) {
        auto mod = compilePaper(pc, 2);
        std::string c = codegen::generateC(*mod);
        auto cPath = dir / (std::string(pc.module) + ".c");
        auto logPath = dir / (std::string(pc.module) + ".log");
        { std::ofstream(cPath) << c; }
        std::string cmd = cc + " -std=c99 -fsyntax-only -Wall -Wextra '" +
                          cPath.string() + "' 2>'" + logPath.string() + "'";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << pc.module;
        std::ifstream log(logPath);
        std::string diag((std::istreambuf_iterator<char>(log)),
                         std::istreambuf_iterator<char>());
        EXPECT_TRUE(diag.empty())
            << pc.module << " generated C warns:\n"
            << diag;
    }
    std::filesystem::remove_all(dir);
}

TEST(NativeCodegen, EmittedSizeGrowsWithTableRowsNotCode)
{
    // Control is static rows plus one walk, so the C text grows by a
    // table row per flat node, and from -O1 a node is a distinct subtree.
    // par_pure10 stores 11,264 of them (117,075 as one tree per state);
    // emitted as straight-line code per tree node it was 15.2 MB and
    // par_pure6 191 KB, as a row per tree node 2.1 MB and 30 KB, and as a
    // row per distinct subtree about 189 KB and 16 KB.
    auto scenarios = corpus::loadCorpusDir(ECL_CORPUS_DIR);
    const std::pair<const char*, std::size_t> ceilings[] = {
        {"par_pure6", std::size_t{32} << 10},
        {"par_pure10", std::size_t{256} << 10},
    };
    for (const auto& [name, ceiling] : ceilings) {
        auto it = std::find_if(
            scenarios.begin(), scenarios.end(),
            [&](const corpus::Scenario& s) { return s.name == name; });
        ASSERT_NE(it, scenarios.end()) << name;
        auto mod = corpus::compileScenario(*it, 2);
        std::size_t bytes = codegen::generateC(*mod).size();
        EXPECT_LT(bytes, ceiling) << name << ": " << bytes << " bytes of C";
    }
}

TEST(NativeCodegen, ModuleInfoMatchesCompiledShape)
{
    REQUIRE_NATIVE();
    auto mod = compilePaper(kPaperCases[3], 2); // toplevel
    auto eng = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(eng->backendName(), "native");
    const auto native = mod->nativeModule(); // the module `eng` runs
    const rt::EclNativeInfo& info = native->info();
    EXPECT_EQ(info.abi_version, rt::kEclNativeAbiVersion);
    rt::InstanceLayout layout =
        rt::computeInstanceLayout(mod->moduleSema());
    EXPECT_EQ(info.data_bytes, layout.dataBytes);
    EXPECT_EQ(info.signals, mod->moduleSema().signals.size());
    EXPECT_STREQ(info.module_name, "toplevel");
    EXPECT_EQ(info.max_emits, mod->flatProgram().outputRingSlots());
    EXPECT_FALSE(native->objectPath().empty());
}

// ---------------------------------------------------------------------------
// Differential: native vs the -O2 bytecode VM, bit-exact.
// ---------------------------------------------------------------------------

TEST(NativeDifferential, PaperModulesMatchO2Vm)
{
    REQUIRE_NATIVE();
    const corpus::Profile profiles[] = {corpus::Profile::Random,
                                        corpus::Profile::Payload,
                                        corpus::Profile::Bursty};
    for (const PaperCase& pc : kPaperCases) {
        auto mod = compilePaper(pc, 2);
        for (corpus::Profile profile : profiles) {
            auto native = mod->makeEngine(EngineKind::Native);
            ASSERT_STREQ(native->backendName(), "native") << pc.module;
            auto vm = mod->makeEngine();
            std::string traceN =
                corpus::runStimulus(*native, profile, pc.stimSeed, 160);
            std::string traceV =
                corpus::runStimulus(*vm, profile, pc.stimSeed, 160);
            EXPECT_EQ(traceN, traceV)
                << pc.module << " diverged from the -O2 VM under "
                << corpus::profileName(profile);
            // Same compile => same flat state ids and the same packed
            // instance layout: the full snapshot must match byte for
            // byte, not just the sampled outputs.
            EXPECT_EQ(native->packState(), vm->packState())
                << pc.module << " final state diverged under "
                << corpus::profileName(profile);
        }
    }
}

TEST(NativeDifferential, AotAtO0MatchesAotAtO2)
{
    REQUIRE_NATIVE();
    for (const PaperCase& pc : kPaperCases) {
        auto modO0 = compilePaper(pc, 0);
        auto modO2 = compilePaper(pc, 2);
        auto engO0 = modO0->makeEngine(EngineKind::Native);
        auto engO2 = modO2->makeEngine(EngineKind::Native);
        ASSERT_STREQ(engO0->backendName(), "native") << pc.module;
        ASSERT_STREQ(engO2->backendName(), "native") << pc.module;
        // State ids differ across opt levels (state minimization), so
        // compare observable behavior: the full sampled trace.
        EXPECT_EQ(corpus::runStimulus(*engO0, corpus::Profile::Random,
                                      pc.stimSeed, 160),
                  corpus::runStimulus(*engO2, corpus::Profile::Random,
                                      pc.stimSeed, 160))
            << pc.module << " AOT(-O0) diverged from AOT(-O2)";
    }
}

TEST(NativeDifferential, CorpusSweepBitExact)
{
    REQUIRE_NATIVE();
    auto scenarios = corpus::loadCorpusDir(ECL_CORPUS_DIR);
    ASSERT_FALSE(scenarios.empty());
    auto quarantined = corpus::loadQuarantine(ECL_CORPUS_DIR);
    unsigned swept = 0;
    for (const corpus::Scenario& s : scenarios) {
        bool parked = false;
        for (const std::string& q : quarantined)
            if (q == s.name) parked = true;
        if (parked) continue;
        auto mod = corpus::compileScenario(s, 2);
        auto native = mod->makeEngine(EngineKind::Native);
        ASSERT_STREQ(native->backendName(), "native")
            << s.name << ": native backend fell back to the VM";
        std::string traceN =
            corpus::runStimulus(*native, s.profile, s.stimSeed, s.instants);
        // Pinned oracle digest (the tree-walk trace) — the strongest
        // cross-version pin the corpus carries.
        EXPECT_EQ(hex64(fnv1a64(traceN)), s.oracleDigest)
            << s.name << " native trace diverged from the pinned oracle";
        // And bit-exact final data against a fresh -O2 VM run.
        auto vm = mod->makeEngine();
        std::string traceV =
            corpus::runStimulus(*vm, s.profile, s.stimSeed, s.instants);
        EXPECT_EQ(traceN, traceV) << s.name;
        EXPECT_EQ(native->packState(), vm->packState()) << s.name;
        ++swept;
    }
    EXPECT_GE(swept, 20u);
}

TEST(NativeDifferential, CorpusEngineCountersMatchVm)
{
    // The native walk counts tree_tests/actions_run/emits_run per step,
    // on tables whose shared subtrees have several parents; over the same
    // inputs they must equal the VM's per-node counts.
    REQUIRE_NATIVE();
    std::uint64_t treeTests = 0;
    for (const corpus::Scenario& s : corpus::loadCorpusDir(ECL_CORPUS_DIR)) {
        auto mod = corpus::compileScenario(s, 2);
        auto vm = mod->makeEngine();
        const rt::InputTrace trace =
            corpus::recordStimulus(*vm, s.profile, s.stimSeed, s.instants);
        auto native = mod->makeEngine(EngineKind::Native);
        ASSERT_STREQ(native->backendName(), "native") << s.name;
        auto vmReplay = mod->makeEngine();
        rt::TraceReplayResult rn = rt::replayTrace(*native, trace);
        rt::TraceReplayResult rv = rt::replayTrace(*vmReplay, trace);
        EXPECT_TRUE(rn.outputsMatch) << s.name << ": " << rn.mismatch;
        EXPECT_EQ(rn.treeTests, rv.treeTests) << s.name;
        EXPECT_EQ(rn.actionsRun, rv.actionsRun) << s.name;
        EXPECT_EQ(rn.emitsRun, rv.emitsRun) << s.name;
        treeTests += rv.treeTests;
    }
    EXPECT_GT(treeTests, 0u);
}

TEST(NativeDifferential, GeneratorSweepMatchesVm)
{
    REQUIRE_NATIVE();
    unsigned nativeRuns = 0;
    for (unsigned seed = 1; seed <= 16; ++seed) {
        corpus::ProgramGen gen(seed, 3);
        Compiler compiler(gen.generate());
        CompileOptions opts;
        opts.optLevel = 2;
        auto mod = compiler.compile("m", opts);
        auto native = mod->makeEngine(EngineKind::Native);
        EXPECT_STREQ(native->backendName(), "native")
            << "seed " << seed << " fell back to the VM";
        auto vm = mod->makeEngine();
        std::string traceN = corpus::runStimulus(
            *native, corpus::Profile::Random, seed, 120);
        std::string traceV =
            corpus::runStimulus(*vm, corpus::Profile::Random, seed, 120);
        EXPECT_EQ(traceN, traceV) << "seed " << seed;
        if (std::string(native->backendName()) == "native") {
            EXPECT_EQ(native->packState(), vm->packState())
                << "seed " << seed;
            ++nativeRuns;
        }
    }
    EXPECT_GE(nativeRuns, 14u);
}

// ---------------------------------------------------------------------------
// Trap parity: runtime failures must carry the VM's exact message.
// ---------------------------------------------------------------------------

/// Boots `eng`, then reacts with the int input `v` = 0 and returns the
/// trap's message ("(no trap)" when it does not trap).
std::string trapMessageAtZero(rt::ReactiveEngine& eng)
{
    eng.react(); // boot reaction reaches the await
    eng.setInputScalar("v", 0);
    try {
        eng.react();
    } catch (const EclError& e) {
        return std::string(e.what());
    }
    return std::string("(no trap)");
}

TEST(NativeDifferential, DivisionByZeroTrapsLikeVm)
{
    REQUIRE_NATIVE();
    const char* src =
        "module m (input int v, output int o)\n"
        "{\n"
        "    while (1) {\n"
        "        await (v);\n"
        "        emit_v (o, 100 / v);\n"
        "    }\n"
        "}\n";
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto native = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(native->backendName(), "native");
    auto vm = mod->makeEngine();

    std::string msgN = trapMessageAtZero(*native);
    std::string msgV = trapMessageAtZero(*vm);
    EXPECT_EQ(msgN, msgV);
    EXPECT_NE(msgN.find("division by zero"), std::string::npos) << msgN;
}

TEST(NativeDifferential, TrapBehindEqualBranchesTrapsLikeVm)
{
    // From -O1 the two equal branches of `100 / v > 3` are one row with
    // both edges of the test pointing at it. The C walk must still run
    // the predicate: it counts like the VM when v = 5 and traps with the
    // VM's message when v = 0, at every level.
    REQUIRE_NATIVE();
    std::ifstream in(std::string(ECL_FIXTURE_DIR) +
                     "/trap_equal_branches.ecl");
    ASSERT_TRUE(in);
    const std::string src((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    Compiler compiler(src);
    for (int level = 0; level <= 2; ++level) {
        SCOPED_TRACE("-O" + std::to_string(level));
        CompileOptions opts;
        opts.optLevel = level;
        auto mod = compiler.compile("trapdiv", opts);
        auto native = mod->makeEngine(EngineKind::Native);
        ASSERT_STREQ(native->backendName(), "native");
        auto vm = mod->makeEngine();
        for (rt::ReactiveEngine* eng : {native.get(), vm.get()}) {
            eng->react();
            eng->setInputScalar("v", 5);
        }
        rt::ReactionResult rn = native->react();
        rt::ReactionResult rv = vm->react();
        EXPECT_TRUE(native->outputPresent("o"));
        EXPECT_TRUE(vm->outputPresent("o"));
        EXPECT_EQ(rn.treeTests, rv.treeTests);
        EXPECT_EQ(rn.actionsRun, rv.actionsRun);
        EXPECT_EQ(rn.emitsRun, rv.emitsRun);

        native = mod->makeEngine(EngineKind::Native);
        vm = mod->makeEngine();
        std::string msgN = trapMessageAtZero(*native);
        EXPECT_EQ(msgN, trapMessageAtZero(*vm));
        EXPECT_NE(msgN.find("runtime: division by zero"), std::string::npos)
            << msgN;
    }
}

TEST(NativeDifferential, FuelIsPerReaction)
{
    REQUIRE_NATIVE();
    // Each reaction runs about 0.6 x kNativeReactFuel backward branches:
    // two of them run only because every reaction starts from a fresh
    // budget.
    Compiler compiler("module m (input int n, output int o)\n"
                      "{\n"
                      "    int i;\n"
                      "    int x;\n"
                      "    while (1) {\n"
                      "        await (n);\n"
                      "        for (i = 0; i < n; i++)\n"
                      "            x = x + 1;\n"
                      "        emit_v (o, x);\n"
                      "    }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    auto native = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(native->backendName(), "native");
    const std::int64_t n = rt::kNativeReactFuel * 6 / 10;
    native->react(); // boot reaches the await
    for (int r = 0; r < 2; ++r) {
        native->setInputScalar("n", n);
        ASSERT_NO_THROW(native->react()) << "reaction " << r;
    }
    EXPECT_EQ(native->outputValue("o").toInt(), 2 * n);
}

// ---------------------------------------------------------------------------
// Scripted differentials: a module written for one rule runs the same
// input scripts on every backend. The tree walk at -O2 is the oracle, and
// flat and the tree walk at -O0 and -O2, then native at both levels, must
// match it: outputs, trap and packed state.
// ---------------------------------------------------------------------------

/// One instant's inputs after boot: a name with a value sets an int
/// input, a name without one a pure input.
using Instant =
    std::vector<std::pair<const char*, std::optional<std::int64_t>>>;
using Script = std::vector<Instant>;

/// One scripted run: each instant's outputs, then the trap text if one
/// fires (the run stops there), and the final packed state.
struct ScriptRun {
    std::string outputs;
    std::string trap;
    std::vector<std::uint8_t> packed;
};

/// Boots `eng` and reacts once per instant of `script`, printing each of
/// `outputs` that is present, with its value when it has one.
ScriptRun runScript(rt::ReactiveEngine& eng,
                    const std::vector<const char*>& outputs,
                    const Script& script)
{
    ScriptRun run;
    auto react = [&] {
        eng.react();
        for (const char* out : outputs) {
            if (!eng.outputPresent(out)) continue;
            run.outputs += out;
            if (!eng.moduleSema().findSignal(out)->pure)
                run.outputs +=
                    "=" + std::to_string(eng.outputValue(out).toInt());
            run.outputs += " ";
        }
        run.outputs += "|";
    };
    try {
        react(); // boot
        for (const Instant& in : script) {
            for (const auto& [name, value] : in) {
                if (value) eng.setInputScalar(name, *value);
                else eng.setInput(name);
            }
            react();
        }
    } catch (const EclError& e) {
        run.trap = e.what();
    }
    run.packed = eng.packState();
    return run;
}

/// Runs every script of `module` on each backend at -O0 and -O2 and
/// expects the oracle's run, then returns the oracle's runs. Native rows
/// run only when a host C compiler exists.
std::vector<ScriptRun>
expectBackendsMatchTreeWalk(const char* source, const char* module,
                            const std::vector<const char*>& outputs,
                            const std::vector<Script>& scripts)
{
    Compiler compiler(source);
    std::shared_ptr<CompiledModule> mods[2];
    for (int i = 0; i < 2; ++i) {
        CompileOptions opts;
        opts.optLevel = i == 0 ? 0 : 2;
        mods[i] = compiler.compile(module, opts);
    }
    std::vector<ScriptRun> oracle;
    for (const Script& script : scripts) {
        auto tree = mods[1]->makeEngine(EngineKind::TreeWalk);
        EXPECT_STREQ(tree->backendName(), "tree");
        oracle.push_back(runScript(*tree, outputs, script));
    }
    const std::pair<EngineKind, const char*> backends[] = {
        {EngineKind::Flat, "flat"},
        {EngineKind::TreeWalk, "tree"},
        {EngineKind::Native, "native"}};
    for (const auto& [kind, name] : backends) {
        if (kind == EngineKind::Native && !nativeAvailable()) continue;
        for (std::size_t k = 0; k < scripts.size(); ++k) {
            for (int i = 0; i < 2; ++i) {
                const std::string what = std::string(name) +
                                         (i == 0 ? " -O0" : " -O2") +
                                         ", script " + std::to_string(k);
                auto eng = mods[i]->makeEngine(kind);
                EXPECT_STREQ(eng->backendName(), name) << what;
                const ScriptRun run = runScript(*eng, outputs, scripts[k]);
                EXPECT_EQ(run.outputs, oracle[k].outputs) << what;
                EXPECT_EQ(run.trap, oracle[k].trap) << what;
                EXPECT_EQ(run.packed, oracle[k].packed) << what;
            }
        }
    }
    return oracle;
}

// C-helper call frames: every backend builds them its own way (Evaluator
// frames, VM per-depth frames, generated C stack frames), so one module
// exercises each frame rule.
const char* const kHelperCallSource = R"(
typedef struct { int v[2]; } box_t;

int scaled_sum(box_t b, int scale)
{
    b.v[0] = b.v[0] * scale; /* by value: the caller's copy is unchanged */
    return b.v[0] + b.v[1];
}

int fib(int n)
{
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int acc(int n)
{
    int t; /* never initialized: every frame starts zeroed */
    t += n;
    if (n > 0) t += acc(n - 1);
    return t;
}

int down(int n)
{
    if (n == 0) return 0;
    return down(n - 1);
}

int nothing(int n)
{
    if (n > 1000) return 1;
}

module calls (input int n, input pure deep, input pure fall,
              output int sum, output int fibo, output int total,
              output int keep)
{
    box_t b;
    int r;
    while (1) {
        await (n || deep || fall);
        present (deep) r = down(1000);
        present (fall) r = nothing(n);
        b.v[0] = n;
        b.v[1] = n * 3;
        emit_v (sum, scaled_sum(b, 7));
        emit_v (keep, b.v[0]);
        emit_v (fibo, fib(n % 13));
        emit_v (total, acc(n % 20));
    }
}
)";

TEST(NativeDifferential, HelperCallFramesMatchAcrossBackends)
{
    const std::vector<Script> scripts = {
        {{{"n", 5}}, {{"n", 12}}, {{"n", -7}}, {{"n", 40}}, {{"n", 100}},
         {{"n", 19}}},
        {{{"n", 5}}, {{"deep", {}}}},
        {{{"n", 2}, {"fall", {}}}},
    };
    const std::vector<ScriptRun> oracle = expectBackendsMatchTreeWalk(
        kHelperCallSource, "calls", {"sum", "keep", "fibo", "total"},
        scripts);
    // Pinned on the values the helpers must compute (n = 5: 5*7 + 15,
    // the caller's b.v[0], fib(5), 5+4+..+0).
    EXPECT_EQ(oracle[0].outputs.find("sum=50 keep=5 fibo=5 total=15 "), 1u)
        << oracle[0].outputs;
    EXPECT_EQ(oracle[0].trap, "");
    EXPECT_NE(oracle[1].trap.find("call depth limit exceeded"),
              std::string::npos)
        << oracle[1].trap;
    EXPECT_NE(oracle[2].trap.find(
                  "function 'nothing' fell off the end without return"),
              std::string::npos)
        << oracle[2].trap;
    REQUIRE_NATIVE();
}

// A reactive do ... while, whose body awaits: `continue` goes to the
// condition, `break` leaves the loop, and a body entered with k <= 0 runs
// once.
const char* const kDoWhileSource = R"(
module pacer (input pure tick, input pure skip, input pure stop,
              input int n, output int count, output pure done)
{
    int k;
    while (1) {
        await (n);
        k = n;
        do {
            await (tick);
            present (skip) continue;
            k = k - 1;
            emit_v (count, k);
            present (stop) break;
        } while (k > 0);
        emit (done);
    }
}
)";

TEST(NativeDifferential, ReactiveDoWhileMatchesAcrossBackends)
{
    const Instant tick = {{"tick", {}}};
    const std::vector<Script> scripts = {
        {{{"n", 3}}, tick, {{"tick", {}}, {"skip", {}}}, tick, tick,
         {{"n", 2}}, tick, tick},
        {{{"n", 5}}, tick, {{"tick", {}}, {"stop", {}}}, {{"n", 0}}, tick,
         {{"n", 1}}, {{"tick", {}}, {"skip", {}}}, tick},
    };
    const std::vector<ScriptRun> oracle = expectBackendsMatchTreeWalk(
        kDoWhileSource, "pacer", {"count", "done"}, scripts);
    EXPECT_EQ(oracle[0].outputs,
              "||count=2 ||count=1 |count=0 done ||count=1 |count=0 done |");
    EXPECT_EQ(oracle[1].outputs, "||count=4 |count=3 done ||count=-1 done "
                                 "|||count=0 done |");
    EXPECT_EQ(oracle[0].trap, "");
    EXPECT_EQ(oracle[1].trap, "");
    REQUIRE_NATIVE();
}

// ---------------------------------------------------------------------------
// Graceful degradation: Native must never fail the caller.
// ---------------------------------------------------------------------------

TEST(NativeFallback, DisableEnvVarFallsBackToVm)
{
    ScopedEnv disable("ECL_NATIVE_DISABLE", "1");
    auto mod = compilePaper(kPaperCases[6], 2);
    auto eng = mod->makeEngine(EngineKind::Native);
    EXPECT_STREQ(eng->backendName(), "flat");
    // The fallback engine is fully functional.
    std::string trace =
        corpus::runStimulus(*eng, corpus::Profile::Random, 1, 40);
    EXPECT_FALSE(trace.empty());
}

TEST(NativeFallback, MissingCompilerFallsBackToVm)
{
    auto cache = freshTempDir("native_nocc");
    std::string cachePath = cache.string();
    ScopedEnv cc("CC", "/nonexistent/ecl-no-such-cc");
    ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cachePath.c_str());
    auto mod = compilePaper(kPaperCases[6], 2);
    auto eng = mod->makeEngine(EngineKind::Native);
    EXPECT_STREQ(eng->backendName(), "flat");
    std::string trace =
        corpus::runStimulus(*eng, corpus::Profile::Random, 1, 40);
    EXPECT_FALSE(trace.empty());
    std::filesystem::remove_all(cache);
}

TEST(NativeBuild, CacheDirWithAQuoteAndASpaceBuilds)
{
    // The compiler runs from an argument vector: no shell parses the
    // paths, and $CC may carry words of its own ("ccache gcc").
    const std::string cc = syntaxCheckCompiler();
    if (cc.empty()) GTEST_SKIP() << "no host C compiler on PATH";
    for (const std::string& compiler : {cc, "env " + cc}) {
        SCOPED_TRACE("CC=" + compiler);
        auto cache = freshTempDir("it's a dir");
        ScopedEnv ccEnv("CC", compiler.c_str());
        ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cache.string().c_str());
        auto mod = compilePaper(kPaperCases[6], 2);
        auto eng = mod->makeEngine(EngineKind::Native);
        EXPECT_STREQ(eng->backendName(), "native");
        // nativeModule() rethrows why the backend is unavailable.
        EXPECT_EQ(mod->nativeModule()->compiler(), compiler);
        std::filesystem::remove_all(cache);
    }
}

TEST(NativeFallback, NativeModuleBuildReportsCompilerError)
{
    auto cache = freshTempDir("native_badsrc");
    std::string cachePath = cache.string();
    ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cachePath.c_str());
    if (syntaxCheckCompiler().empty())
        GTEST_SKIP() << "no host C compiler on PATH";
    EXPECT_THROW(rt::NativeModule::build("this is not C\n", "bad"),
                 EclError);
    std::filesystem::remove_all(cache);
}

} // namespace
} // namespace ecl
