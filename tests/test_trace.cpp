// Trace tests: VCD/timeline rendering of recordings, the input-stream
// record/replay format, the bit-exact replay contract across engines and
// -O levels, and verifier counterexamples as replayable input scripts.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/runtime/trace.h"
#include "src/verify/explorer.h"

namespace {

using namespace ecl;

TEST(TraceTest, TimelineShowsBlinkerPattern)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("blinker");
    auto eng = mod->makeEngine();
    eng->react(); // boot, not recorded
    rt::RecordingEngine rec(*eng, "blinker");
    for (int t = 0; t < 10; ++t) {
        rec.setInput("tick");
        rec.react();
    }
    EXPECT_EQ(rec.trace().instants.size(), 10u);
    std::string tl = rt::toTimeline(rec.trace());
    EXPECT_NE(tl.find("tick    ##########"), std::string::npos);
    EXPECT_NE(tl.find("led_on  #....#...."), std::string::npos);
    EXPECT_NE(tl.find("led_off ..#....#.."), std::string::npos);
}

TEST(TraceTest, VcdWellFormed)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("blinker");
    auto eng = mod->makeEngine();
    eng->react(); // boot, not recorded
    rt::RecordingEngine rec(*eng, "blinker");
    for (int t = 0; t < 6; ++t) {
        rec.setInput("tick");
        rec.react();
    }
    std::string vcd = rt::toVcd(rec.trace());
    EXPECT_NE(vcd.find("$timescale"), std::string::npos);
    EXPECT_NE(vcd.find("$scope module blinker $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1 ! reset $end"), std::string::npos);
    EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(vcd.find("#0"), std::string::npos);
    EXPECT_NE(vcd.find("#6"), std::string::npos);
    // Changes only on edges: led_on toggles at instants 0,1 then 5,6.
    std::size_t ones = 0;
    for (std::size_t pos = vcd.find("\n1"); pos != std::string::npos;
         pos = vcd.find("\n1", pos + 1))
        ++ones;
    EXPECT_GE(ones, 2u);
}

TEST(TraceTest, ValuedSignalTracked)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " while (1) { await (v); emit_v (o, v * 2); } }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeEngine();
    eng->react(); // boot, not recorded
    rt::RecordingEngine rec(*eng, "m");
    for (int t = 1; t <= 3; ++t) {
        rec.setInputScalar("v", t);
        rec.react();
    }
    std::string vcd = rt::toVcd(rec.trace());
    EXPECT_NE(vcd.find("o_val"), std::string::npos);
    EXPECT_NE(vcd.find("b110 "), std::string::npos); // 3*2 = 6
}

TEST(TraceTest, RecordingAnswersAsItsEngine)
{
    // Every query answers through the wrapper exactly as the engine it
    // wraps — backend, presence, values, termination, auto-resume and the
    // packed state — and the structural baseline, which cannot snapshot,
    // refuses packState() through it too.
    Compiler compiler("module m (input int v, output int o, output pure done)"
                      " { int n;"
                      "   while (n < 2) { await (v); n = n + 1;"
                      "                   emit_v (o, v * 2); }"
                      "   emit (done); }");
    auto mod = compiler.compile("m");
    const int o = mod->moduleSema().findSignal("o")->index;
    const int done = mod->moduleSema().findSignal("done")->index;
    std::vector<std::unique_ptr<rt::ReactiveEngine>> engines;
    engines.push_back(mod->makeEngine());
    engines.push_back(mod->makeEngine(EngineKind::TreeWalk));
    engines.push_back(mod->makeBaselineEngine());
    for (const auto& eng : engines) {
        rt::RecordingEngine rec(*eng, "m");
        SCOPED_TRACE(eng->backendName());
        EXPECT_STREQ(rec.backendName(), eng->backendName());
        for (int t = 0; t < 4; ++t) {
            if (t > 0) rec.setInputScalar("v", t);
            rec.react();
            EXPECT_EQ(rec.outputPresent(o), eng->outputPresent(o));
            EXPECT_EQ(rec.outputPresent(done), eng->outputPresent(done));
            EXPECT_EQ(rec.outputValue(o).toInt(), eng->outputValue(o).toInt());
            EXPECT_EQ(rec.terminated(), eng->terminated());
            EXPECT_EQ(rec.needsAutoResume(), eng->needsAutoResume());
            if (std::string(eng->backendName()) == "rc") {
                EXPECT_THROW((void)rec.packState(), EclError);
                EXPECT_THROW((void)eng->packState(), EclError);
            } else {
                EXPECT_EQ(rec.packState(), eng->packState());
            }
        }
        EXPECT_TRUE(rec.terminated());
        EXPECT_EQ(rec.outputValue(o).toInt(), 4);
    }
}

// ---------------------------------------------------------------------------
// Input-stream record/replay
// ---------------------------------------------------------------------------

struct PaperModule {
    const char* paper;
    const char* module;
};

const PaperModule kPaperModules[] = {
    {"stack", "assemble"},   {"stack", "checkcrc"},
    {"stack", "prochdr"},    {"stack", "toplevel"},
    {"buffer", "producer"},  {"buffer", "playback"},
    {"buffer", "blinker"},   {"buffer", "buffer_top"},
};

std::string paperSource(const std::string& paper)
{
    return paper == "stack" ? paper::protocolStackSource()
                            : paper::audioBufferSource();
}

/// Records `instants` instants of random stimulus on a fresh flat engine
/// of `mod` and returns the trace plus the recorded engine's packed
/// post-state.
rt::InputTrace recordRandom(const CompiledModule& mod, unsigned seed,
                            int instants,
                            std::vector<std::uint8_t>* finalState = nullptr)
{
    auto eng = mod.makeEngine();
    rt::InputTrace trace =
        corpus::recordStimulus(*eng, corpus::Profile::Random, seed, instants);
    if (finalState) *finalState = eng->packState();
    return trace;
}

std::string serialize(const rt::InputTrace& t)
{
    std::ostringstream os;
    rt::writeTrace(t, os);
    return os.str();
}

// Write, read and write again gives identical bytes, and the recorded
// output stream survives the round trip.
TEST(TraceReplayTest, RoundTripIsLossless)
{
    struct Case {
        const char* paper;
        const char* module;
        unsigned seed;
        int instants;
    };
    for (const Case& c : {Case{"buffer", "buffer_top", 5, 40},
                          Case{"stack", "toplevel", 9, 30}}) {
        SCOPED_TRACE(c.module);
        Compiler compiler(paperSource(c.paper));
        auto mod = compiler.compile(c.module);
        rt::InputTrace t = recordRandom(*mod, c.seed, c.instants);
        // Boot + the stimulus instants.
        ASSERT_EQ(t.instants.size(), c.instants + 1u);

        const std::string text = serialize(t);
        EXPECT_EQ(text.rfind("eclrtrace 1\n", 0), 0u);
        std::istringstream is(text);
        rt::InputTrace back = rt::readTrace(is);
        EXPECT_EQ(back.module, t.module);
        EXPECT_EQ(serialize(back), text);
        EXPECT_EQ(back.outputLog(), t.outputLog());
    }
}

TEST(TraceReplayTest, UnknownFormatRejected)
{
    std::istringstream is("not a trace at all");
    EXPECT_THROW(rt::readTrace(is), EclError);
}

// Trace files come from outside the program: a malformed one must fail
// with EclError, never with a library exception, an abort or a read past
// a value's bytes.

TEST(TraceReplayTest, TextSignalWidthParsesStrictly)
{
    for (const char* kind : {"vq", "v", "v-1", "v4x", "v+4",
                             "v99999999999999999999", "v1048577"}) {
        std::istringstream is(std::string("eclrtrace 1\nsignal v in ") +
                              kind + "\n");
        EXPECT_THROW(rt::readTrace(is), EclError) << kind;
    }
    std::istringstream ok("eclrtrace 1\nsignal v in v4\n");
    EXPECT_EQ(rt::readTrace(ok).signals.at(0).valueSize, 4u);
}

TEST(TraceReplayTest, TextInstantCountParsesStrictly)
{
    const std::string head = "eclrtrace 1\nmodule m\nsignal a in pure\n";
    const std::string body = "@0\nin a\nend - -\n";
    // The declared count must be a whole number equal to the instants the
    // file holds; nothing is allocated from it.
    for (const char* count : {"999999999999999", "99999999999999999999", "-1",
                              "abc", "1x", "", "0", "2"}) {
        std::istringstream is(head + "instants " + count + "\n" + body);
        EXPECT_THROW(rt::readTrace(is), EclError) << "'" << count << "'";
    }
    std::istringstream ok(head + "instants 1\n" + body);
    EXPECT_EQ(rt::readTrace(ok).instants.size(), 1u);
}

TEST(TraceReplayTest, EventValueMustMatchItsSignalWidth)
{
    rt::InputTrace base;
    base.module = "m";
    base.signals = {{"x", true, false, /*pure=*/false, /*valueSize=*/4},
                    {"p", true, false, /*pure=*/true, /*valueSize=*/0}};
    auto withValue = [&](std::uint32_t sig, std::size_t bytes) {
        rt::InputTrace t = base;
        rt::TraceEvent ev;
        ev.signal = sig;
        ev.value.assign(bytes, 0x01);
        t.instants.emplace_back().inputs.push_back(ev);
        return t;
    };
    // Presence only, or exactly the declared width: accepted.
    for (std::size_t bytes : {0, 4}) {
        std::istringstream is(serialize(withValue(0, bytes)));
        const rt::InputTrace back = rt::readTrace(is);
        EXPECT_EQ(back.instants.at(0).inputs.at(0).value.size(), bytes);
    }
    // Short (replay would read past it), long (replay would cut it), or
    // any value on a pure signal: rejected on read.
    for (auto [sig, bytes] : {std::pair<std::uint32_t, std::size_t>{0, 1},
                              {0, 8},
                              {1, 4}}) {
        std::istringstream is(serialize(withValue(sig, bytes)));
        EXPECT_THROW(rt::readTrace(is), EclError)
            << "signal " << sig << ", " << bytes << " bytes";
    }
}

/// A module whose int input `v` is echoed on `o`, beside a pure input `p`
/// and a char input `c` that lends its type to narrower values.
constexpr const char* kEchoSource =
    "module m (input pure p, input int v, input char c,\n"
    "          output int o)\n"
    "{\n"
    "    while (1) {\n"
    "        await (v);\n"
    "        emit_v (o, v);\n"
    "    }\n"
    "}\n";

/// Records the boot instant and one instant in which `stage` stages inputs
/// on the recording engine, then checks that the recording survives its own
/// text format and replays bit-exactly on a fresh engine of `kind`.
rt::InputTrace recordOneInstant(
    const CompiledModule& mod, EngineKind kind,
    const std::function<void(rt::RecordingEngine&)>& stage)
{
    auto eng = mod.makeEngine(kind);
    rt::RecordingEngine rec(*eng, mod.name());
    rec.react(); // boot
    stage(rec);
    rec.react();
    rt::InputTrace t = rec.takeTrace();
    const std::string text = serialize(t);
    std::istringstream is(text);
    rt::InputTrace back;
    EXPECT_NO_THROW(back = rt::readTrace(is));
    EXPECT_EQ(serialize(back), text);
    auto fresh = mod.makeEngine(kind);
    const rt::TraceReplayResult r = rt::replayTrace(*fresh, t);
    EXPECT_TRUE(r.outputsMatch) << r.mismatch;
    return t;
}

// A value the engine rejects is not part of the run, so the recording
// holds no event for it.
TEST(TraceReplayTest, RecordingSkipsARejectedInput)
{
    Compiler compiler(kEchoSource);
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int p = sema.findSignal("p")->index;
    const int v = sema.findSignal("v")->index;
    const Value four = Value::fromInt(sema.findSignal("v")->valueType, 4);
    for (EngineKind kind :
         {EngineKind::Flat, EngineKind::TreeWalk, EngineKind::Native}) {
        SCOPED_TRACE(static_cast<int>(kind));
        const rt::InputTrace t =
            recordOneInstant(*mod, kind, [&](rt::RecordingEngine& rec) {
                EXPECT_THROW(rec.setInputValue(p, four), EclError);
                rec.setInputValue(v, four);
            });
        ASSERT_EQ(t.instants.size(), 2u);
        ASSERT_EQ(t.instants[1].inputs.size(), 1u);
        EXPECT_EQ(t.instants[1].inputs[0].signal, static_cast<unsigned>(v));
    }
}

// An accepted value of a narrower type is staged at the input's declared
// width, and the recording holds those staged bytes.
TEST(TraceReplayTest, RecordingHoldsTheStagedWidth)
{
    Compiler compiler(kEchoSource);
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int v = sema.findSignal("v")->index;
    const Value seven = Value::fromInt(sema.findSignal("c")->valueType, 7);
    ASSERT_EQ(seven.size(), 1u);
    for (EngineKind kind :
         {EngineKind::Flat, EngineKind::TreeWalk, EngineKind::Native}) {
        SCOPED_TRACE(static_cast<int>(kind));
        const rt::InputTrace t =
            recordOneInstant(*mod, kind, [&](rt::RecordingEngine& rec) {
                rec.setInputValue(v, seven);
            });
        ASSERT_EQ(t.instants.size(), 2u);
        ASSERT_EQ(t.instants[1].inputs.size(), 1u);
        EXPECT_EQ(t.instants[1].inputs[0].value,
                  (std::vector<std::uint8_t>{7, 0, 0, 0}));
    }
}

// An in-memory trace has not been through readTrace: replay applies the
// same width check before staging, and throws instead of reading past a
// value or handing one to a pure signal.
TEST(TraceReplayTest, ReplayRejectsAMalformedInMemoryEvent)
{
    Compiler compiler(kEchoSource);
    auto mod = compiler.compile("m");
    for (auto [name, bytes] : {std::pair<const char*, std::size_t>{"v", 1},
                               {"v", 8},
                               {"p", 4}}) {
        const SignalInfo& sig = *mod->moduleSema().findSignal(name);
        rt::InputTrace t = rt::InputTrace::forModule(mod->moduleSema(), "m");
        rt::TraceEvent& ev = t.instants.emplace_back().inputs.emplace_back();
        ev.signal = static_cast<std::uint32_t>(sig.index);
        ev.value.assign(bytes, 0x01);
        auto eng = mod->makeEngine();
        EXPECT_THROW(rt::replayTrace(*eng, t), EclError)
            << name << ", " << bytes << " bytes";
    }
}

TEST(TraceReplayTest, SignalLinesEndFlagsAndInstantOrderParseStrictly)
{
    const std::string head = "eclrtrace 1\nmodule m\nsignal a in pure\n";
    // What writeTrace produces: accepted.
    std::istringstream ok(head + "@0\nin a\nend T a\n@1\nend - -\n");
    const rt::InputTrace back = rt::readTrace(ok);
    ASSERT_EQ(back.instants.size(), 2u);
    EXPECT_TRUE(back.instants[0].terminated);
    EXPECT_TRUE(back.instants[0].autoResume);
    // End flags other than T/- and a/-, a signal declared twice or with
    // no known direction, and instants out of order: rejected.
    for (const std::string& bad :
         {head + "@0\nend X Y\n", head + "@0\nend T\n",
          head + "signal a out pure\n@0\nend - -\n",
          head + "signal b sideways pure\n@0\nend - -\n",
          head + "@7\nend - -\n@3\nend - -\n",
          head + "@0\nend - -\n@0\nend - -\n"}) {
        std::istringstream is(bad);
        EXPECT_THROW(rt::readTrace(is), EclError) << bad;
    }
}

TEST(TraceReplayTest, ReplayDetectsTamperedOutputs)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("blinker");
    rt::InputTrace t = recordRandom(*mod, 3, 20);

    // Drop one recorded output event: replay must flag the divergence.
    bool tampered = false;
    for (rt::TraceInstant& in : t.instants) {
        if (!in.outputs.empty()) {
            in.outputs.pop_back();
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);
    auto eng = mod->makeEngine();
    rt::TraceReplayResult r = rt::replayTrace(*eng, t);
    EXPECT_FALSE(r.outputsMatch);
    EXPECT_NE(r.mismatch.find("instant"), std::string::npos);
}

TEST(TraceReplayTest, ReplayOnWrongModuleFails)
{
    Compiler stack(paper::protocolStackSource());
    rt::InputTrace t = recordRandom(*stack.compile("toplevel"), 2, 10);
    Compiler buffer(paper::audioBufferSource());
    auto eng = buffer.compile("buffer_top")->makeEngine();
    EXPECT_THROW(rt::replayTrace(*eng, t), EclError);
}

// The tentpole contract, proven over all 8 paper modules: a trace
// recorded from a SyncEngine replays bit-exactly — outputs AND packed
// post-state — on a fresh SyncEngine, on a BatchEngine instance, and
// across -O0/-O2, with the documented ExecCounters relationships.
TEST(TraceReplayTest, RecordedTraceReplaysBitExactEverywhere)
{
    unsigned seed = 100;
    for (const PaperModule& pm : kPaperModules) {
        SCOPED_TRACE(std::string(pm.paper) + "/" + pm.module);
        Compiler compiler(paperSource(pm.paper));
        auto mod2 = compiler.compile(pm.module); // -O2 default
        CompileOptions o0;
        o0.optLevel = 0;
        auto mod0 = compiler.compile(pm.module, o0);

        std::vector<std::uint8_t> recordedState;
        rt::InputTrace t = recordRandom(*mod2, seed++, 50, &recordedState);

        // Fresh SyncEngine, same compile: outputs + full packed state.
        auto e2 = mod2->makeEngine();
        rt::TraceReplayResult sync2 = rt::replayTrace(*e2, t);
        EXPECT_TRUE(sync2.outputsMatch) << sync2.mismatch;
        EXPECT_EQ(sync2.finalState, recordedState);
        EXPECT_EQ(sync2.instants, t.instants.size());

        // BatchEngine instance (not #0, to exercise arena strides):
        // outputs, full packed state, and EXACT counters vs sync.
        auto batch = mod2->makeBatchEngine(3);
        rt::TraceReplayResult bat = rt::replayTrace(*batch, 1, t);
        EXPECT_TRUE(bat.outputsMatch) << bat.mismatch;
        EXPECT_EQ(bat.finalState, sync2.finalState);
        EXPECT_EQ(bat.outputDigest, sync2.outputDigest);
        EXPECT_EQ(bat.treeTests, sync2.treeTests);
        EXPECT_EQ(bat.actionsRun, sync2.actionsRun);
        EXPECT_EQ(bat.emitsRun, sync2.emitsRun);
        EXPECT_EQ(bat.dataCounters.exprOps, sync2.dataCounters.exprOps);
        EXPECT_EQ(bat.dataCounters.loads, sync2.dataCounters.loads);
        EXPECT_EQ(bat.dataCounters.stores, sync2.dataCounters.stores);

        // Flat -O0 and the tree-walking oracle: outputs match, data bytes
        // match (control ids are renumbered by minimization at -O1+).
        auto e0 = mod0->makeEngine();
        rt::TraceReplayResult sync0 = rt::replayTrace(*e0, t);
        EXPECT_TRUE(sync0.outputsMatch) << sync0.mismatch;
        EXPECT_EQ(sync0.finalData(), sync2.finalData());
        EXPECT_EQ(sync0.outputDigest, sync2.outputDigest);

        auto tw = mod0->makeEngine(EngineKind::TreeWalk);
        rt::TraceReplayResult tree = rt::replayTrace(*tw, t);
        EXPECT_TRUE(tree.outputsMatch) << tree.mismatch;
        EXPECT_EQ(tree.finalData(), sync2.finalData());
        EXPECT_EQ(tree.outputDigest, sync2.outputDigest);

        // Counter contract: engine-level counters identical at every
        // level; -O0 flat matches the tree walk exactly (instruction-
        // level too); -O2's data counters may only shrink.
        EXPECT_EQ(sync0.treeTests, sync2.treeTests);
        EXPECT_EQ(sync0.actionsRun, sync2.actionsRun);
        EXPECT_EQ(sync0.emitsRun, sync2.emitsRun);
        EXPECT_EQ(sync0.treeTests, tree.treeTests);
        EXPECT_EQ(sync0.actionsRun, tree.actionsRun);
        EXPECT_EQ(sync0.dataCounters.exprOps, tree.dataCounters.exprOps);
        EXPECT_EQ(sync0.dataCounters.loads, tree.dataCounters.loads);
        EXPECT_EQ(sync0.dataCounters.stores, tree.dataCounters.stores);
        EXPECT_LE(sync2.dataCounters.exprOps, sync0.dataCounters.exprOps);
        EXPECT_LE(sync2.dataCounters.loads, sync0.dataCounters.loads);
        EXPECT_LE(sync2.dataCounters.stores, sync0.dataCounters.stores);
    }
}

// A serialized trace is as replayable as a live one: the full
// record -> write -> read -> replay loop stays bit-exact.
TEST(TraceReplayTest, SerializedTraceReplaysBitExact)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    std::vector<std::uint8_t> recordedState;
    rt::InputTrace t = recordRandom(*mod, 42, 60, &recordedState);

    std::istringstream is(serialize(t));
    rt::InputTrace back = rt::readTrace(is);
    auto eng = mod->makeEngine();
    rt::TraceReplayResult r = rt::replayTrace(*eng, back);
    EXPECT_TRUE(r.outputsMatch) << r.mismatch;
    EXPECT_EQ(r.finalState, recordedState);
}

// ---------------------------------------------------------------------------
// Counterexamples are input scripts: the verifier reports a violation as an
// InputTrace that writes, reads and replays like any recording.
// ---------------------------------------------------------------------------

std::string fixtureText(const std::string& name)
{
    std::ifstream in(std::string(ECL_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(in) << name;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// The counterexample of `design` in `src` (with `monitorSrc` attached
/// when given), bounded at 12 instants.
rt::InputTrace counterexample(const std::string& src, const std::string& design,
                              const std::string& monitorSrc = {})
{
    Compiler compiler(src);
    verify::ExplorerOptions opts;
    opts.maxDepth = 12;
    auto ex = compiler.compile(design)->makeExplorer(opts);
    std::unique_ptr<Compiler> monCompiler;
    if (!monitorSrc.empty()) {
        monCompiler = std::make_unique<Compiler>(monitorSrc);
        monCompiler->compile(monCompiler->moduleNames().back())
            ->attachAsMonitor(*ex);
    }
    verify::ExploreResult res = ex->run();
    EXPECT_TRUE(res.violated);
    EXPECT_FALSE(res.trace.instants.empty());
    for (const rt::TraceInstant& in : res.trace.instants)
        EXPECT_TRUE(in.outputs.empty()); // the explorer observes none
    return res.trace;
}

/// Replays `t` on flat -O2, flat -O0, the tree walk and a BatchEngine
/// instance of `module`, the four representations eclc --replay-trace
/// compares.
std::vector<rt::TraceReplayResult>
replayEverywhere(const std::string& src, const std::string& module,
                 const rt::InputTrace& t)
{
    Compiler compiler(src);
    auto mod2 = compiler.compile(module);
    CompileOptions o0;
    o0.optLevel = 0;
    auto mod0 = compiler.compile(module, o0);
    auto batch = mod2->makeBatchEngine(3);
    return {rt::replayTrace(*mod2->makeEngine(), t),
            rt::replayTrace(*mod0->makeEngine(), t),
            rt::replayTrace(*mod0->makeEngine(EngineKind::TreeWalk), t),
            rt::replayTrace(*batch, 1, t)};
}

// A replay that traps reports the trap and has no final state; its data
// bytes are empty, not sliced out of nothing (eclc --replay-trace reads
// them for every row).
TEST(CounterexampleTrace, TrappingReplayReportsTheTrap)
{
    const std::string src = fixtureText("trap_equal_branches.ecl");
    std::istringstream is(fixtureText("trap_equal_branches.eclrtrace"));
    const rt::InputTrace t = rt::readTrace(is);
    // The committed fixture is the verifier's counterexample.
    EXPECT_EQ(serialize(t), serialize(counterexample(src, "trapdiv")));

    for (const rt::TraceReplayResult& r : replayEverywhere(src, "trapdiv", t)) {
        EXPECT_FALSE(r.outputsMatch);
        EXPECT_EQ(r.mismatch, "runtime trap at instant 1: 12:17: runtime: "
                              "division by zero");
        EXPECT_EQ(r.instants, 1u);
        EXPECT_TRUE(r.finalState.empty());
        std::vector<std::uint8_t> data;
        EXPECT_NO_THROW(data = r.finalData());
        EXPECT_TRUE(data.empty());
    }
}

TEST(CounterexampleTrace, RoundTripsAndReplaysAlikeEverywhere)
{
    struct Case {
        std::string src, design, monitor;
        bool traps;
    };
    for (const Case& c :
         {Case{fixtureText("trap_equal_branches.ecl"), "trapdiv", "", true},
          Case{paper::audioBufferSource(), "buffer_top",
               fixtureText("monitor_speaker_on.ecl"), false}}) {
        SCOPED_TRACE(c.design);
        const rt::InputTrace t = counterexample(c.src, c.design, c.monitor);
        const std::string text = serialize(t);
        std::istringstream is(text);
        EXPECT_EQ(serialize(rt::readTrace(is)), text);

        const std::vector<rt::TraceReplayResult> rows =
            replayEverywhere(c.src, c.design, t);
        for (const rt::TraceReplayResult& r : rows) {
            EXPECT_EQ(r.outputDigest, rows[0].outputDigest);
            EXPECT_EQ(r.finalData(), rows[0].finalData());
            EXPECT_EQ(r.finalState.empty(), c.traps);
            if (c.traps) {
                EXPECT_EQ(r.mismatch, "runtime trap at instant 1: 12:17: "
                                      "runtime: division by zero");
            }
        }
    }
}

// The renderers draw any recording, a counterexample included: the
// buffer's violating path presses play once while sampling.
TEST(CounterexampleTrace, RendersAsATimeline)
{
    const std::string tl = rt::toTimeline(
        counterexample(paper::audioBufferSource(), "buffer_top",
                       fixtureText("monitor_speaker_on.ecl")));
    EXPECT_NE(tl.find("sample      .########\n"), std::string::npos) << tl;
    EXPECT_NE(tl.find("play        ...#.....\n"), std::string::npos) << tl;
    EXPECT_NE(tl.find("speaker_on  .........\n"), std::string::npos) << tl;
}

} // namespace
