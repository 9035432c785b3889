// Runtime engine tests: SyncEngine/RcEngine parity, signal environment,
// instant lifecycle, counters, and trap parity across the flat kernel's
// callers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/runtime/batch_engine.h"
#include "src/verify/explorer.h"

namespace {

using namespace ecl;

TEST(SignalEnvTest, PresenceClearedPerInstant)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " while (1) { await (v); emit_v (o, v); } }");
    auto mod = compiler.compile("m");
    rt::SignalEnv env(mod->moduleSema());
    env.setPresent(0);
    EXPECT_TRUE(env.isPresent(0));
    env.beginInstant();
    EXPECT_FALSE(env.isPresent(0));
}

TEST(SignalEnvTest, ValuePersistsAcrossInstants)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " while (1) { await (v); emit_v (o, v); } }");
    auto mod = compiler.compile("m");
    rt::SignalEnv env(mod->moduleSema());
    const SignalInfo* v = mod->moduleSema().findSignal("v");
    env.setValue(v->index, Value::fromInt(v->valueType, 7));
    env.beginInstant();
    EXPECT_EQ(env.signalValue(v->index).toInt(), 7);
}

TEST(SignalEnvTest, PureSignalValueAccessThrows)
{
    Compiler compiler("module m (input pure p) { halt(); }");
    auto mod = compiler.compile("m");
    rt::SignalEnv env(mod->moduleSema());
    EXPECT_THROW(env.signalValue(0), EclError);
    EXPECT_THROW(env.setValue(0, Value{}), EclError);
}

std::string errorText(const std::function<void()>& misuse)
{
    try {
        misuse();
    } catch (const EclError& e) {
        return e.what();
    }
    return "(no error)";
}

TEST(EngineTest, InputApiValidation)
{
    // Every engine rejects each misuse of the signal API with one text.
    Compiler compiler("typedef struct { int a; int b; int c; int d; } quad_t;"
                      "\nmodule m (input pure p, input int v, output pure o,"
                      " input quad_t w) { halt(); }");
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int p = sema.findSignal("p")->index;
    const int o = sema.findSignal("o")->index;
    const int w = sema.findSignal("w")->index;
    const Value one = Value::fromInt(sema.findSignal("v")->valueType, 1);
    struct SignalApi {
        std::string name;
        std::function<void(int)> setInput;
        std::function<void(int, std::int64_t)> setInputScalar;
        std::function<void(int, const Value&)> setInputValue;
        std::function<void(int)> outputPresent;
        std::function<void(int)> outputValue;
    };
    std::vector<std::unique_ptr<rt::ReactiveEngine>> engines;
    engines.push_back(mod->makeEngine(EngineKind::Flat));
    engines.push_back(mod->makeEngine(EngineKind::TreeWalk));
    engines.push_back(mod->makeEngine(EngineKind::Native));
    engines.push_back(mod->makeBaselineEngine());
    std::vector<SignalApi> apis;
    for (const auto& e : engines) {
        rt::ReactiveEngine* eng = e.get();
        EXPECT_EQ(errorText([&] { eng->setInput("nosuch"); }),
                  "no signal named 'nosuch'")
            << eng->backendName();
        apis.push_back(
            {eng->backendName(), [=](int s) { eng->setInput(s); },
             [=](int s, std::int64_t v) { eng->setInputScalar(s, v); },
             [=](int s, const Value& v) { eng->setInputValue(s, v); },
             [=](int s) { (void)eng->outputPresent(s); },
             [=](int s) { (void)eng->outputValue(s); }});
    }
    auto batch = mod->makeBatchEngine(2);
    rt::BatchEngine* b = batch.get();
    apis.push_back({"batch[1]", [=](int s) { b->setInput(1, s); },
                    [=](int s, std::int64_t v) { b->setInputScalar(1, s, v); },
                    [=](int s, const Value& v) { b->setInputValue(1, s, v); },
                    [=](int s) { (void)b->outputPresent(1, s); },
                    [=](int s) { (void)b->outputValue(1, s); }});

    for (const SignalApi& api : apis) {
        EXPECT_EQ(errorText([&] { api.setInput(o); }),
                  "'o' is not an input signal")
            << api.name;
        EXPECT_EQ(errorText([&] { api.setInputScalar(p, 1); }),
                  "'p' is pure; use setInput()")
            << api.name;
        // An aggregate value, here wider than any scalar, takes
        // setInputValue().
        EXPECT_EQ(errorText([&] { api.setInputScalar(w, 1); }),
                  "'w' is not scalar-valued; use setInputValue()")
            << api.name;
        EXPECT_EQ(errorText([&] { api.setInputValue(p, one); }),
                  "cannot set a value on pure signal 'p'")
            << api.name;
        EXPECT_EQ(errorText([&] { api.outputPresent(99); }),
                  "signal index 99 out of range")
            << api.name;
        EXPECT_EQ(errorText([&] { api.outputValue(o); }),
                  "value read on pure signal 'o'")
            << api.name;
    }
}

TEST(BatchEngineTest, ThreadCountIsCapped)
{
    // Every worker owns a reactor, and all but one are OS threads: the
    // worker pool refuses a count past rt::kMaxThreads before it starts
    // a thread (a helper the throw left joinable would end the process).
    Compiler compiler("module m (input pure p) { while (1) await (p); }");
    auto mod = compiler.compile("m");
    EXPECT_THROW((void)mod->makeBatchEngine(1, {.threads = rt::kMaxThreads + 1}),
                 EclError);
}

TEST(EngineTest, ReactionCountersPopulated)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " int s; while (1) { await (v); s = s + v;"
                      " emit_v (o, s); } }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeEngine();
    eng->react();
    eng->setInputScalar("v", 3);
    rt::ReactionResult r = eng->react();
    EXPECT_GT(r.treeTests, 0u);
    EXPECT_GT(r.actionsRun, 0u);
    EXPECT_EQ(r.emitsRun, 1u);
    EXPECT_GT(r.dataCounters.total(), 0u);
    EXPECT_EQ(r.emittedOutputs.size(), 1u);
}

TEST(EngineTest, DataBytesReportsFootprint)
{
    Compiler compiler("typedef unsigned char byte;\n"
                      "module m (input byte v, output pure o) {"
                      " byte buf[32]; int n;"
                      " while (1) { await (v); buf[n % 32] = v; n++; } }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeEngine();
    // [i32 control state][buf, n and the value slot of v].
    EXPECT_GE(eng->packState().size(), 4u + 32u + 4u + 1u);
}

/// Drives both engines with the same pseudo-random pure-signal stimulus and
/// compares full output traces.
void expectEnginesAgree(const std::string& src,
                        const std::vector<std::string>& inputs,
                        const std::vector<std::string>& outputs,
                        unsigned seed, int instants)
{
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto efsm = mod->makeEngine();
    auto rc = mod->makeBaselineEngine();
    efsm->react();
    rc->react();
    std::uint32_t rng = seed * 2654435761u + 1;
    for (int t = 0; t < instants; ++t) {
        for (const std::string& in : inputs) {
            rng = rng * 1664525u + 1013904223u;
            if ((rng >> 16) & 1) {
                efsm->setInput(in);
                rc->setInput(in);
            }
        }
        efsm->react();
        rc->react();
        for (const std::string& out : outputs)
            ASSERT_EQ(efsm->outputPresent(out), rc->outputPresent(out))
                << "instant " << t << " output " << out << " seed " << seed;
    }
}

TEST(DifferentialTest, AbortNest)
{
    const char* src =
        "module m (input pure a, input pure b, input pure t,"
        " output pure x, output pure y) {"
        " while (1) {"
        "  do {"
        "    do { while (1) { await (t); emit (x); } } abort (b)"
        "      handle { emit (y); }"
        "    halt ();"
        "  } abort (a);"
        " } }";
    for (unsigned seed = 1; seed <= 5; ++seed)
        expectEnginesAgree(src, {"a", "b", "t"}, {"x", "y"}, seed, 60);
}

TEST(DifferentialTest, InstanceGuardRenamesEveryOperand)
{
    // Inlining an instance renames its formals inside a compound guard:
    // gate's `a & ~b` becomes `p & ~q` in m.
    Compiler compiler(
        "module gate (input pure a, input pure b, output pure y) {"
        " while (1) { await (a & ~b); emit (y); } }"
        "module m (input pure p, input pure q, output pure z) {"
        " gate (p, q, z); }");
    auto mod = compiler.compile("m");
    std::vector<std::unique_ptr<rt::ReactiveEngine>> engines;
    engines.push_back(mod->makeEngine());
    engines.push_back(mod->makeBaselineEngine());
    for (const auto& eng : engines) {
        SCOPED_TRACE(eng->backendName());
        eng->react(); // boot
        const std::vector<std::pair<std::vector<std::string>, bool>> steps = {
            {{"p"}, true}, {{"p", "q"}, false}, {{"q"}, false},
            {{}, false},   {{"p"}, true}};
        for (const auto& [inputs, fires] : steps) {
            for (const std::string& in : inputs) eng->setInput(in);
            eng->react();
            EXPECT_EQ(eng->outputPresent("z"), fires);
        }
    }
}

TEST(DifferentialTest, SuspendedCounting)
{
    const char* src =
        "module m (input pure hold, input pure t, output pure fire) {"
        " while (1) {"
        "  do {"
        "    await (t); await (t); await (t); emit (fire);"
        "  } suspend (hold);"
        " } }";
    for (unsigned seed = 1; seed <= 5; ++seed)
        expectEnginesAgree(src, {"hold", "t"}, {"fire"}, seed, 60);
}

TEST(DifferentialTest, ParWithLocalSignals)
{
    const char* src =
        "module m (input pure go, input pure t, output pure done) {"
        " signal pure s;"
        " while (1) {"
        "  par {"
        "    { await (go); emit (s); }"
        "    { do { while (1) { await (t); } } abort (s); emit (done); }"
        "  }"
        " } }";
    for (unsigned seed = 1; seed <= 5; ++seed)
        expectEnginesAgree(src, {"go", "t"}, {"done"}, seed, 60);
}

TEST(DifferentialTest, WeakAbortWithData)
{
    const char* src =
        "module m (input pure stop, input int v, output int acc) {"
        " int s;"
        " do {"
        "  while (1) { await (v); s = s + v; emit_v (acc, s); }"
        " } weak_abort (stop);"
        " halt (); }";
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto efsm = mod->makeEngine();
    auto rc = mod->makeBaselineEngine();
    efsm->react();
    rc->react();
    for (int t = 0; t < 30; ++t) {
        if (t % 3 == 0) {
            efsm->setInputScalar("v", t);
            rc->setInputScalar("v", t);
        }
        if (t == 20) {
            efsm->setInput("stop");
            rc->setInput("stop");
        }
        efsm->react();
        rc->react();
        ASSERT_EQ(efsm->outputPresent("acc"), rc->outputPresent("acc"));
        if (efsm->outputPresent("acc")) {
            ASSERT_EQ(efsm->outputValue("acc").toInt(),
                      rc->outputValue("acc").toInt());
        }
    }
}

TEST(KernelTrapParity, DivisionByZeroSameMessageOnSyncBatchAndExplorer)
{
    // A flat SyncEngine, a batch instance other than 0 and an explorer
    // successor all react through the one flat kernel, so a data trap
    // must surface with one message everywhere.
    Compiler compiler("module m (input int v, output int o)\n"
                      "{\n"
                      "    while (1) {\n"
                      "        await (v);\n"
                      "        emit_v (o, 100 / v);\n"
                      "    }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    const int v = mod->moduleSema().findSignal("v")->index;

    auto sync = mod->makeEngine();
    ASSERT_STREQ(sync->backendName(), "flat");
    sync->react(); // boot reaches the await
    sync->setInputScalar(v, 0);
    std::string syncMsg = "(no trap)";
    try {
        sync->react();
    } catch (const EclError& e) {
        syncMsg = e.what();
    }
    EXPECT_NE(syncMsg.find("division by zero"), std::string::npos) << syncMsg;

    auto batch = mod->makeBatchEngine(3);
    ASSERT_STREQ(batch->backendName(), "flat");
    batch->step(); // boot every instance
    batch->setInputScalar(2, v, 0);
    std::string batchMsg = "(no trap)";
    try {
        batch->step();
    } catch (const EclError& e) {
        batchMsg = e.what();
    }
    EXPECT_EQ(batchMsg, syncMsg);

    // The default {0,1} scalar domain reaches v = 0 right after boot.
    verify::ExploreResult res = mod->makeExplorer({})->run();
    ASSERT_TRUE(res.violated);
    EXPECT_TRUE(res.violation.kind == verify::Violation::Kind::RuntimeError);
    EXPECT_EQ(res.violation.what, syncMsg);
}

TEST(KernelTrapParity, OpBudgetOpensPerReaction)
{
    // The kernel opens the VM's op budget afresh for every reaction, so a
    // long-lived Vm never runs out: two reactions of about 0.6 budgets
    // each run, while one of about 1.1 budgets traps. Each loop
    // iteration costs 10 ops.
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
    const ModuleSema& sema = mod->moduleSema();
    const SignalInfo& n = *sema.findSignal("n");
    const rt::InstanceLayout layout = rt::computeInstanceLayout(sema);
    bc::Vm vm(mod->byteCodePtr(), sema, layout.varOffsets,
              layout.sigOffsets);
    constexpr std::uint64_t kBudget = 100'000;
    vm.setOpBudget(kBudget);
    std::vector<std::uint8_t> slice(layout.dataBytes, 0);
    std::vector<std::uint8_t> present(sema.signals.size(), 0);
    std::vector<std::int32_t> ring(mod->flatProgram().outputRingSlots(), 0);
    int state = mod->flatProgram().initialState;
    auto react = [&](std::int64_t iterations) {
        std::fill(present.begin(), present.end(), 0);
        present[static_cast<std::size_t>(n.index)] = 1;
        writeScalar(slice.data() +
                        layout.sigOffsets[static_cast<std::size_t>(n.index)],
                    n.valueType, iterations);
        state = rt::reactFlat(mod->flatProgram(), vm, slice.data(),
                              present.data(), ring.data(), state)
                    .state;
    };
    react(0); // boot reaches the await
    EXPECT_NO_THROW(react(kBudget * 6 / 100));
    EXPECT_NO_THROW(react(kBudget * 6 / 100));
    EXPECT_EQ(errorText([&] { react(kBudget * 11 / 100); }),
              "runtime: op budget exceeded (runaway data loop?)");
}

TEST(EngineTest, TerminatedBaselineStaysDead)
{
    Compiler compiler("module m (input pure a, output pure o) {"
                      " await (a); emit (o); }");
    auto mod = compiler.compile("m");
    auto rc = mod->makeBaselineEngine();
    rc->react();
    rc->setInput("a");
    rt::ReactionResult r = rc->react();
    EXPECT_TRUE(r.terminated);
    EXPECT_TRUE(rc->terminated());
    rc->setInput("a");
    r = rc->react();
    EXPECT_TRUE(r.terminated);
    EXPECT_FALSE(rc->outputPresent("o"));
}

} // namespace
