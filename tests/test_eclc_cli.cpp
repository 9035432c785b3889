// Integration tests for the eclc CLI, asserting the documented exit-code
// contract (src/core/eclc_main.cpp):
//   0 success / verified complete, 1 compile errors, 2 usage errors,
//   3 verification violation, 4 verification bound reached.
// The binary path comes from CMake (ECL_ECLC_PATH = $<TARGET_FILE:eclc>).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>
#include <sys/wait.h>

namespace {

std::string eclcPath() { return ECL_ECLC_PATH; }

int runEclc(const std::string& args)
{
    const std::string cmd =
        eclcPath() + " " + args + " > /dev/null 2> /dev/null";
    const int status = std::system(cmd.c_str());
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -2;
}

/// Like runEclc but also captures stdout (stderr still discarded), for
/// pinning the human-readable contract lines next to the exit codes.
int runEclcCapture(const std::string& args, std::string& out)
{
    const std::string cmd = eclcPath() + " " + args + " 2> /dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (!pipe) return -1;
    out.clear();
    char buf[256];
    while (fgets(buf, sizeof buf, pipe)) out += buf;
    const int status = pclose(pipe);
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -2;
}

std::string writeTemp(const std::string& name, const std::string& content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

const char* kSpeakerMonitor =
    "module mon (input pure speaker_on, output pure violation) {\n"
    "  while (1) { await (speaker_on); emit (violation); }\n"
    "}\n";

TEST(EclcCli, UsageErrorsExit2)
{
    EXPECT_EQ(runEclc(""), 2);
    EXPECT_EQ(runEclc("--bogus-flag whatever.ecl"), 2);
    EXPECT_EQ(runEclc("--paper nosuch"), 2);
    // --verify conflicts with --async.
    EXPECT_EQ(runEclc("--paper stack --verify --async"), 2);
    // A file AND --paper is ambiguous.
    EXPECT_EQ(runEclc("--paper stack somefile.ecl"), 2);
    // Verify-only flags without --verify would be silently ignored;
    // exit 0 must never be mistakable for "verified".
    EXPECT_EQ(runEclc("--paper buffer --depth 5"), 2);
    EXPECT_EQ(runEclc("--paper buffer --monitor nope.ecl"), 2);
    // Breadth-first is the only search order: the depth-first flag is
    // unknown, with or without --verify.
    EXPECT_EQ(runEclc("--paper buffer --dfs"), 2);
    EXPECT_EQ(runEclc("--paper buffer --verify --dfs"), 2);
    // The flat tables are the only optimized form: no flag selects a
    // decision-tree optimizer.
    EXPECT_EQ(runEclc("--paper buffer --optimize"), 2);
    // Text is the only trace format: no flag selects it.
    EXPECT_EQ(
        runEclc("--paper stack --record-trace /tmp/t.trc --trace-text"), 2);
    // --max-states must fit the explorer's 32-bit id space.
    EXPECT_EQ(runEclc("--paper buffer --verify --max-states 4294967296"),
              2);
    // A flag the selected mode would ignore exits 2 as well: artifact
    // flags outside emit mode, an -O level or --opt-stats on a replay (it
    // always replays -O2 and -O0), --opt-stats on a recording.
    const std::string trace = ::testing::TempDir() + "eclc_usage.trc";
    const std::string recorded = ::testing::TempDir() + "eclc_usage_rec.trc";
    ASSERT_EQ(runEclc("--paper stack --record-trace " + trace +
                      " --stim-instants 5"),
              0);
    for (const std::string& mode :
         {std::string("--verify --depth 3"), std::string("--aot"),
          "--record-trace " + recorded, "--replay-trace " + trace})
        for (const std::string& flag :
             {std::string("--emit c"), std::string("--emit-c"),
              "-o " + ::testing::TempDir() + "eclc_usage_out"})
            EXPECT_EQ(runEclc("--paper stack " + mode + " " + flag), 2)
                << mode << " " << flag;
    for (const char* flag : {"-O0", "-O1", "-O2", "--opt-stats"})
        EXPECT_EQ(runEclc("--paper stack --replay-trace " + trace + " " + flag),
                  2)
            << flag;
    EXPECT_EQ(runEclc("--paper stack --record-trace " + recorded +
                      " --opt-stats"),
              2);
}

// Numeric flag values parse whole and in range, or eclc exits 2: never a
// silently truncated, wrapped or zeroed number. One case per flag and
// defect, plus the accepted range ends.
struct NumericFlagCase {
    const char* name;
    const char* args; ///< after "--paper buffer --module blinker"
    int exitCode;
};

void PrintTo(const NumericFlagCase& c, std::ostream* os) { *os << c.name; }

class EclcNumericFlagTest : public ::testing::TestWithParam<NumericFlagCase> {
};

TEST_P(EclcNumericFlagTest, ExitCode)
{
    const NumericFlagCase& c = GetParam();
    EXPECT_EQ(runEclc(std::string("--paper buffer --module blinker ") +
                      c.args),
              c.exitCode)
        << c.args;
}

INSTANTIATE_TEST_SUITE_P(
    StrictParse, EclcNumericFlagTest,
    ::testing::Values(
        // Trailing junk: not a number truncated at the first non-digit.
        NumericFlagCase{"DepthTrailingJunk", "--verify --depth 5x", 2},
        NumericFlagCase{"ThreadsTrailingJunk", "--verify --threads 4x", 2},
        NumericFlagCase{"MaxStatesTrailingJunk",
                        "--verify --max-states 10abc", 2},
        NumericFlagCase{"StimInstantsTrailingJunk",
                        "--aot --stim-instants 50x", 2},
        // Not a number at all: not seed 0.
        NumericFlagCase{"StimSeedNotANumber", "--aot --stim-seed abc", 2},
        // (2^54 + 1) KiB: the suffix multiply must not wrap to a tiny
        // budget.
        NumericFlagCase{"StoreMemSuffixOverflow",
                        "--verify --store-mem 18014398509481985K", 2},
        // Past the flag's type: not wrapped modulo 2^32 (to depth 5,
        // one thread, seed 0).
        NumericFlagCase{"DepthPastIntMax", "--verify --depth 4294967301", 2},
        NumericFlagCase{"ThreadsPastIntMax",
                        "--verify --threads 4294967297", 2},
        // Past the explorer's thread cap (verify::kMaxThreads): not 257
        // workers.
        NumericFlagCase{"ThreadsPastCap", "--verify --threads 257", 2},
        NumericFlagCase{"StimSeedPastUintMax",
                        "--aot --stim-seed 4294967296", 2},
        // The range ends themselves are accepted.
        NumericFlagCase{"DepthAtIntMax", "--verify --depth 2147483647", 0},
        NumericFlagCase{"MaxStatesAtIdLimit",
                        "--verify --max-states 4294967295", 0},
        NumericFlagCase{"StoreMemGiBSuffix", "--verify --store-mem 1G", 0}));

TEST(EclcCli, CompileErrorsExit1)
{
    EXPECT_EQ(runEclc("/nonexistent/path.ecl"), 1);
    const std::string parseErr =
        writeTemp("eclc_parse_err.ecl", "module m ( {");
    EXPECT_EQ(runEclc(parseErr), 1);
    const std::string semaErr = writeTemp(
        "eclc_sema_err.ecl",
        "module m (input pure a, output pure b) {"
        " while (1) { await (a); emit (no_such_signal); } }");
    EXPECT_EQ(runEclc(semaErr), 1);
    // Compile errors rank the same under --verify.
    EXPECT_EQ(runEclc(parseErr + " --verify"), 1);
}

TEST(EclcCli, EmitSucceedsExit0)
{
    EXPECT_EQ(runEclc("--paper stack --emit stats"), 0);
    EXPECT_EQ(runEclc("--paper buffer --module blinker --emit c"), 0);
}

TEST(EclcCli, OptLevelFlags)
{
    // Every documented level compiles and emits; anything else is a
    // usage error.
    EXPECT_EQ(runEclc("--paper stack --emit stats -O0"), 0);
    EXPECT_EQ(runEclc("--paper stack --emit stats -O1"), 0);
    EXPECT_EQ(runEclc("--paper stack --emit stats -O2"), 0);
    EXPECT_EQ(runEclc("--paper stack --emit stats -O3"), 2);
    EXPECT_EQ(runEclc("--paper stack --emit stats -Ox"), 2);
    EXPECT_EQ(runEclc("--paper stack --opt-stats --emit stats"), 0);
    // Levels apply under --verify too.
    EXPECT_EQ(runEclc("--paper buffer --module blinker --verify -O0"), 0);
    EXPECT_EQ(
        runEclc("--paper buffer --module blinker --verify -O2 --opt-stats"),
        0);
}

TEST(EclcCli, OptStatsReportIsPrinted)
{
    const std::string cmd = eclcPath() +
                            " --paper stack --module toplevel --opt-stats "
                            "--emit stats 2> /dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[256];
    while (fgets(buf, sizeof buf, pipe)) out += buf;
    EXPECT_EQ(pclose(pipe), 0);
    EXPECT_NE(out.find("optimization pipeline (-O2)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("bytecode:"), std::string::npos) << out;
    EXPECT_NE(out.find("states:"), std::string::npos) << out;
}

TEST(EclcCli, VerifyCompleteExit0)
{
    EXPECT_EQ(runEclc("--paper buffer --module blinker --verify"), 0);
    EXPECT_EQ(runEclc("--paper buffer --verify --threads 2"), 0);
}

TEST(EclcCli, VerifyBoundReachedExit4)
{
    // assemble accumulates packet bytes: the state space outgrows any
    // small depth bound, so the run is inconclusive.
    EXPECT_EQ(runEclc("--paper stack --module assemble --verify --depth 3"),
              4);
    // Same for a tight state cap.
    EXPECT_EQ(
        runEclc("--paper stack --module toplevel --verify --max-states 5"),
        4);
}

TEST(EclcCli, VerifyViolationExit3)
{
    const std::string monitor =
        writeTemp("eclc_monitor.ecl", kSpeakerMonitor);
    EXPECT_EQ(runEclc("--paper buffer --verify --monitor " + monitor), 3);
    // Identically with 4 worker threads.
    EXPECT_EQ(runEclc("--paper buffer --verify --threads 4 --monitor " +
                      monitor),
              3);
}

TEST(EclcCli, MonitorFileErrorsExit1)
{
    EXPECT_EQ(runEclc("--paper buffer --verify --monitor /nonexistent.ecl"),
              1);
    // Monitor that wires nothing: attach fails.
    const std::string unwirable = writeTemp(
        "eclc_unwirable_monitor.ecl",
        "module mon (input pure nosuch, output pure violation) {"
        " while (1) { await (nosuch); emit (violation); } }");
    EXPECT_EQ(runEclc("--paper buffer --verify --monitor " + unwirable), 1);
}

TEST(EclcCli, VerifyStoreFlags)
{
    // Both store kinds explore the same (finite) module to completion;
    // only bitstate refuses to call that "verified".
    EXPECT_EQ(
        runEclc("--paper buffer --module blinker --verify --store exact"),
        0);
    // Unknown kinds and malformed budgets are usage errors.
    EXPECT_EQ(runEclc("--paper buffer --verify --store hashcompact"), 2);
    EXPECT_EQ(runEclc("--paper buffer --module blinker --verify "
                      "--store=compressed"),
              2);
    EXPECT_EQ(runEclc("--paper buffer --verify --store-mem 12Q"), 2);
    // Verify-only flags without --verify exit 2 (never silently ignored).
    EXPECT_EQ(runEclc("--paper buffer --store exact"), 2);
    EXPECT_EQ(runEclc("--paper buffer --store-mem 1M"), 2);
    EXPECT_EQ(runEclc("--paper buffer --por"), 2);
    EXPECT_EQ(runEclc("--paper buffer --native-succ"), 2);
}

TEST(EclcCli, VerifyBitstateNeverClaimsVerified)
{
    // A clean bitstate sweep exits 0 with the explicit bounded/lossy
    // disclaimer — and never exit 4: lossiness IS the bound.
    std::string out;
    EXPECT_EQ(runEclcCapture("--paper buffer --module blinker --verify "
                             "--store=bitstate",
                             out),
              0);
    EXPECT_NE(out.find("store bitstate:"), std::string::npos) << out;
    EXPECT_NE(out.find(", lossy"), std::string::npos) << out;
    EXPECT_NE(out.find("result: no violation found (bounded/lossy "
                       "bitstate search, not a proof)"),
              std::string::npos)
        << out;
}

TEST(EclcCli, VerifyBitstateViolationStillExit3)
{
    // Lossiness only ever loses states; a violation the sweep DOES reach
    // is real (replayed on SyncEngine) and must keep exit 3.
    const std::string monitor =
        writeTemp("eclc_bitstate_monitor.ecl", kSpeakerMonitor);
    std::string out;
    EXPECT_EQ(runEclcCapture(
                  "--paper buffer --verify --store=bitstate --monitor " +
                      monitor,
                  out),
              3);
    EXPECT_NE(out.find("VIOLATION"), std::string::npos) << out;
}

TEST(EclcCli, VerifyBoundReachedPrintsPartialStats)
{
    // Exit 4 must still report the partial exploration: the stats and
    // store lines print on every path.
    std::string out;
    EXPECT_EQ(runEclcCapture(
                  "--paper stack --module assemble --verify --depth 3", out),
              4);
    EXPECT_NE(out.find("verify assemble:"), std::string::npos) << out;
    EXPECT_NE(out.find("incomplete (bound reached)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("store exact:"), std::string::npos) << out;
    EXPECT_NE(out.find("phases: expand "), std::string::npos) << out;
    EXPECT_NE(out.find(" s (parallel), merge "), std::string::npos) << out;
}

TEST(EclcCli, VerifyPorAndStoreMemReportLines)
{
    std::string out;
    EXPECT_EQ(runEclcCapture("--paper buffer --module blinker --verify "
                             "--por --store-mem 16M",
                             out),
              0);
    EXPECT_NE(out.find("por: "), std::string::npos) << out;
    EXPECT_NE(out.find("expansions skipped"), std::string::npos) << out;
}

// True when some host C compiler answers --version — the same probe
// order the native backend uses ($CC, then cc).
bool hostCompilerAvailable()
{
    const char* cc = std::getenv("CC");
    const std::string probe = (cc && *cc ? std::string(cc) : "cc");
    return std::system((probe + " --version > /dev/null 2> /dev/null")
                           .c_str()) == 0;
}

TEST(EclcCli, EmitCAliasExit0)
{
    EXPECT_EQ(runEclc("--paper buffer --module blinker --emit-c"), 0);
}

TEST(EclcCli, AotDifferentialExit0)
{
    if (!hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler for the AOT backend";
    // The documented acceptance run: dlopened native reaction function
    // bit-exact against the VM of the same compile.
    EXPECT_EQ(runEclc("--paper buffer --module blinker --aot"), 0);
    // Stimulus and opt-level flags are honored in AOT mode.
    EXPECT_EQ(runEclc("--paper stack --module assemble --aot "
                      "--stim-profile payload --stim-instants 50 "
                      "--stim-seed 7 -O0"),
              0);
}

TEST(EclcCli, AotUnavailableExit1)
{
    // ECL_NATIVE_DISABLE forces the unavailable path deterministically,
    // with or without a host compiler installed.
    const std::string cmd = "ECL_NATIVE_DISABLE=1 " + eclcPath() +
                            " --paper buffer --module blinker --aot "
                            "> /dev/null 2> /dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST(EclcCli, MalformedTraceFileExits1)
{
    // A trace file comes from outside the program: every malformed one is
    // a diagnosed error (exit 1), never an abort and never a silent pass.
    const std::string src = writeTemp(
        "eclc_trace_mod.ecl",
        "module m (input int v, output int o) {\n"
        "  while (1) { await (v); emit_v (o, v + 1); }\n"
        "}\n");
    auto trace = [](const std::string& value) {
        return "eclrtrace 1\nmodule m\nsignal v in v4\nsignal o out v4\n"
               "instants 2\n@0\nend - -\n@1\nin v " +
               value + "\nout o 04000000\nend - -\n";
    };
    EXPECT_EQ(runEclc(src + " --replay-trace " +
                      writeTemp("eclc_ok.trc", trace("03000000"))),
              0);
    EXPECT_EQ(runEclc(src + " --replay-trace " +
                      writeTemp("eclc_short.trc", trace("03"))),
              1);
    EXPECT_EQ(runEclc(src + " --replay-trace " +
                      writeTemp("eclc_long.trc", trace("0300000000000000"))),
              1);
    EXPECT_EQ(runEclc(src + " --replay-trace " +
                      writeTemp("eclc_kind.trc",
                                "eclrtrace 1\nmodule m\nsignal v in vq\n")),
              1);
    EXPECT_EQ(runEclc(src + " --replay-trace " +
                      writeTemp("eclc_count.trc",
                                "eclrtrace 1\nmodule m\nsignal v in v4\n"
                                "instants 999999999999999\n")),
              1);
}

TEST(EclcCli, TrappingReplayExits1)
{
    // A replay that traps is a reported divergence, never an abort: every
    // representation's row prints the trap, and the run exits 1.
    const std::string fixtures = ECL_FIXTURE_DIR;
    std::string out;
    EXPECT_EQ(runEclcCapture(fixtures + "/trap_equal_branches.ecl "
                             "--replay-trace " +
                                 fixtures + "/trap_equal_branches.eclrtrace",
                             out),
              1);
    const std::string trap =
        "runtime trap at instant 1: 12:17: runtime: division by zero";
    std::size_t rows = 0;
    for (std::size_t pos = out.find(trap); pos != std::string::npos;
         pos = out.find(trap, pos + 1))
        ++rows;
    EXPECT_EQ(rows, 4u) << out;
}

TEST(EclcCli, AotUsageConflictsExit2)
{
    EXPECT_EQ(runEclc("--paper stack --aot --verify"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --async"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --record-trace /tmp/t.trc"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --replay-trace /tmp/t.trc"), 2);
    // Stimulus flags still require a mode that drives a stimulus.
    EXPECT_EQ(runEclc("--paper stack --stim-seed 5"), 2);
}

// README's record -> replay pair, end to end through the CLI: the
// recording is in the text format and replays bit-exactly on every
// representation.
TEST(EclcCli, RecordThenReplayExit0)
{
    const std::string trace = ::testing::TempDir() + "eclc_record.trc";
    std::remove(trace.c_str());
    ASSERT_EQ(runEclc("--paper stack --module toplevel --record-trace " +
                      trace + " --stim-profile bursty --stim-instants 200"),
              0);
    std::ifstream in(trace);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    EXPECT_EQ(first.rfind("eclrtrace 1", 0), 0u) << first;
    EXPECT_EQ(runEclc("--paper stack --replay-trace " + trace), 0);
}

TEST(EclcCli, UnwritableOutputExit1)
{
    // A write that fails is reported and fails the run.
    EXPECT_EQ(runEclc("--paper stack -o /nonexistent/dir/out"), 1);
    EXPECT_EQ(runEclc("--paper stack --async -o /nonexistent/dir/out"), 1);
}

bool readWhole(const std::string& path, std::string& out)
{
    std::ifstream in(path);
    if (!in) return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

TEST(EclcCli, AsyncOutputIsOneFilePerTask)
{
    // Each task writes PREFIX.<module>.c; none overwrites another.
    const std::string prefix = ::testing::TempDir() + "eclc_async";
    const std::vector<std::string> tasks = {"assemble", "checkcrc",
                                            "prochdr", "toplevel"};
    for (const std::string& t : tasks)
        std::remove((prefix + "." + t + ".c").c_str());
    std::remove((prefix + ".c").c_str());
    ASSERT_EQ(runEclc("--paper stack --async -o " + prefix), 0);
    for (const std::string& t : tasks) {
        std::string c;
        ASSERT_TRUE(readWhole(prefix + "." + t + ".c", c)) << t;
        std::string single;
        ASSERT_EQ(runEclcCapture("--paper stack --module " + t, single), 0);
        EXPECT_EQ(c, single) << t;
    }
    EXPECT_FALSE(std::ifstream(prefix + ".c").good());
}

TEST(EclcCli, AsyncExitIsFirstFailingTaskCode)
{
    // The pure-control task fails on the unknown kind (2); the valued one
    // fails on Verilog (1). The codes are not OR-ed into 3, which means
    // "violation found".
    const std::string src = writeTemp(
        "eclc_async_mixed.ecl",
        "module pure_ctl (input pure a, output pure b) {\n"
        "  while (1) { await (a); emit (b); }\n"
        "}\n"
        "module valued (input int v, output int o) {\n"
        "  while (1) { await (v); emit_v (o, v + 1); }\n"
        "}\n");
    EXPECT_EQ(runEclc(src + " --async --emit verilog --emit bogus"), 2);
}

// --- big modules: the data cap, paged records and out of memory ------------

/// A module of 4 MiB of instance data.
const char* kFourMiBModule =
    "module m (input int v, output int o) {\n"
    "  int a[1048576];\n"
    "  while (1) { await (v); a[v & 1023] = v; emit_v (o, a[v & 1023]); }\n"
    "}\n";

TEST(EclcCli, DataPastTheCapExit1)
{
    // Each dimension of the 2-D array is 2^32: 16 GiB a row.
    const std::string twoD = writeTemp(
        "eclc_cap_2d.ecl",
        "module m (input int v, output int o) {"
        " int a[4294967296][4294967296];"
        " while (1) { await (v); a[v & 1023][7] = v;"
        " emit_v (o, a[v & 1023][7]); } }\n");
    EXPECT_EQ(runEclc("--emit stats " + twoD), 1);
    EXPECT_EQ(runEclc(twoD + " --record-trace " + ::testing::TempDir() +
                      "eclc_cap_2d.trc"),
              1);
    EXPECT_EQ(runEclc("--emit stats " +
                      writeTemp("eclc_cap_int.ecl",
                                "module m (input pure p) {"
                                " int a0[2147483647]; }\n")),
              1);
    // Two 200 MB arrays: each fits under the cap, the instance does not.
    EXPECT_EQ(runEclc("--emit stats " +
                      writeTemp("eclc_cap_sum.ecl",
                                "module m (input pure p) {"
                                " int a[50000000]; int b[50000000]; }\n")),
              1);
    EXPECT_EQ(runEclc("--emit stats " +
                      writeTemp("eclc_cap_4mib.ecl", kFourMiBModule)),
              0);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ECL_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ECL_SANITIZED 1
#endif
#endif

/// Runs eclc with its address space capped at `kib` KiB (`ulimit -v`)
/// and its time at 60 s (a hang exits 124), stdout discarded and stderr
/// captured into `err`. The sanitizers' shadow memory does not fit under
/// such a cap, so their builds skip.
int runEclcLimited(const std::string& args, long kib, std::string& err)
{
    const std::string errPath = ::testing::TempDir() + "eclc_limited.err";
    const std::string cmd = "ulimit -v " + std::to_string(kib) +
                            " && exec timeout 60 " + eclcPath() + " " + args +
                            " > /dev/null 2> " + errPath;
    const int status = std::system(cmd.c_str());
    std::ifstream in(errPath);
    err.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -2;
}

TEST(EclcCli, BigModuleReplaysUnderAnAddressSpaceCap)
{
#ifdef ECL_SANITIZED
    GTEST_SKIP() << "address-space caps do not apply under sanitizers";
#endif
    const std::string src = writeTemp("eclc_big_4mib.ecl", kFourMiBModule);
    const std::string trace = ::testing::TempDir() + "eclc_big_4mib.trc";
    ASSERT_EQ(runEclc(src + " --record-trace " + trace +
                      " --stim-instants 20"),
              0);
    // Every replay row holds a 4 MiB instance; the batch row's must not
    // reserve a page of 1024 of them.
    std::string err;
    EXPECT_EQ(runEclcLimited(src + " --replay-trace " + trace, 3'000'000,
                             err),
              0)
        << err;
}

TEST(EclcCli, OutOfMemoryExit1)
{
#ifdef ECL_SANITIZED
    GTEST_SKIP() << "address-space caps do not apply under sanitizers";
#endif
    // 200 MB of instance data: under the cap, over a 150 MB address space.
    const std::string src = writeTemp(
        "eclc_big_200mb.ecl",
        "module m (input int v, output int o) {\n"
        "  int a[50000000];\n"
        "  while (1) { await (v); a[v & 1023] = v; emit_v (o, a[v & 1023]); }\n"
        "}\n");
    std::string err;
    EXPECT_EQ(runEclcLimited(src + " --record-trace " + ::testing::TempDir() +
                                 "eclc_big_200mb.trc --stim-instants 5",
                             150'000, err),
              1);
    EXPECT_NE(err.find("eclc: out of memory"), std::string::npos) << err;
}

TEST(EclcCli, BitstateTableNoMachineBacksIsOutOfMemory)
{
#ifdef ECL_SANITIZED
    GTEST_SKIP() << "address-space caps do not apply under sanitizers";
#endif
    // 2^60 and 2^61 bytes: the table is the largest power of two within
    // the budget, which no machine backs, so the run fails like any
    // other allocation. Its bit count must not wrap, to a doubling loop
    // that never ends or to an 8-byte table.
    for (const std::string budget : {"1073741824G", "2147483648G"}) {
        std::string err;
        EXPECT_EQ(runEclcLimited("--paper buffer --module blinker --verify "
                                 "--store=bitstate --store-mem " +
                                     budget,
                                 1'000'000, err),
                  1)
            << budget << ": " << err;
        EXPECT_NE(err.find("eclc: out of memory"), std::string::npos)
            << budget << ": " << err;
    }
}

} // namespace
