// Allocation-free stepping: once its buffers have grown, a BatchEngine's
// step() must not touch the heap — on the bytecode VM and the native
// backend, on one worker and on four — and neither must a ShardedFleet
// round of submits, step and event collection. And an instance costs the
// heap and the address space what bytesPerInstance() says, give or take
// the scheduling rows' growth. This binary replaces the global operator
// new with a counting one, so it is its own executable and the counter
// affects no other suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/serve/fleet.h"
#include "tests/ecl_test_util.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gBytes{0};

void* countedAlloc(std::size_t n, std::size_t align)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gAllocs.fetch_add(1, std::memory_order_relaxed);
        gBytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (n == 0) n = 1;
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p) throw std::bad_alloc();
    return p;
}

} // namespace

void* operator new(std::size_t n) { return countedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ecl {
namespace {

/// Counts the allocations made (on any thread), and the bytes they
/// request, while it is alive.
class AllocCount {
public:
    AllocCount()
    {
        gAllocs.store(0);
        gBytes.store(0);
        gCounting.store(true);
    }
    ~AllocCount() { gCounting.store(false); }
    std::uint64_t stop()
    {
        gCounting.store(false);
        return gAllocs.load();
    }
};

/// The process's address space in bytes: the size field of
/// /proc/self/statm, which is VmSize in pages.
std::uint64_t addressSpaceBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0;
    statm >> pages;
    return pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// One byte-stream workload: every instance is fed the same values, one
/// per step, through the module's single valued input.
struct Workload {
    const char* what;
    std::shared_ptr<CompiledModule> mod;
    const char* input;
    const char* output;
    std::vector<std::int64_t> stream;
};

Workload stackWorkload()
{
    Compiler compiler(paper::protocolStackSource());
    Workload w{"stack toplevel", compiler.compile("toplevel"), "in_byte",
               "addr_match", {}};
    // Good, corrupted and foreign packets, so every branch of the stack
    // reacts (addr_match fires for the good one).
    for (auto pkt : {test::makePacket(paper::kAddrByte, 1),
                     test::makePacket(paper::kAddrByte, 2, true),
                     test::makePacket(0x21, 3)})
        for (std::uint8_t b : pkt) w.stream.push_back(b);
    return w;
}

Workload emitWorkload()
{
    Compiler compiler(R"(
module echo (input int x, output int y)
{
    while (1) {
        await (x);
        emit_v (y, x * 3 + 1);
    }
}
)");
    Workload w{"one emit_v per reaction", compiler.compile("echo"), "x", "y",
               {}};
    for (int i = 0; i < 500; ++i) w.stream.push_back(i * 7 - 900);
    return w;
}

struct PassCounts {
    std::string backend;
    std::uint64_t allocs[2] = {0, 0};
    std::uint64_t events[2] = {0, 0};
};

/// Boots `instances` instances, then runs the stream twice (each pass
/// drains the auto-resume tail), counting allocations per pass.
PassCounts runTwice(const Workload& w, EngineKind kind, int threads,
                    std::size_t instances)
{
    auto batch = w.mod->makeBatchEngine(instances, {.threads = threads},
                                        kind);
    const ModuleSema& sema = batch->moduleSema();
    const int in = sema.findSignal(w.input)->index;
    const int out = sema.findSignal(w.output)->index;
    PassCounts pc;
    pc.backend = batch->backendName();
    batch->step(); // boot
    for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t events = 0;
        AllocCount count;
        for (std::int64_t v : w.stream) {
            for (std::size_t i = 0; i < instances; ++i)
                batch->setInputScalar(i, in, v);
            batch->step();
            for (const rt::BatchEngine::StepEvent& ev :
                 batch->lastStepEvents())
                if (ev.signal == out) ++events;
        }
        while (batch->hasPendingWork()) {
            batch->step();
            for (const rt::BatchEngine::StepEvent& ev :
                 batch->lastStepEvents())
                if (ev.signal == out) ++events;
        }
        pc.allocs[pass] = count.stop();
        pc.events[pass] = events;
    }
    return pc;
}

void expectAllocationFree(const Workload& w, EngineKind kind,
                          const char* backend)
{
    // 512 instances keep all four workers busy (a step splits its work
    // list only in shares of at least 128 reactions).
    for (int threads : {1, 4}) {
        PassCounts pc = runTwice(w, kind, threads, 512);
        if (pc.backend != backend)
            GTEST_SKIP() << "backend '" << backend << "' unavailable";
        EXPECT_GT(pc.events[1], 0u) << w.what;
        EXPECT_EQ(pc.events[0], pc.events[1]) << w.what;
        EXPECT_EQ(pc.allocs[1], 0u)
            << w.what << " on " << backend << ", " << threads
            << " thread(s): second pass allocated (first pass: "
            << pc.allocs[0] << ")";
    }
}

TEST(AllocFree, VmBatchStackStream)
{
    expectAllocationFree(stackWorkload(), EngineKind::Flat, "flat");
}

TEST(AllocFree, VmBatchValuedEmission)
{
    expectAllocationFree(emitWorkload(), EngineKind::Flat, "flat");
}

TEST(AllocFree, NativeBatchStackStream)
{
    expectAllocationFree(stackWorkload(), EngineKind::Native, "native");
}

TEST(AllocFree, NativeBatchValuedEmission)
{
    expectAllocationFree(emitWorkload(), EngineKind::Native, "native");
}

/// Runs the stream through `ids` once as fleet rounds — submits, step(),
/// collectLastRoundEvents() into `events` — then drains the delta tail;
/// returns the output events of `out`.
std::uint64_t fleetPass(serve::ShardedFleet& fleet, const Workload& w,
                        const std::vector<serve::SessionId>& ids, int in,
                        int out, std::vector<serve::SessionEvent>& events)
{
    std::uint64_t count = 0;
    auto round = [&] {
        fleet.step();
        events.clear();
        fleet.collectLastRoundEvents(events);
        for (const serve::SessionEvent& ev : events)
            if (ev.signal == out) ++count;
    };
    for (std::int64_t v : w.stream) {
        for (serve::SessionId id : ids)
            EXPECT_EQ(fleet.submitScalar(id, in, v), serve::SubmitStatus::Ok);
        round();
    }
    while (fleet.hasPendingTraffic()) round();
    return count;
}

// The fleet's ingress contract (fleet.h): after warm-up a round — submit
// on the ring, the shard's drain and step, and collecting its events into
// a reserved vector — touches no heap, on both backends and with the
// shards on one worker or two.
void expectFleetRoundsAllocationFree(EngineKind kind, const char* backend)
{
    const Workload w = stackWorkload();
    const ModuleSema& sema = w.mod->moduleSema();
    const int in = sema.findSignal(w.input)->index;
    const int out = sema.findSignal(w.output)->index;
    for (int threads : {1, 2}) {
        serve::FleetOptions opts;
        opts.shards = 2;
        opts.threads = threads;
        opts.kind = kind;
        opts.queueCapacity = 1024;
        serve::ShardedFleet fleet(w.mod, opts);
        if (std::string(fleet.shardEngine(0).backendName()) != backend)
            GTEST_SKIP() << "backend '" << backend << "' unavailable";
        std::vector<serve::SessionId> ids;
        for (int i = 0; i < 512; ++i) ids.push_back(fleet.admit().session);
        std::vector<serve::SessionEvent> events;
        events.reserve(4 * ids.size());
        fleet.step(); // boot
        const std::uint64_t warm = fleetPass(fleet, w, ids, in, out, events);
        AllocCount count;
        const std::uint64_t timed = fleetPass(fleet, w, ids, in, out, events);
        const std::uint64_t allocs = count.stop();
        EXPECT_GT(timed, 0u);
        EXPECT_EQ(warm, timed);
        EXPECT_EQ(allocs, 0u)
            << backend << " fleet, " << threads
            << " thread(s): a warm pass of rounds allocated";
    }
}

TEST(AllocFree, VmFleetRounds)
{
    expectFleetRoundsAllocationFree(EngineKind::Flat, "flat");
}

TEST(AllocFree, NativeFleetRounds)
{
    expectFleetRoundsAllocationFree(EngineKind::Native, "native");
}

TEST(AllocBytes, AddingInstancesRequestsTheirBytes)
{
    // Growing one engine to 100k instances requests at most a quarter
    // more than bytesPerInstance() says they hold: records come in mapped
    // arena segments, which are never copied and use no heap, and only
    // the scheduling rows (6 bytes and a dirty bit an instance) still
    // grow by doubling.
    constexpr std::size_t kInstances = 100'000;
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    for (EngineKind kind : {EngineKind::Flat, EngineKind::Native}) {
        auto batch = mod->makeBatchEngine(0, {}, kind);
        AllocCount count;
        for (std::size_t i = 0; i < kInstances; ++i) batch->addInstance();
        (void)count.stop();
        const double perInstance =
            static_cast<double>(gBytes.load()) / kInstances;
        EXPECT_LE(perInstance, 1.25 * batch->bytesPerInstance())
            << batch->backendName() << ": " << perInstance
            << " bytes requested per instance, bytesPerInstance() "
            << batch->bytesPerInstance();
    }
}

TEST(AllocBytes, BigRecordsArePagedOneAtATime)
{
    // Records live in mapped arena segments of 1 MiB, and a bigger record
    // gets a segment of its own: three 4 MiB instances map their own
    // bytes, where a segment of 1024 such records would reserve 4 GiB.
    // The heap holds only the scheduling rows and the segment table.
    Compiler compiler("module m (input int v, output int o) {\n"
                      "  int a[1048576];\n"
                      "  while (1) { await (v); emit_v (o, a[v & 1023]); }\n"
                      "}\n");
    auto mod = compiler.compile("m");
    auto batch = mod->makeBatchEngine(0);
    const std::uint64_t before = addressSpaceBytes();
    AllocCount count;
    for (int i = 0; i < 3; ++i) batch->addInstance();
    (void)count.stop();
    const std::uint64_t grown = addressSpaceBytes() - before;
    EXPECT_LE(grown, 3 * batch->bytesPerInstance() + (1u << 20))
        << "bytesPerInstance() " << batch->bytesPerInstance();
    EXPECT_LE(gBytes.load(), 4096u);
}

} // namespace
} // namespace ecl
