// Serving-layer suite for src/serve (ShardedFleet).
//
// The core of the suite is differential: a fleet of sharded batch
// engines must be OBSERVATIONALLY IDENTICAL to the engines it is built
// from. One big BatchEngine and N independent single engines drive the
// same phase-shifted packet workload, and the fleet must reproduce the
// merged output-event stream, per-session emission counts and the final
// packed state of every session bit-for-bit — including when sessions
// are checkpointed, restored or live-migrated between shards
// mid-packet (the state-mobility contract: a moved session's subsequent
// outputs are bit-exact against an unmigrated control).
//
// The rest pins the serving contracts: typed admission control
// (FleetFull, Paused hysteresis against the queued-event high-water
// mark), typed submit rejection (UnknownSession, QueueFull, BadSignal,
// NotScalar), checkpoint envelope rejection (BadFormat, fingerprint
// mismatch across compiles, BadState rollback), queued-event forwarding
// after migration, rebalancing, a data trap surfacing from exactly one
// round, and two multi-producer ingress tests — four threads pushing onto
// one IngressRing while its single consumer pops, and several threads
// hammering submitScalar() concurrently with step() — the lock-free
// ring + session-table path this suite exists to put under TSan (the
// TSan CI job runs this binary in full).
//
// ServeReplay checks the committed fixture
// tests/fixtures/fleet_session.eclrtrace (recorded by
// example_fleet --record-session): it must replay bit-exactly on a
// fresh engine AND a fleet session fed the same bytes must end in the
// identical packed state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/runtime/trace.h"
#include "src/serve/fleet.h"

namespace {

using namespace ecl;

std::shared_ptr<CompiledModule> compileStack()
{
    Compiler compiler(paper::protocolStackSource());
    return compiler.compile("toplevel");
}

int sigIndex(const CompiledModule& mod, const char* name)
{
    const SignalInfo* s = mod.moduleSema().findSignal(name);
    EXPECT_NE(s, nullptr) << name;
    return s ? s->index : -1;
}

/// A packet the stack accepts end to end: matching address header,
/// recognizable payload prefix, zeroed CRC tail. Streaming all 64 bytes
/// into a session yields exactly one addr_match emission.
std::vector<std::uint8_t> goodPacket()
{
    std::vector<std::uint8_t> pkt(static_cast<std::size_t>(paper::kPktSize),
                                  0);
    for (int i = 0; i < paper::kHdrSize; ++i)
        pkt[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(paper::kAddrByte);
    for (int i = 0; i < 16; ++i)
        pkt[static_cast<std::size_t>(paper::kHdrSize + i)] =
            static_cast<std::uint8_t>(0x40 + i);
    return pkt;
}

/// (session-index, signal) pairs of one round, order-normalized so the
/// fleet's shard-major merge order can be compared against the batch
/// engine's ascending-instance order.
using EventSet = std::vector<std::pair<std::size_t, int>>;

EventSet normalize(EventSet ev)
{
    std::sort(ev.begin(), ev.end());
    return ev;
}

} // namespace

// ---------------------------------------------------------------------------
// Differential: fleet vs one big BatchEngine vs N single engines.
// ---------------------------------------------------------------------------

TEST(ServeDifferential, FleetMatchesBigBatchAndSingleEngines)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    const int match = sigIndex(*mod, "addr_match");
    const std::vector<std::uint8_t> pkt = goodPacket();

    constexpr std::size_t kSessions = 24;
    constexpr int kPhases = 5;
    const int instants = paper::kPktSize + kPhases + 8; // + delta drain

    serve::FleetOptions opts;
    opts.shards = 3;
    opts.threads = 2;
    serve::ShardedFleet fleet(mod, opts);
    std::vector<serve::SessionId> ids;
    std::unordered_map<serve::SessionId, std::size_t> indexOf;
    for (std::size_t i = 0; i < kSessions; ++i) {
        const serve::AdmitResult r = fleet.admit();
        ASSERT_EQ(r.status, serve::AdmitStatus::Ok);
        ids.push_back(r.session);
        indexOf[r.session] = i;
    }

    auto batch = mod->makeBatchEngine(kSessions, rt::BatchOptions{1});
    std::vector<std::unique_ptr<rt::ReactiveEngine>> singles;
    for (std::size_t i = 0; i < kSessions; ++i)
        singles.push_back(mod->makeEngine());

    // Boot every session/instance.
    batch->step();
    fleet.step();
    for (auto& e : singles) e->react();

    std::vector<std::uint64_t> fleetMatches(kSessions, 0);
    std::vector<std::uint64_t> batchMatches(kSessions, 0);
    std::vector<std::uint64_t> singleMatches(kSessions, 0);
    std::vector<serve::SessionEvent> fev;
    for (int t = 0; t < instants; ++t) {
        for (std::size_t i = 0; i < kSessions; ++i) {
            const int pos = t - static_cast<int>(i % kPhases);
            const bool hasByte = pos >= 0 && pos < paper::kPktSize;
            if (hasByte) {
                const auto b = static_cast<std::int64_t>(
                    pkt[static_cast<std::size_t>(pos)]);
                batch->setInputScalar(i, inByte, b);
                ASSERT_EQ(fleet.submitScalar(ids[i], inByte, b),
                          serve::SubmitStatus::Ok);
                singles[i]->setInputScalar(inByte, b);
                singles[i]->react();
            } else if (singles[i]->needsAutoResume()) {
                // Mirror the batch scheduler: instances react only when
                // dirty (staged input or pending auto-resume).
                singles[i]->react();
            } else {
                continue;
            }
            if (singles[i]->outputPresent(match)) ++singleMatches[i];
        }
        batch->step();
        fleet.step();

        EventSet be;
        for (const rt::BatchEngine::StepEvent& ev : batch->lastStepEvents()) {
            be.emplace_back(ev.instance, ev.signal);
            if (ev.signal == match) ++batchMatches[ev.instance];
        }
        EventSet fe;
        fev.clear();
        fleet.collectLastRoundEvents(fev);
        for (const serve::SessionEvent& ev : fev) {
            const std::size_t i = indexOf.at(ev.session);
            fe.emplace_back(i, ev.signal);
            if (ev.signal == match) ++fleetMatches[i];
        }
        ASSERT_EQ(normalize(std::move(fe)), normalize(std::move(be)))
            << "instant " << t;
    }
    ASSERT_FALSE(fleet.hasPendingTraffic());

    for (std::size_t i = 0; i < kSessions; ++i) {
        EXPECT_EQ(fleetMatches[i], 1u) << "session " << i;
        EXPECT_EQ(fleetMatches[i], batchMatches[i]) << "session " << i;
        EXPECT_EQ(fleetMatches[i], singleMatches[i]) << "session " << i;
        // Bit-exact packed state across all three execution shapes.
        const std::vector<std::uint8_t> fs = fleet.packSessionState(ids[i]);
        EXPECT_EQ(fs, batch->packInstanceState(i)) << "session " << i;
        EXPECT_EQ(fs, singles[i]->packState()) << "session " << i;
    }

    const serve::FleetStats st = fleet.stats();
    EXPECT_EQ(st.liveSessions, kSessions);
    EXPECT_EQ(st.admitted, kSessions);
    EXPECT_EQ(st.total(&serve::ShardStats::eventsApplied),
              static_cast<std::uint64_t>(kSessions) *
                  static_cast<std::uint64_t>(paper::kPktSize));
    EXPECT_EQ(st.pendingEvents, 0u);
}

TEST(ServeDifferential, NativeFleetMatchesVmFleet)
{
    auto mod = compileStack();
    serve::FleetOptions nopts;
    nopts.shards = 2;
    nopts.kind = EngineKind::Native;
    serve::ShardedFleet native(mod, nopts);
    if (std::string(native.shardEngine(0).backendName()) != "native")
        GTEST_SKIP() << "AOT native backend unavailable (VM fallback)";

    serve::FleetOptions vopts;
    vopts.shards = 2;
    serve::ShardedFleet vm(mod, vopts);
    const int inByte = sigIndex(*mod, "in_byte");
    const std::vector<std::uint8_t> pkt = goodPacket();

    std::vector<serve::SessionId> nid, vid;
    for (int i = 0; i < 6; ++i) {
        nid.push_back(native.admit().session);
        vid.push_back(vm.admit().session);
    }
    native.step();
    vm.step();
    for (int t = 0; t < paper::kPktSize; ++t) {
        for (int i = 0; i < 6; ++i) {
            const auto b = static_cast<std::int64_t>(
                pkt[static_cast<std::size_t>(t)]);
            ASSERT_EQ(native.submitScalar(nid[static_cast<std::size_t>(i)],
                                          inByte, b),
                      serve::SubmitStatus::Ok);
            ASSERT_EQ(vm.submitScalar(vid[static_cast<std::size_t>(i)],
                                      inByte, b),
                      serve::SubmitStatus::Ok);
        }
        native.step();
        vm.step();
    }
    native.drainAll();
    vm.drainAll();
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(native.packSessionState(nid[i]),
                  vm.packSessionState(vid[i]))
            << "session " << i;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore.
// ---------------------------------------------------------------------------

TEST(ServeCheckpoint, RoundTripContinuesBitExact)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    const int match = sigIndex(*mod, "addr_match");
    const std::vector<std::uint8_t> pkt = goodPacket();

    serve::FleetOptions opts;
    opts.shards = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId control = fleet.admit().session;
    const serve::SessionId subject = fleet.admit().session;
    fleet.step();

    // Feed both sessions half the packet, then snapshot the subject.
    constexpr int kSplit = paper::kPktSize / 2;
    for (int t = 0; t < kSplit; ++t) {
        const auto b =
            static_cast<std::int64_t>(pkt[static_cast<std::size_t>(t)]);
        fleet.submitScalar(control, inByte, b);
        fleet.submitScalar(subject, inByte, b);
        fleet.step();
    }
    const std::vector<std::uint8_t> ckpt = fleet.checkpointSession(subject);
    EXPECT_GT(ckpt.size(), 25u); // envelope + control word at minimum

    const serve::RestoreResult rr = fleet.restoreSession(ckpt);
    ASSERT_EQ(rr.status, serve::RestoreStatus::Ok);
    EXPECT_NE(rr.session, subject); // restored under a fresh id
    EXPECT_TRUE(fleet.isLive(rr.session));
    EXPECT_EQ(fleet.packSessionState(rr.session),
              fleet.packSessionState(subject));

    // Both the original and the restored copy finish the packet and
    // stay bit-exact against the untouched control at every instant.
    bool controlMatched = false, subjectMatched = false, restoredMatched = false;
    std::vector<serve::SessionEvent> ev;
    for (int t = kSplit; t < paper::kPktSize + 8; ++t) {
        if (t < paper::kPktSize) {
            const auto b =
                static_cast<std::int64_t>(pkt[static_cast<std::size_t>(t)]);
            fleet.submitScalar(control, inByte, b);
            fleet.submitScalar(subject, inByte, b);
            fleet.submitScalar(rr.session, inByte, b);
        }
        fleet.step();
        ev.clear();
        fleet.collectLastRoundEvents(ev);
        for (const serve::SessionEvent& e : ev) {
            if (e.signal != match) continue;
            if (e.session == control) controlMatched = true;
            if (e.session == subject) subjectMatched = true;
            if (e.session == rr.session) restoredMatched = true;
        }
    }
    EXPECT_TRUE(controlMatched);
    EXPECT_TRUE(subjectMatched);
    EXPECT_TRUE(restoredMatched);
    EXPECT_EQ(fleet.packSessionState(subject),
              fleet.packSessionState(control));
    EXPECT_EQ(fleet.packSessionState(rr.session),
              fleet.packSessionState(control));

    const serve::FleetStats st = fleet.stats();
    EXPECT_EQ(st.checkpoints, 1u);
    EXPECT_EQ(st.restores, 1u);
    EXPECT_THROW((void)fleet.checkpointSession(0xdead), EclError);
}

TEST(ServeCheckpoint, FingerprintMismatchRejected)
{
    auto stackMod = compileStack();
    Compiler bufCompiler(paper::audioBufferSource());
    auto bufMod = bufCompiler.compile("buffer_top");

    serve::ShardedFleet stackFleet(stackMod);
    serve::ShardedFleet bufFleet(bufMod);
    EXPECT_NE(stackFleet.fingerprint(), bufFleet.fingerprint());

    const serve::SessionId id = stackFleet.admit().session;
    stackFleet.step();
    const std::vector<std::uint8_t> ckpt = stackFleet.checkpointSession(id);

    const serve::RestoreResult rr = bufFleet.restoreSession(ckpt);
    EXPECT_EQ(rr.status, serve::RestoreStatus::FingerprintMismatch);
    EXPECT_EQ(bufFleet.stats().liveSessions, 0u);

    // Same compile in a different fleet instance: accepted.
    serve::ShardedFleet stackFleet2(stackMod);
    EXPECT_EQ(stackFleet2.restoreSession(ckpt).status,
              serve::RestoreStatus::Ok);
}

TEST(ServeCheckpoint, MalformedCheckpointsRejectedTyped)
{
    auto mod = compileStack();
    serve::ShardedFleet fleet(mod);
    const serve::SessionId id = fleet.admit().session;
    fleet.step();
    const std::vector<std::uint8_t> good = fleet.checkpointSession(id);

    // Not a checkpoint at all.
    const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(fleet.restoreSession(garbage).status,
              serve::RestoreStatus::BadFormat);
    // Truncated and padded envelopes.
    EXPECT_EQ(fleet.restoreSession(good.data(), good.size() - 3).status,
              serve::RestoreStatus::BadFormat);
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_EQ(fleet.restoreSession(padded).status,
              serve::RestoreStatus::BadFormat);
    // Valid envelope, packed state inconsistent with this compile: the
    // slot allocated for the restore must be rolled back.
    std::vector<std::uint8_t> shortState = good;
    // State length field sits after magic(8)+version(4)+fingerprint(8)+
    // id(8)+flags(1); shrink the record to control word only.
    const std::size_t lenOff = 8 + 4 + 8 + 8 + 1;
    shortState.resize(lenOff);
    for (int i = 0; i < 4; ++i)
        shortState.push_back(i == 0 ? 4 : 0); // u32 length = 4
    for (int i = 0; i < 4; ++i) shortState.push_back(0); // control word
    EXPECT_EQ(fleet.restoreSession(shortState).status,
              serve::RestoreStatus::BadState);
    EXPECT_EQ(fleet.stats().liveSessions, 1u);
    // Fleet still serves after the rollback.
    EXPECT_EQ(fleet.admit().status, serve::AdmitStatus::Ok);
    EXPECT_EQ(fleet.restoreSession(good).status, serve::RestoreStatus::Ok);
}

// ---------------------------------------------------------------------------
// Live migration.
// ---------------------------------------------------------------------------

/// The acceptance pin: a session checkpoint-migrated between shards
/// mid-packet keeps producing outputs bit-exact against an unmigrated
/// control session fed the identical byte stream.
TEST(ServeMigration, MidStreamOutputsBitExactVsControl)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    const int match = sigIndex(*mod, "addr_match");
    const std::vector<std::uint8_t> pkt = goodPacket();

    serve::FleetOptions opts;
    opts.shards = 4;
    opts.threads = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId control = fleet.admitOn(0).session;
    const serve::SessionId subject = fleet.admitOn(0).session;
    fleet.step();

    int controlInstant = -1, subjectInstant = -1;
    std::vector<serve::SessionEvent> ev;
    for (int t = 0; t < paper::kPktSize + 8; ++t) {
        if (t % 16 == 8) {
            // Quiesced live migration (no bytes submitted yet this
            // instant) — hop the subject across every shard over the
            // course of one packet.
            const auto [sh, slot] = fleet.locate(subject);
            const auto target =
                static_cast<std::uint32_t>((sh + 1) % fleet.shardCount());
            ASSERT_EQ(fleet.migrate(subject, target),
                      serve::MigrateStatus::Ok);
            ASSERT_EQ(fleet.locate(subject).first, target);
            // The move preserved the packed assembly state bit-exactly.
            ASSERT_EQ(fleet.packSessionState(subject),
                      fleet.packSessionState(control));
        }
        if (t < paper::kPktSize) {
            const auto b =
                static_cast<std::int64_t>(pkt[static_cast<std::size_t>(t)]);
            ASSERT_EQ(fleet.submitScalar(control, inByte, b),
                      serve::SubmitStatus::Ok);
            ASSERT_EQ(fleet.submitScalar(subject, inByte, b),
                      serve::SubmitStatus::Ok);
        }
        fleet.step();
        ev.clear();
        fleet.collectLastRoundEvents(ev);
        for (const serve::SessionEvent& e : ev) {
            if (e.signal != match) continue;
            if (e.session == control) controlInstant = t;
            if (e.session == subject) subjectInstant = t;
        }
    }
    EXPECT_GE(controlInstant, 0) << "control session never matched";
    EXPECT_EQ(subjectInstant, controlInstant)
        << "migrated session matched at a different instant";
    EXPECT_EQ(fleet.packSessionState(subject),
              fleet.packSessionState(control));

    const serve::FleetStats st = fleet.stats();
    EXPECT_EQ(st.migrations, 4u);
    EXPECT_EQ(st.total(&serve::ShardStats::migratedIn), 4u);
    EXPECT_EQ(st.total(&serve::ShardStats::migratedOut), 4u);
}

TEST(ServeMigration, QueuedEventsForwardedToNewShard)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    serve::FleetOptions opts;
    opts.shards = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId id = fleet.admitOn(0).session;
    fleet.step();

    // Queue a byte on shard 0's ring, THEN migrate: the old shard's
    // worker re-resolves the event at dequeue and forwards it to the
    // new shard, where it is applied.
    ASSERT_EQ(fleet.submitScalar(id, inByte, paper::kAddrByte),
              serve::SubmitStatus::Ok);
    ASSERT_EQ(fleet.migrate(id, 1), serve::MigrateStatus::Ok);
    fleet.drainAll();

    const serve::FleetStats st = fleet.stats();
    EXPECT_EQ(st.shards[0].eventsForwarded, 1u);
    EXPECT_EQ(st.shards[1].eventsApplied, 1u);
    EXPECT_EQ(st.total(&serve::ShardStats::eventsDropped), 0u);

    // The forwarded byte reached the session: its state differs from a
    // fresh session that received nothing.
    const serve::SessionId fresh = fleet.admitOn(1).session;
    fleet.step();
    EXPECT_NE(fleet.packSessionState(id), fleet.packSessionState(fresh));
}

TEST(ServeMigration, StatusContracts)
{
    auto mod = compileStack();
    serve::FleetOptions opts;
    opts.shards = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId id = fleet.admitOn(0).session;
    fleet.step();

    EXPECT_EQ(fleet.migrate(0xbeef, 1), serve::MigrateStatus::UnknownSession);
    EXPECT_EQ(fleet.migrate(id, 0), serve::MigrateStatus::SameShard);
    EXPECT_EQ(fleet.migrate(id, 7), serve::MigrateStatus::BadShard);
    EXPECT_EQ(fleet.migrate(id, 1), serve::MigrateStatus::Ok);
    EXPECT_EQ(fleet.locate(id).first, 1u);
    EXPECT_EQ(fleet.stats().migrations, 1u);

    // Ended sessions drop their queued events at dequeue.
    const int inByte = sigIndex(*mod, "in_byte");
    ASSERT_EQ(fleet.submitScalar(id, inByte, 1), serve::SubmitStatus::Ok);
    EXPECT_TRUE(fleet.endSession(id));
    EXPECT_FALSE(fleet.endSession(id));
    fleet.drainAll();
    EXPECT_EQ(fleet.stats().total(&serve::ShardStats::eventsDropped), 1u);
}

TEST(ServeMigration, RebalanceEvensOutLiveSessions)
{
    auto mod = compileStack();
    serve::FleetOptions opts;
    opts.shards = 3;
    serve::ShardedFleet fleet(mod, opts);
    std::vector<serve::SessionId> ids;
    for (int i = 0; i < 12; ++i)
        ids.push_back(fleet.admitOn(0).session); // all piled on shard 0
    fleet.step();

    const std::size_t moved = fleet.rebalance(100);
    EXPECT_EQ(moved, 8u); // 12/0/0 -> 4/4/4
    const serve::FleetStats st = fleet.stats();
    std::uint64_t mn = ~0ull, mx = 0;
    for (const serve::ShardStats& s : st.shards) {
        mn = std::min(mn, s.liveSessions);
        mx = std::max(mx, s.liveSessions);
    }
    EXPECT_LE(mx - mn, 1u);
    for (serve::SessionId id : ids) EXPECT_TRUE(fleet.isLive(id));
}

// ---------------------------------------------------------------------------
// Admission control and typed backpressure.
// ---------------------------------------------------------------------------

TEST(ServeAdmission, FleetFullUntilSessionsEnd)
{
    auto mod = compileStack();
    serve::FleetOptions opts;
    opts.shards = 2;
    opts.maxSessions = 4;
    serve::ShardedFleet fleet(mod, opts);
    std::vector<serve::SessionId> ids;
    for (int i = 0; i < 4; ++i) {
        const serve::AdmitResult r = fleet.admit();
        ASSERT_EQ(r.status, serve::AdmitStatus::Ok);
        ids.push_back(r.session);
    }
    EXPECT_EQ(fleet.admit().status, serve::AdmitStatus::FleetFull);
    EXPECT_EQ(fleet.stats().rejectedFull, 1u);

    EXPECT_TRUE(fleet.endSession(ids[0]));
    const serve::AdmitResult r = fleet.admit();
    EXPECT_EQ(r.status, serve::AdmitStatus::Ok);
    // The ended session's slot was parked and is reused, not grown past.
    EXPECT_EQ(fleet.stats().liveSessions, 4u);
}

TEST(ServeAdmission, PausedHysteresisOnQueuedBacklog)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    serve::FleetOptions opts;
    opts.queueCapacity = 8; // admission marks: high 4, low 2
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId id = fleet.admit().session;
    fleet.step();

    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(fleet.submitScalar(id, inByte, i),
                  serve::SubmitStatus::Ok);
    // Backlog at the high-water mark: admission pauses.
    EXPECT_EQ(fleet.admit().status, serve::AdmitStatus::Paused);
    EXPECT_TRUE(fleet.admissionPaused());
    EXPECT_EQ(fleet.stats().rejectedPaused, 1u);

    // Draining below high water is NOT enough — hysteresis holds the
    // pause until the backlog falls under the LOW-water mark.
    fleet.step(); // applies all 4 (one survives per-instant merge rules)
    ASSERT_EQ(fleet.submitScalar(id, inByte, 0), serve::SubmitStatus::Ok);
    ASSERT_EQ(fleet.submitScalar(id, inByte, 1), serve::SubmitStatus::Ok);
    ASSERT_EQ(fleet.submitScalar(id, inByte, 2), serve::SubmitStatus::Ok);
    EXPECT_EQ(fleet.admit().status, serve::AdmitStatus::Paused);
    fleet.drainAll();
    EXPECT_EQ(fleet.admit().status, serve::AdmitStatus::Ok);
    EXPECT_FALSE(fleet.admissionPaused());
}

TEST(ServeBackpressure, QueueFullIsTypedAndCounted)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    serve::FleetOptions opts;
    opts.queueCapacity = 4; // tiny ring (power of two)
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId id = fleet.admit().session;
    fleet.step();

    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(fleet.submitScalar(id, inByte, i),
                  serve::SubmitStatus::Ok);
    EXPECT_EQ(fleet.submitScalar(id, inByte, 99),
              serve::SubmitStatus::QueueFull);
    EXPECT_EQ(fleet.stats().shards[0].rejectedQueueFull, 1u);

    // The documented backpressure response: advance the fleet, retry.
    fleet.step();
    EXPECT_EQ(fleet.submitScalar(id, inByte, 99), serve::SubmitStatus::Ok);
    fleet.drainAll();
}

TEST(ServeAdmission, ThreadCountIsCapped)
{
    // A fleet clamps its threads to its shard count, which has no bound
    // of its own: the worker pool refuses a count past rt::kMaxThreads
    // before it starts a thread (a helper the throw left joinable would
    // end the process).
    serve::FleetOptions opts;
    opts.shards = rt::kMaxThreads + 1;
    opts.threads = rt::kMaxThreads + 1;
    opts.queueCapacity = 4;
    EXPECT_THROW(serve::ShardedFleet(compileStack(), opts), EclError);
}

TEST(ServeSubmit, TypedRejections)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    const int match = sigIndex(*mod, "addr_match");
    serve::ShardedFleet fleet(mod);
    const serve::SessionId id = fleet.admit().session;
    fleet.step();

    EXPECT_EQ(fleet.submitScalar(0xbeef, inByte, 1),
              serve::SubmitStatus::UnknownSession);
    // Outputs are not submittable.
    EXPECT_EQ(fleet.submit(id, match), serve::SubmitStatus::BadSignal);
    EXPECT_EQ(fleet.submitScalar(id, -1, 0), serve::SubmitStatus::BadSignal);
    // Pure inputs take submit(), not submitScalar().
    const SignalInfo* reset = mod->moduleSema().findSignal("reset");
    ASSERT_NE(reset, nullptr);
    ASSERT_TRUE(reset->pure);
    EXPECT_EQ(fleet.submitScalar(id, reset->index, 1),
              serve::SubmitStatus::NotScalar);
    EXPECT_EQ(fleet.submit(id, reset->index), serve::SubmitStatus::Ok);
    fleet.drainAll();

    // Ended sessions reject immediately at submit.
    EXPECT_TRUE(fleet.endSession(id));
    EXPECT_EQ(fleet.submitScalar(id, inByte, 1),
              serve::SubmitStatus::UnknownSession);
    EXPECT_FALSE(fleet.isLive(id));
    EXPECT_THROW((void)fleet.locate(id), EclError);
}

// Traps on v = 0; emits o = 100 / v otherwise.
const char* kDivideSrc = "module m (input int v, output int o)\n"
                         "{\n"
                         "    while (1) {\n"
                         "        await (v);\n"
                         "        emit_v (o, 100 / v);\n"
                         "    }\n"
                         "}\n";

// A data trap surfaces from step() once: every shard's error is cleared
// in the round that raised it, so a shard that trapped without being
// the first to report does not rethrow stale in a later round.
TEST(ServeTrap, EveryShardErrorClearedInTheRoundThatRaisedIt)
{
    Compiler compiler(kDivideSrc);
    auto mod = compiler.compile("m");
    const int v = sigIndex(*mod, "v");
    const int o = sigIndex(*mod, "o");
    serve::FleetOptions opts;
    opts.shards = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId a = fleet.admitOn(0).session;
    const serve::SessionId b = fleet.admitOn(1).session;
    fleet.step(); // boot both sessions to the await

    // Round 0: one trapping session on each shard.
    ASSERT_EQ(fleet.submitScalar(a, v, 0), serve::SubmitStatus::Ok);
    ASSERT_EQ(fleet.submitScalar(b, v, 0), serve::SubmitStatus::Ok);
    try {
        fleet.step();
        ADD_FAILURE() << "round 0 did not trap";
    } catch (const EclError& e) {
        EXPECT_NE(std::string(e.what()).find("division by zero"),
                  std::string::npos)
            << e.what();
    }

    // Round 1: valid input on shard 0 only.
    ASSERT_EQ(fleet.submitScalar(a, v, 5), serve::SubmitStatus::Ok);
    EXPECT_EQ(fleet.step(), 1u);
    EXPECT_EQ(fleet.outputValue(a, o).toInt(), 20);
    // Presence is the last completed reaction's: b's trapped, so it
    // still shows its boot, which emitted nothing.
    EXPECT_TRUE(fleet.outputPresent(a, o));
    EXPECT_FALSE(fleet.outputPresent(b, o));
    EXPECT_FALSE(fleet.terminated(a));
    EXPECT_FALSE(fleet.terminated(b));
}

// A session's termination is its own: the one that saw its input ends,
// the other still waits.
TEST(ServeQueries, TerminationIsPerSession)
{
    Compiler compiler("module m (input pure a, output pure o)"
                      " { await (a); emit (o); }");
    auto mod = compiler.compile("m");
    const int a = sigIndex(*mod, "a");
    const int o = sigIndex(*mod, "o");
    serve::FleetOptions opts;
    opts.shards = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId x = fleet.admitOn(0).session;
    const serve::SessionId y = fleet.admitOn(1).session;
    fleet.step(); // boot both sessions to the await
    ASSERT_EQ(fleet.submit(x, a), serve::SubmitStatus::Ok);
    EXPECT_EQ(fleet.step(), 1u);
    EXPECT_TRUE(fleet.terminated(x));
    EXPECT_TRUE(fleet.outputPresent(x, o));
    EXPECT_FALSE(fleet.terminated(y));
    EXPECT_FALSE(fleet.outputPresent(y, o));
}

// A round in which one session traps still delivers the events of every
// session that reacted, on the trapping session's shard as well.
TEST(ServeTrap, TrappingShardDeliversItsReactedSessionsEvents)
{
    Compiler compiler(kDivideSrc);
    auto mod = compiler.compile("m");
    const int v = sigIndex(*mod, "v");
    const int o = sigIndex(*mod, "o");
    for (EngineKind kind : {EngineKind::Flat, EngineKind::Native}) {
        for (int threads : {1, 2}) {
            SCOPED_TRACE(std::string(kind == EngineKind::Native ? "native"
                                                                : "vm") +
                         ", threads " + std::to_string(threads));
            serve::FleetOptions opts;
            opts.shards = 2;
            opts.threads = threads;
            opts.kind = kind;
            serve::ShardedFleet fleet(mod, opts);
            if (kind == EngineKind::Native &&
                std::string(fleet.shardEngine(0).backendName()) != "native")
                continue; // AOT backend unavailable (VM fallback)
            std::vector<serve::SessionId> ids;
            for (std::uint32_t i = 0; i < 200; ++i)
                ids.push_back(fleet.admitOn(i % 2).session);
            fleet.step(); // boot every session to the await

            // Session 0 (shard 0) divides by zero, the 199 others by 5.
            for (std::size_t i = 0; i < ids.size(); ++i)
                ASSERT_EQ(fleet.submitScalar(ids[i], v, i == 0 ? 0 : 5),
                          serve::SubmitStatus::Ok);
            EXPECT_THROW(fleet.step(), EclError);
            std::vector<serve::SessionEvent> events;
            fleet.collectLastRoundEvents(events);
            std::vector<serve::SessionId> reacted;
            for (const serve::SessionEvent& ev : events) {
                EXPECT_EQ(ev.signal, o);
                reacted.push_back(ev.session);
            }
            std::vector<serve::SessionId> expected(ids.begin() + 1,
                                                   ids.end());
            std::sort(reacted.begin(), reacted.end());
            std::sort(expected.begin(), expected.end());
            EXPECT_EQ(reacted, expected);
            for (std::size_t i = 1; i < ids.size(); ++i) {
                EXPECT_EQ(fleet.outputValue(ids[i], o).toInt(), 20)
                    << "session " << i;
                EXPECT_TRUE(fleet.outputPresent(ids[i], o)) << "session " << i;
                EXPECT_FALSE(fleet.terminated(ids[i])) << "session " << i;
            }
            EXPECT_FALSE(fleet.outputPresent(ids[0], o));
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-producer ingress (the TSan target of this suite).
// ---------------------------------------------------------------------------

// The ring itself: four producers push concurrently while one consumer
// pops. Every value comes out exactly once, each producer's values in the
// order it pushed them, and a full ring rejects the push.
TEST(ServeIngress, RingPopsEveryPushOnceInProducerOrder)
{
    constexpr std::uint64_t kProducers = 4;
    constexpr std::uint64_t kPerProducer = 50000;
    serve::IngressRing<std::uint64_t> ring(64); // small: pushes hit full
    ASSERT_EQ(ring.capacity(), 64u);

    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&ring, p] {
            for (std::uint64_t k = 0; k < kPerProducer; ++k)
                while (!ring.tryPush(p << 32 | k)) std::this_thread::yield();
        });
    std::vector<std::uint64_t> next(kProducers, 0);
    std::uint64_t popped = 0;
    std::uint64_t outOfOrder = 0;
    while (popped < kProducers * kPerProducer) {
        std::uint64_t value = 0;
        if (!ring.tryPop(value)) {
            std::this_thread::yield();
            continue;
        }
        const std::uint64_t p = value >> 32;
        const std::uint64_t k = value & 0xffffffffu;
        if (p >= kProducers || k != next[p]) {
            ++outOfOrder;
        } else {
            ++next[p];
        }
        ++popped;
    }
    for (std::thread& th : producers) th.join();
    EXPECT_EQ(outOfOrder, 0u);
    for (std::uint64_t p = 0; p < kProducers; ++p)
        EXPECT_EQ(next[p], kPerProducer) << "producer " << p;
    std::uint64_t value = 0;
    EXPECT_FALSE(ring.tryPop(value)); // nothing popped twice
    EXPECT_EQ(ring.approxSize(), 0u);

    // Full: the push past capacity fails and overwrites nothing; one pop
    // makes room for exactly one more.
    for (std::uint64_t k = 0; k < ring.capacity(); ++k)
        ASSERT_TRUE(ring.tryPush(k));
    EXPECT_FALSE(ring.tryPush(999));
    ASSERT_TRUE(ring.tryPop(value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(ring.tryPush(ring.capacity()));
    EXPECT_FALSE(ring.tryPush(999));
    for (std::uint64_t k = 1; k <= ring.capacity(); ++k) {
        ASSERT_TRUE(ring.tryPop(value));
        EXPECT_EQ(value, k);
    }
    EXPECT_FALSE(ring.tryPop(value));
}

TEST(ServeIngress, MultiProducerConcurrentWithStepping)
{
    auto mod = compileStack();
    const int inByte = sigIndex(*mod, "in_byte");
    constexpr std::size_t kSessions = 256;
    constexpr int kProducers = 4;
    constexpr int kBytesPerSession = 16;

    serve::FleetOptions opts;
    opts.shards = 4;
    opts.threads = 2;
    opts.queueCapacity = 128; // small on purpose: exercise QueueFull
    serve::ShardedFleet fleet(mod, opts);
    std::vector<serve::SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i)
        ids.push_back(fleet.admit().session);
    fleet.step();

    // Producers hammer the lock-free submit path — session-table reads
    // plus ring pushes — concurrently with the control thread stepping
    // the fleet (the documented any-thread/any-time data-plane
    // contract). Every producer owns a session slice and retries
    // QueueFull by yielding, so exactly kSessions * kBytesPerSession
    // events are accepted in total.
    std::atomic<int> running{kProducers};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int t = 0; t < kBytesPerSession; ++t)
                for (std::size_t i = static_cast<std::size_t>(p);
                     i < kSessions; i += kProducers) {
                    while (fleet.submitScalar(ids[i], inByte,
                                              0x40 + (t & 0x3f)) ==
                           serve::SubmitStatus::QueueFull)
                        std::this_thread::yield();
                }
            running.fetch_sub(1, std::memory_order_release);
        });
    while (running.load(std::memory_order_acquire) > 0) fleet.step();
    for (std::thread& th : producers) th.join();
    fleet.drainAll();

    const serve::FleetStats st = fleet.stats();
    EXPECT_EQ(st.total(&serve::ShardStats::eventsApplied),
              static_cast<std::uint64_t>(kSessions) * kBytesPerSession);
    EXPECT_EQ(st.total(&serve::ShardStats::eventsDropped), 0u);
    EXPECT_EQ(st.pendingEvents, 0u);
    EXPECT_GT(st.reactions, 0u);
    // Every session saw at least one byte instant.
    for (serve::SessionId id : ids) EXPECT_TRUE(fleet.isLive(id));
}

// ---------------------------------------------------------------------------
// Committed replay fixture.
// ---------------------------------------------------------------------------

#ifdef ECL_FIXTURE_DIR
TEST(ServeReplay, CommittedFleetSessionTraceReplaysBitExact)
{
    const std::string path =
        std::string(ECL_FIXTURE_DIR) + "/fleet_session.eclrtrace";
    const rt::InputTrace trace = rt::readTraceFile(path);
    auto mod = compileStack();

    // The recording replays bit-exactly on a fresh single engine.
    auto sync = mod->makeEngine();
    const rt::TraceReplayResult syncRes = rt::replayTrace(*sync, trace);
    EXPECT_TRUE(syncRes.outputsMatch) << syncRes.mismatch;

    // ...and on a fresh batch-engine instance.
    auto batch = mod->makeBatchEngine(2, rt::BatchOptions{1});
    const rt::TraceReplayResult batchRes = rt::replayTrace(*batch, 0, trace);
    EXPECT_TRUE(batchRes.outputsMatch) << batchRes.mismatch;
    EXPECT_EQ(batchRes.finalState, syncRes.finalState);

    // A fleet session fed the same byte stream ends in the identical
    // packed state — the committed fixture IS one fleet session's load.
    const int inByte = sigIndex(*mod, "in_byte");
    serve::FleetOptions opts;
    opts.shards = 2;
    serve::ShardedFleet fleet(mod, opts);
    const serve::SessionId id = fleet.admit().session;
    const std::vector<std::uint8_t> pkt = goodPacket();
    fleet.step();
    for (int t = 0; t < paper::kPktSize; ++t) {
        ASSERT_EQ(fleet.submitScalar(
                      id, inByte,
                      static_cast<std::int64_t>(
                          pkt[static_cast<std::size_t>(t)])),
                  serve::SubmitStatus::Ok);
        fleet.step();
    }
    fleet.drainAll();
    EXPECT_EQ(fleet.packSessionState(id), syncRes.finalState);
}
#endif
