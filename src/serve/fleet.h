// Sharded million-session serving layer over the batch runtime.
//
// The paper's claim is that compiling the whole specification into one
// EFSM makes a reaction cheap enough to treat a session as the unit of
// serving; rt::BatchEngine turned that into N instances over one set of
// flat tables. ShardedFleet is the layer above: it owns SHARDS of batch
// engines and serves an open population of sessions against them, the
// same shape as an inference-serving stack — sharded engines, admission
// control, live state migration over a packed-state substrate.
//
//  * Sharding. Each shard owns one rt::BatchEngine (VM or AOT-native
//    backend — FleetOptions::kind), a bounded lock-free MPSC ingress
//    ring (IngressRing: any thread pushes, only the shard's worker
//    pops), a slot free-list and a slot -> session reverse map.
//    Shards are pinned to fleet workers (shard s belongs to worker
//    s % threads, forever), so all engine and slot state is
//    single-writer and the only cross-thread traffic is the rings and
//    the session table.
//  * Ingress. submit()/submitScalar() run on ANY thread: resolve the
//    session's shard from the lock-free SessionTable, validate the
//    signal against the module's rt::InputTable (the one the shard
//    engines stage through), and try-push one POD event onto the
//    shard's ring — no locks, no allocation. A full ring
//    rejects with SubmitStatus::QueueFull (typed backpressure, counted
//    per shard); events for ended sessions are dropped at dequeue.
//  * Scheduling. step() runs one fleet round: every shard with pending
//    traffic (non-empty ring or a dirty instance) — and only those —
//    drains its ring into its engine and advances it by one step().
//    Idle shards cost nothing. drainAll() loops rounds until no traffic
//    remains.
//  * Admission control. admit() assigns monotonically increasing
//    session ids round-robin across shards, reusing parked slots before
//    growing the arena. A fleet-level high-water mark on queued events
//    pauses admission (AdmitStatus::Paused) until the backlog falls
//    under the low-water mark; FleetOptions::maxSessions caps the live
//    population (AdmitStatus::FleetFull).
//  * Checkpoint / migration. checkpointSession() wraps the packed
//    instance record in the versioned, compile-fingerprinted
//    SessionCheckpoint format; restoreSession() admits it back on any
//    fleet running the SAME compile (fingerprint mismatch is a typed
//    rejection). migrate() moves a live session between shards with
//    checkpoint + free-list reuse and one atomic session-table flip;
//    events still queued on the old shard re-resolve at dequeue time
//    and are forwarded to the new shard's ring. rebalance() migrates
//    sessions off the hottest shard onto the coldest.
//
// Threading contract: submit()/submitScalar() and SessionTable lookups
// are safe from any thread at any time, including concurrently with
// step(). Everything else — admit / endSession / migrate / checkpoint /
// restore / step / stats — is control-plane and runs on ONE thread at a
// time (the same thread that steps the fleet), never concurrently with
// an in-flight step().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/runtime/worker_pool.h"
#include "src/serve/checkpoint.h"
#include "src/serve/ingress_queue.h"
#include "src/serve/session_table.h"

namespace ecl::serve {

struct FleetOptions {
    /// Number of shards (one BatchEngine each).
    int shards = 1;
    /// Fleet worker threads; shard s is pinned to worker s % threads.
    /// Clamped to [1, shards]; past rt::kMaxThreads the fleet throws
    /// EclError.
    int threads = 1;
    /// Per-shard ingress ring capacity (rounded up to a power of two).
    std::size_t queueCapacity = 1u << 16;
    /// Live-session admission cap; 0 = unlimited.
    std::size_t maxSessions = 0;
    /// Execution backend per shard engine (EngineKind::Native falls back
    /// to the VM exactly like makeBatchEngine).
    EngineKind kind = EngineKind::Flat;
};

enum class SubmitStatus {
    Ok,
    UnknownSession, ///< Never admitted, or already ended.
    QueueFull,      ///< Shard ring full — backpressure, retry later.
    BadSignal,      ///< Not an input signal of the module.
    NotScalar,      ///< submitScalar on a pure or non-scalar-valued signal.
};

enum class AdmitStatus {
    Ok,
    Paused,           ///< Backlog over the high-water mark.
    FleetFull,        ///< Live population at FleetOptions::maxSessions.
    IdSpaceExhausted, ///< Lifetime session-id capacity spent.
    BadShard,         ///< admitOn() with an out-of-range shard.
};

enum class RestoreStatus {
    Ok,
    Paused,
    FleetFull,
    IdSpaceExhausted,
    BadFormat,           ///< Magic/version/structure rejected.
    FingerprintMismatch, ///< Checkpoint from a different compile.
    BadState,            ///< Packed bytes inconsistent with this compile.
};

enum class MigrateStatus {
    Ok,
    UnknownSession,
    SameShard,
    BadShard,
    StagedInputs, ///< Step the fleet first: inputs staged on the engine.
};

struct AdmitResult {
    AdmitStatus status = AdmitStatus::Ok;
    SessionId session = 0;
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
};

struct RestoreResult {
    RestoreStatus status = RestoreStatus::Ok;
    SessionId session = 0;
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
};

/// Per-shard serving counters (monotonic unless noted).
struct ShardStats {
    std::uint64_t liveSessions = 0; ///< Current, not monotonic.
    std::uint64_t admitted = 0;
    std::uint64_t migratedIn = 0;
    std::uint64_t migratedOut = 0;
    std::uint64_t steps = 0;     ///< Rounds in which this shard advanced.
    std::uint64_t reactions = 0; ///< Reactions its engine ran.
    std::uint64_t eventsApplied = 0;
    std::uint64_t eventsForwarded = 0; ///< Re-routed after a migration.
    std::uint64_t eventsDropped = 0;   ///< Ended sessions, full targets.
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t queueDepth = 0; ///< Snapshot, not monotonic.
};

struct FleetStats {
    std::vector<ShardStats> shards;
    std::uint64_t liveSessions = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejectedPaused = 0; ///< Admissions refused at high water.
    std::uint64_t rejectedFull = 0;   ///< Admissions refused at maxSessions.
    std::uint64_t migrations = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t rounds = 0;    ///< step() calls that advanced something.
    std::uint64_t reactions = 0; ///< Across all shards, all rounds.
    std::uint64_t pendingEvents = 0; ///< Snapshot of queued-event backlog.

    /// Sums a per-shard counter (convenience for tests/benches).
    [[nodiscard]] std::uint64_t
    total(std::uint64_t ShardStats::* field) const
    {
        std::uint64_t sum = 0;
        for (const ShardStats& s : shards) sum += s.*field;
        return sum;
    }
};

/// One output emission of the last round, in session terms.
struct SessionEvent {
    SessionId session = 0;
    std::int32_t signal = 0;
};

class ShardedFleet {
public:
    /// Builds `options.shards` empty shard engines of `mod`.
    ShardedFleet(std::shared_ptr<const CompiledModule> mod,
                 FleetOptions options = {});
    ~ShardedFleet();

    ShardedFleet(const ShardedFleet&) = delete;
    ShardedFleet& operator=(const ShardedFleet&) = delete;

    // --- control plane (one thread, never during step()) ---
    /// Admits a new session on the next round-robin shard.
    AdmitResult admit();
    /// Admits on a specific shard (tests, locality-aware callers).
    AdmitResult admitOn(std::uint32_t shard);
    /// Ends a session: parks its slot for reuse and unmaps the id.
    /// Events still queued for it are dropped at dequeue. False when the
    /// session is unknown.
    bool endSession(SessionId id);
    /// Serialized SessionCheckpoint of a live session. Throws EclError
    /// when the session is unknown or has staged (un-stepped) inputs.
    [[nodiscard]] std::vector<std::uint8_t>
    checkpointSession(SessionId id) const;
    /// Admits a checkpointed session back into the fleet (new id, state
    /// restored bit-exactly). Typed rejection on format, fingerprint,
    /// admission-control or state failures.
    RestoreResult restoreSession(const std::uint8_t* data, std::size_t size);
    RestoreResult restoreSession(const std::vector<std::uint8_t>& bytes)
    {
        return restoreSession(bytes.data(), bytes.size());
    }
    /// Moves a live session to `targetShard` (checkpoint bytes + slot
    /// free-list reuse + one atomic table flip); its id is unchanged.
    MigrateStatus migrate(SessionId id, std::uint32_t targetShard);
    /// Migrates up to `maxMoves` sessions from the shard with the most
    /// live sessions to the one with the fewest, stopping when balanced
    /// (difference <= 1). Returns the number moved.
    std::size_t rebalance(std::size_t maxMoves);

    // --- data plane (any thread, any time) ---
    /// Stages presence of a pure or valued input signal for the
    /// session's next reaction.
    SubmitStatus submit(SessionId id, int sigIndex);
    /// Stages a scalar-valued input signal.
    SubmitStatus submitScalar(SessionId id, int sigIndex, std::int64_t v);

    // --- scheduling (control plane) ---
    /// One fleet round: shards with pending traffic drain their rings
    /// and advance their engines; idle shards are skipped. Returns the
    /// reactions run this round (0 = the fleet was idle). When shard
    /// steps trap, rethrows the lowest such shard's error once; every
    /// shard's error is cleared in that round.
    std::size_t step();
    /// Loops step() until no shard has pending traffic (or `maxRounds`
    /// rounds ran); returns total reactions.
    std::size_t drainAll(int maxRounds = 1 << 30);
    /// True when any shard has queued events or dirty instances.
    [[nodiscard]] bool hasPendingTraffic() const;

    // --- introspection (control plane unless noted) ---
    [[nodiscard]] std::size_t shardCount() const { return shards_.size(); }
    [[nodiscard]] const rt::BatchEngine& shardEngine(std::size_t s) const;
    /// Safe from any thread (lock-free table read).
    [[nodiscard]] bool isLive(SessionId id) const
    {
        return table_.lookup(id) != SessionTable::kInvalid;
    }
    /// (shard, slot) of a live session; throws EclError when unknown.
    [[nodiscard]] std::pair<std::uint32_t, std::uint32_t>
    locate(SessionId id) const;
    [[nodiscard]] bool outputPresent(SessionId id, int sigIndex) const;
    [[nodiscard]] Value outputValue(SessionId id, int sigIndex) const;
    [[nodiscard]] bool terminated(SessionId id) const;
    /// Packed state record of a live session (checkpoint payload without
    /// the envelope).
    [[nodiscard]] std::vector<std::uint8_t>
    packSessionState(SessionId id) const;
    /// Appends the last round's output emissions (stepped shards only,
    /// shard-major, each shard's merged deterministic order). A shard
    /// whose step trapped still delivers the events of every session
    /// that reacted; the trapping session itself emits nothing.
    void collectLastRoundEvents(std::vector<SessionEvent>& out) const;
    [[nodiscard]] bool admissionPaused() const { return paused_; }
    [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
    [[nodiscard]] const ModuleSema& moduleSema() const
    {
        return mod_->moduleSema();
    }
    [[nodiscard]] FleetStats stats() const;

private:
    enum class EventKind : std::uint8_t { Pure, Scalar };

    /// One POD ingress event (ring cell payload).
    struct IngressEvent {
        SessionId session = 0;
        std::int32_t signal = 0;
        EventKind kind = EventKind::Pure;
        std::int64_t value = 0;
    };

    struct Shard {
        std::unique_ptr<rt::BatchEngine> engine;
        IngressRing<IngressEvent> ring;
        std::vector<std::uint32_t> freeSlots;   ///< Parked, reusable.
        std::vector<SessionId> sessionOfSlot;   ///< 0 = free slot.
        // Owner-worker counters (written only by the pinned worker
        // during an epoch, read by the control thread between epochs).
        std::uint64_t steps = 0;
        std::uint64_t reactions = 0;
        std::uint64_t eventsApplied = 0;
        std::uint64_t eventsForwarded = 0;
        std::uint64_t eventsDropped = 0;
        std::uint64_t lastStepReactions = 0;
        // Control-thread counters.
        std::uint64_t liveSessions = 0;
        std::uint64_t admitted = 0;
        std::uint64_t migratedIn = 0;
        std::uint64_t migratedOut = 0;
        /// Producer-side (any thread): ring-full rejections.
        alignas(64) std::atomic<std::uint64_t> rejectedQueueFull{0};
        std::uint8_t active = 0;  ///< Scheduled this round.
        std::uint8_t stepped = 0; ///< Stepped in the last round (trapped too).
        std::exception_ptr error;

        Shard(std::unique_ptr<rt::BatchEngine> eng, std::size_t ringCap)
            : engine(std::move(eng)), ring(ringCap)
        {
        }
    };

    [[nodiscard]] int ownerOf(std::size_t shard) const
    {
        return static_cast<int>(shard % static_cast<std::size_t>(threads_));
    }
    /// Admission-control gate shared by admit and restore; nonzero means
    /// rejected with that status.
    AdmitStatus admissionGate();
    std::uint32_t allocSlot(Shard& sh);
    void runWorker(int w);
    void drainRing(Shard& sh, std::uint32_t shardIndex);
    std::uint64_t locatePacked(SessionId id) const; ///< Throws when unknown.
    /// Queued-event backlog summed over the rings (racy estimate; the
    /// data plane shares NO fleet-global mutable state, so backpressure
    /// accounting reads the rings' own cursors instead of maintaining a
    /// contended counter).
    [[nodiscard]] std::uint64_t queuedEvents() const;

    std::shared_ptr<const CompiledModule> mod_;
    FleetOptions opts_;
    int threads_ = 1;
    std::uint64_t fingerprint_ = 0;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::unique_ptr<rt::WorkerPool> pool_;
    SessionTable table_;
    std::atomic<std::uint64_t> nextId_{1};

    // Control-thread state.
    std::uint64_t liveSessions_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t rejectedPaused_ = 0;
    std::uint64_t rejectedFull_ = 0;
    std::uint64_t migrations_ = 0;
    mutable std::uint64_t checkpoints_ = 0;
    std::uint64_t restores_ = 0;
    std::uint64_t rounds_ = 0;
    std::uint64_t reactions_ = 0;
    /// Admission pauses at half the total ring capacity queued and
    /// resumes at half of that.
    std::size_t highWater_ = 0;
    std::size_t lowWater_ = 0;
    bool paused_ = false;
    std::uint32_t rrShard_ = 0; ///< Round-robin admission cursor.
};

} // namespace ecl::serve
