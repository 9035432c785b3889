// Batch multi-instance runtime: N instances of one compiled module over
// shared flat tables.
//
// A SyncEngine owns one instance's whole execution stack (arena slice,
// presence rows, VM). Serving thousands of concurrent sessions of the *same*
// compiled module that way costs one heap-allocated engine + VM per
// session. BatchEngine instead keeps ONE shared efsm::FlatProgram +
// bc::Program, and an instance costs only the bytes it holds
// (bytesPerInstance()), in two places:
//  * the scheduling rows — control state id, instant-open and reacted
//    flags, 6 bytes per instance, and a dirty bit — are dense, because
//    every step streams them over its work list;
//  * everything else is one record per instance: the arena slice
//    (variables and valued-signal bytes at the computeInstanceLayout
//    offsets, padded to the layout's stride), the current-instant
//    presence row, the last-reaction presence row and the last
//    reaction's counts (tests, actions, emissions and, on the VM backend
//    only, its ExecCounters), each at an 8-byte aligned offset fixed per
//    engine. Records live in an rt::RecordArena, whose 1 MiB segments
//    (or one record's own, past 1 MiB) never move, so adding an
//    instance copies nothing and leaves no garbage behind.
// Execution state that is scratch rather than per-instance — the
// worker's rt::Reactor (VM register files and call frames, or the
// native function, and the output ring) and the step's output events —
// lives in per-WORKER contexts shared by every instance the worker
// serves, so a reaction still runs without heap allocation no matter how
// many instances exist. A completed reaction writes its outcome where it
// is kept: counts and termination into its record, its emitted outputs
// from the ring onto its worker's event buffer; a trapping one writes
// neither.
//
// Two execution backends run over the same arenas, through the shared
// flat kernel (src/runtime/flat_kernel.h): each worker's reactor runs
// the bytecode VM, which addresses the instance's slice directly, or —
// when the engine is constructed with a loaded rt::NativeModule
// (CompiledModule::makeBatchEngine with EngineKind::Native) — the
// AOT-compiled function, which operates on the exact
// computeInstanceLayout arena bytes, so the instance slice is passed
// straight through with no marshalling. Both backends are bit-exact per
// reacted instance with the corresponding single engine (SyncEngine /
// NativeEngine): outputs, packed state, termination, auto-resume,
// counters, trap messages and the runaway budget, which the kernel opens
// afresh for every reaction.
//
// Scheduling follows a dirty bitmap: step() reacts only instances that
// have pending inputs or auto-resume (an await() delta pause), the same
// event-driven contract as rtos::Network tasks. It collects them in
// ascending id order by scanning the bitmap's words — O(instances/64 +
// marked), no sort — and a count of marked instances answers
// hasPendingWork() in O(1). stepAll() reacts every instance — exact
// lockstep with N independent SyncEngines, including empty-instant
// reactions. A worker prefetches the record of the reaction a few ahead
// of the one it runs, which pays once the records outgrow the cache.
//
// A data trap ends only its own instance's reaction: the step still
// reacts every other instance and re-schedules delta pauses, then
// rethrows the error of the lowest trapping instance id (the single
// engine's text, the same for any thread count). The trapping instance
// keeps its pre-reaction control state and is not marked reacted.
//
// With BatchOptions::threads > 1 the reacting instances are partitioned
// into contiguous shards over a persistent worker pool. Instances are
// independent (no instant-level communication), every worker writes only
// its instances' rows, and the merged per-step output events are
// concatenated in shard order — so results and event order are identical
// for any thread count. Steps whose work list is small run on fewer
// workers (down to the caller alone): waking a helper costs more than a
// handful of reactions, and the contiguous partition keeps the merged
// order identical regardless of how many workers participate. The merge
// itself is lazy — step() returns without touching the event buffers,
// and lastStepEvents() concatenates on first use.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/interp/eval.h"
#include "src/runtime/engine.h"
#include "src/runtime/flat_kernel.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/native_module.h"
#include "src/runtime/record_arena.h"
#include "src/runtime/worker_pool.h"
#include "src/sema/sema.h"

namespace ecl::rt {

struct BatchOptions {
    /// Worker threads for step()/stepAll(). 1 = run on the caller; past
    /// kMaxThreads the engine throws EclError.
    int threads = 1;
};

class BatchEngine {
public:
    /// `flat`, `sema`, `inputs` (the InputTable of `sema`) and the
    /// structures behind `code` must outlive the engine (retain() the
    /// CompiledModule). Starts with `instances`
    /// slots, all marked dirty so the first step() boots them. When
    /// `native` is non-null its reaction function replaces the VM for
    /// every reaction (the caller — normally makeBatchEngine — is
    /// responsible for the fall-back-to-VM policy); each worker's
    /// reactor validates the module shape against `flat` and the
    /// instance layout.
    BatchEngine(const efsm::FlatProgram& flat,
                std::shared_ptr<const bc::Program> code,
                const ModuleSema& sema, const InputTable& inputs,
                std::size_t instances, BatchOptions options = {},
                std::shared_ptr<const NativeModule> native = nullptr);

    BatchEngine(const BatchEngine&) = delete;
    BatchEngine& operator=(const BatchEngine&) = delete;

    /// Keeps the owning CompiledModule alive (same contract as
    /// ReactiveEngine::retain).
    void retain(std::shared_ptr<const void> owner) { owner_ = std::move(owner); }

    /// Appends one fresh (dirty, unbooted) instance; returns its id. Only
    /// between steps.
    std::size_t addInstance();

    // --- slot lifecycle (between steps; single-threaded) ---
    // Instances can never be removed (ids are stable arena offsets), but a
    // serving layer reuses slots: park a slot when its session leaves,
    // then reset (fresh session) or restore (migrated-in session) it.
    /// Makes the slot inert: clears its dirty mark and any staged inputs
    /// so no future step reacts it until reset/restored. State bytes are
    /// left in place (checkpoint first if they matter).
    void parkInstance(std::size_t inst);
    /// Returns the slot to the exact post-addInstance state: initial
    /// control state, zeroed arena slice and presence rows, boot reaction
    /// pending.
    void resetInstance(std::size_t inst);
    /// Loads a packed state record [i32 control state][instance-layout
    /// data bytes] (the packInstanceState / packState() format) into
    /// the slot: control + data restored, presence/staged inputs cleared,
    /// no boot (the record is a post-boot snapshot). The slot is re-marked
    /// dirty only when the restored control state auto-resumes. Throws
    /// EclError on a size mismatch or an out-of-range control state.
    void restoreInstanceState(std::size_t inst, const std::uint8_t* data,
                              std::size_t size);

    // --- input phase (between steps; single-threaded) ---
    void setInput(std::size_t inst, int sigIndex);
    void setInputScalar(std::size_t inst, int sigIndex, std::int64_t v);
    void setInputValue(std::size_t inst, int sigIndex, const Value& v);

    // --- stepping ---
    /// Reacts every instance with pending inputs or auto-resume; returns
    /// the number of reactions run. Throws the lowest trapping instance's
    /// EclError after the others have reacted (see the header comment).
    std::size_t step();
    /// Reacts every instance (lockstep with N independent SyncEngines).
    std::size_t stepAll();

    // --- per-instance queries (post-step) ---
    [[nodiscard]] bool reactedLastStep(std::size_t inst) const;
    /// The instance's reaction in the last step, rebuilt from its record:
    /// counts, ExecCounters (VM backend; zero on the native one, as on
    /// NativeEngine), termination, and its emitted outputs — its run of
    /// lastStepEvents(). Throws EclError unless reactedLastStep(inst): an
    /// instance that did not react, trapped, or was reset or restored
    /// since has no last reaction.
    [[nodiscard]] ReactionResult lastResult(std::size_t inst) const;
    [[nodiscard]] bool outputPresent(std::size_t inst, int sigIndex) const;
    /// Materialized (owning) copy of a valued signal's current value.
    [[nodiscard]] Value outputValue(std::size_t inst, int sigIndex) const;
    [[nodiscard]] bool terminated(std::size_t inst) const;
    [[nodiscard]] bool needsAutoResume(std::size_t inst) const;
    /// True when the instance is queued for the next step() (pending
    /// inputs, auto-resume, or not yet booted).
    [[nodiscard]] bool pendingDirty(std::size_t inst) const;
    /// True when inputs have been staged on the instance since its last
    /// reaction (the instant is open).
    [[nodiscard]] bool hasStagedInputs(std::size_t inst) const;
    /// True when any instance is queued for the next step() — the
    /// scheduler probe a serving layer uses to skip idle engines.
    [[nodiscard]] bool hasPendingWork() const;

    /// One output emission of the last step()/stepAll().
    struct StepEvent {
        std::uint32_t instance;
        std::int32_t signal;
    };
    /// Merged outputs of the last step, ascending instance id, per-instance
    /// emission order preserved; identical for any thread count. Merged
    /// lazily from the per-worker buffers on first call after a step.
    [[nodiscard]] const std::vector<StepEvent>& lastStepEvents() const
    {
        mergeStepEvents();
        return stepEvents_;
    }

    /// Packs instance `inst` into the shared verification state record
    /// [i32 control state][instance-layout data bytes] — byte-compatible
    /// with the single engines' packState() and the explorer's interned
    /// states: equal byte strings mean same state.
    [[nodiscard]] std::vector<std::uint8_t>
    packInstanceState(std::size_t inst) const;

    [[nodiscard]] const ModuleSema& moduleSema() const { return sema_; }
    [[nodiscard]] int threads() const
    {
        return static_cast<int>(shards_.size());
    }
    /// "native" when reactions run the AOT-compiled function, else
    /// "flat" (the bytecode VM) — the same names the single engines use.
    [[nodiscard]] const char* backendName() const
    {
        return shards_.front()->reactor.backendName();
    }
    /// Every byte the engine holds per instance: its record (arena slice,
    /// two presence rows, last reaction's counts) plus its scheduling
    /// rows (memory model / capacity planning).
    [[nodiscard]] std::size_t bytesPerInstance() const
    {
        // The record, then state_, instantOpen_, reacted_ and the dirty
        // bit, rounded up to a byte.
        return recordBytes_ + sizeof(std::int32_t) + 3 * sizeof(std::uint8_t);
    }

private:
    /// Per-worker execution context: scratch shared by all instances the
    /// worker reacts (never by two workers at once).
    struct Shard {
        Reactor reactor; ///< Reacts every instance of this worker.
        std::vector<StepEvent> events; ///< This epoch, processing order.
        std::size_t reactions = 0; ///< Reactions run this epoch.
        std::exception_ptr error;

        explicit Shard(Reactor r) : reactor(std::move(r)) {}
    };

    /// The last reaction's counts as a record stores them (memcpy only).
    struct Counts {
        std::uint64_t treeTests = 0;
        std::uint64_t actionsRun = 0;
        std::uint64_t emitsRun = 0;
    };
    /// reacted_ bits: reacted in the last step, and that reaction
    /// terminated.
    static constexpr std::uint8_t kReacted = 1;
    static constexpr std::uint8_t kTerminated = 2;

    void checkInstance(std::size_t inst) const;
    const SignalInfo& checkSignal(std::size_t inst, int sigIndex) const;
    const SignalInfo& checkInput(std::size_t inst, int sigIndex) const;
    /// Back to the state of a new record: zeroed slice and rows, and no
    /// reaction to report.
    void clearInstance(std::size_t inst, std::uint8_t* rec);
    void markDirty(std::size_t inst);
    void clearDirty(std::size_t inst);
    void openInstant(std::size_t inst, std::uint8_t* rec);
    void reactOne(Shard& shard, std::size_t inst);
    std::size_t runStep(bool all);
    void runShard(int w);
    void mergeStepEvents() const;

    const efsm::FlatProgram& flat_;
    const ModuleSema& sema_;
    const InputTable& inputs_;
    std::shared_ptr<const void> owner_;

    /// Shared fixed layout of one instance's arena slice (the same layout
    /// the verification explorer packs states with — see
    /// src/runtime/instance_layout.h).
    InstanceLayout layout_;

    // Record layout, fixed at construction, every offset 8-byte aligned:
    // [slice: stride][present: S][last present: S][Counts]
    // [ExecCounters, VM only].
    std::size_t presentOff_ = 0;
    std::size_t lastPresentOff_ = 0;
    std::size_t countsOff_ = 0;
    std::size_t recordBytes_ = 0;
    /// Instance `inst`'s record at index inst: its slice starts the
    /// record, its rows sit at presentOff_, lastPresentOff_ and
    /// countsOff_.
    RecordArena records_;

    // Scheduling rows, one entry per instance.
    std::vector<std::int32_t> state_;        ///< Current EFSM state id.
    std::vector<std::uint8_t> instantOpen_;  ///< Inputs staged this instant.
    std::vector<std::uint8_t> reacted_;      ///< kReacted | kTerminated.
    /// Queued for the next step: bit inst & 63 of word inst >> 6.
    std::vector<std::uint64_t> dirtyBits_;
    std::size_t dirtyCount_ = 0; ///< Bits set in dirtyBits_.

    std::vector<std::uint32_t> work_; ///< This step, ascending.
    /// Lazily merged event stream of the last step (mergeStepEvents).
    mutable std::vector<StepEvent> stepEvents_;
    mutable bool eventsMerged_ = true;

    // Worker pool (threads > 1): one epoch per step, contiguous ranges
    // over work_ per shard. All per-instance rows a worker touches are
    // disjoint byte ranges, so the only synchronization is the pool's
    // epoch barrier.
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::pair<std::size_t, std::size_t>> ranges_;
    std::unique_ptr<WorkerPool> pool_;
    std::size_t participants_ = 1; ///< Shards used by the last epoch.
};

} // namespace ecl::rt
