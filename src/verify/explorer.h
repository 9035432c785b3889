// Explicit-state verification: parallel reachability + safety checking
// over the shared flat tables.
//
// The ECL paper's pitch is that the Esterel-derived reactive part has a
// formal synchronous semantics, so system-level specs can be *verified*,
// not just executed. This layer exploits that: a compiled module's
// reaction function (efsm::FlatProgram + bc::Program, the same read-only
// tables the SyncEngine and the batch runtime execute) is a total
// function  (control state, data bytes, inputs) -> (control state, data
// bytes, emissions),  so the reachable state space can be enumerated
// exactly.
//
// State encoding — one packed fixed-size record per reached state:
//   [design control state : i32][monitor control state : i32, if any]
//   [design data bytes][monitor data bytes]
// where "data bytes" is the module's rt::InstanceLayout slice (variables
// + valued-signal slots) — byte-compatible with a batch-engine arena
// slice and with every single engine's packState(). Records are interned
// in a pluggable StateStore (ExplorerOptions::storeKind — exact arena or
// lossy supertrace bitstate; see src/verify/state_store.h); the interned
// pause-set configuration behind a control state id is available through
// FlatProgram::configOf.
//
// Input alphabet — per instant the environment may set any subset of the
// input signals, valued inputs carrying one value from a finite domain
// (ExplorerOptions: {0,1} for scalars by default, the zero value for
// aggregates). Letters are enumerated in a canonical mixed-radix order
// (lowest signal index = least significant digit, absent < domain
// values), capped by kMaxLettersPerState. Dirty-set pruning, always on:
// a *pure* input whose presence is never tested by the current control
// state's decision tree, and that no monitor observes, cannot affect the
// reaction, so it is held absent — valued inputs always stay in the
// alphabet because their value write persists in the state bytes.
// Pruning is sound for reachability and for minimal counterexamples (the
// minimal trace never sets an untested pure input).
//
// Partial-order reduction (ExplorerOptions::partialOrder, default off) —
// a composite letter {a, b, ...} of pure inputs commutes with its
// singleton decomposition when the per-signal reactions are independent:
// the same end control state, the same emitted-signal set and the same
// multiset of executed data actions, every executed action a
// state-independent commutative update (constant increment/decrement of
// a scalar variable). Such letters are dropped: the canonical
// interleaving a-then-b-then-... reaches the identical packed state
// through singleton letters that are ALWAYS kept, so every reachable
// state stays reachable (reduced set == unreduced set on complete runs;
// under a depth bound the reduced frontier is narrower, which is where
// the state-count reduction shows up). Soundness of the check is
// decided by a presence-only simulation of the decision tree: any
// data-dependent branch, valued emission, runtime-error leaf or
// non-commutative action disqualifies the letter. Letters that emit a
// checked violation signal are kept (shortest-counterexample quality),
// and the reduction is disabled entirely when a monitor is attached
// (the monitor observes instants, which the decomposition multiplies).
//
// Frontier expansion — breadth-first: each depth level is a contiguous
// id range; worker threads expand disjoint contiguous chunks of it
// through the flat kernel (src/runtime/flat_kernel.h) — per worker and
// module one arena slice, one presence row and one rt::Reactor, the
// batch runtime's shard discipline — hashing each successor record
// (StateStore::hashBytes) as they write it and probing the store with it
// read-only one reaction later, once a prefetch has pulled the probe's
// memory in: a successor the store already holds is counted and dropped
// there. The rest are merged
// in three steps, all in canonical frontier x letter order (worker
// chunks are ascending frontier ranges, so worker order then successor
// order IS canonical):
//  1. dedupe, parallel — each of the store's StateStore::kShards hash
//     shards belongs to one worker, which walks that shard's successors
//     of every worker in canonical order and flags the first occurrence
//     of each record;
//  2. commit, sequential — the only step that must be: in canonical
//     order it stops at the first violating transition, applies
//     maxStates and the store budget, and hands each flagged successor
//     to StateStore::commit, which assigns its id and folds the digest;
//  3. place, parallel — each worker writes its committed records, parent
//     links and control states at their ids, and each shard owner
//     enters its shard's new records into its index shard.
// State numbering, state count, and the reported counterexample are
// therefore identical for any thread count, and BFS parent links give
// shortest traces. Records live in one container, rt::RecordArena,
// whose segments never move: a worker writes each successor straight
// into its own arena (emptied, not freed, between levels), the merge
// addresses it there by index, and place copies the committed ones into
// the store's arena, which the next level's frontier is read from (a
// bitstate store keeps no records: its committed records go to a level
// arena instead). The store is never written while workers read it:
// expand and dedupe only read, and place writes disjoint ids and
// owner-exclusive shards. ExploreStats::expandSeconds/mergeSeconds split
// a run's time between expansion and the three merge steps.
//
// After run() — An explorer holds its store and what describes it
// (stateStore(), stateDigest(), packedSize(), designSema(),
// designLayout()). run() frees everything else before it returns: the
// workers with their VMs, reactors, successor arenas and merge buckets,
// the dedupe tables, the bitstate level arena, the parent links, the
// per-id control states and the input alphabet.
//
// Native successors — when the explorer is built with an AOT-compiled
// module (its `native` argument, which CompiledModule::makeExplorer
// passes for ExplorerOptions::nativeSuccessors), each worker's design
// reactor runs the generated C instead of the bytecode VM: same arena
// slice, same presence bytes, same trap messages, bit-exact states
// (differentially tested). The monitor, when attached, always reacts
// through the VM.
//
// Violations — three sources, checked per *transition* (emissions are
// per-instant and not part of the packed state):
//  * a monitor module attached with attachMonitor(): its inputs are
//    wired by name to design signals, it reacts synchronously on the
//    design's every instant, and emitting any violation signal (any
//    non-input signal whose name contains "violation", in any case)
//    flags the transition;
//  * the same signal check on the design itself when no monitor is
//    attached;
//  * registered predicates over the post-reaction design state bytes.
// A reaction that traps at runtime (instantaneous-loop leaf, data
// runtime error) is reported as Violation::Kind::RuntimeError with the
// trace that reaches it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/runtime/flat_kernel.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/native_abi.h"
#include "src/runtime/trace.h"
#include "src/runtime/worker_pool.h"
#include "src/sema/sema.h"
#include "src/verify/state_store.h"

namespace ecl::rt {
class NativeModule;
}

namespace ecl::verify {

struct Violation {
    enum class Kind {
        MonitorSignal, ///< Violation signal emitted by the monitor.
        DesignSignal,  ///< Violation signal emitted by the design.
        Predicate,     ///< A registered predicate returned true.
        RuntimeError,  ///< The reaction trapped (instantaneous loop, ...).
    };
    Kind kind = Kind::DesignSignal;
    std::string what; ///< Signal name, predicate name, or error text.
    int signal = -1;  ///< Signal kinds: index in the monitored module.
    Value value;      ///< Emitted value when the signal is valued.
    int depth = 0;    ///< Instants from boot up to the violating reaction.
    /// Packed post-reaction record (design [+ monitor]); empty for
    /// RuntimeError (the reaction never completed).
    std::vector<std::uint8_t> state;
};

struct ExploreStats {
    std::uint64_t states = 0;      ///< Distinct states interned (root incl.).
    /// Control states of the explored flat machine (post-flatten
    /// minimization already applied when the module was compiled at
    /// -O1/-O2); the packed reachable set is bounded by
    /// controlStates x data valuations.
    std::uint64_t controlStates = 0;
    std::uint64_t transitions = 0; ///< (state, letter) expansions executed.
    std::uint64_t peakFrontier = 0;
    int depthReached = 0; ///< Deepest instant expanded into.
    /// Frontier exhausted within every bound. NOTE: with a lossy store
    /// (lossyStore below) this is a coverage statement only — hash
    /// collisions may have merged distinct states, so a complete lossy
    /// run means "no violation found", never "verified".
    bool complete = false;
    bool alphabetTruncated = false; ///< kMaxLettersPerState hit somewhere.
    StoreKind storeKind = StoreKind::Exact;
    bool lossyStore = false;          ///< stateStore().lossy().
    std::uint64_t storeMemoryBytes = 0; ///< stateStore().memoryBytes().
    /// (state, letter) expansions skipped by partial-order reduction.
    std::uint64_t lettersReduced = 0;
    /// Design successors were computed by the AOT native reaction (a
    /// native module that is unavailable or fails validation is never
    /// attached: the VM runs and this stays false — honest reporting
    /// over silent assumptions).
    bool usedNativeSuccessors = false;
    double seconds = 0;
    double statesPerSec = 0;
    /// BFS time split, summed over levels: the parallel expansion epoch
    /// (worker buffer reset and the store probe included) and the merge
    /// — its parallel dedupe and place epochs and the sequential commit
    /// between them.
    double expandSeconds = 0;
    double mergeSeconds = 0;
};

struct ExploreResult {
    ExploreStats stats;
    bool violated = false;
    Violation violation; ///< Valid when violated.
    /// The counterexample, when violated: the design's inputs per
    /// instant, boot first, over its whole signal table (a trace signal
    /// index is the design's SignalInfo::index); no outputs, since the
    /// explorer observes none.
    rt::InputTrace trace;
};

/// Input-alphabet cap per state: letters beyond it are dropped, and
/// ExploreStats::alphabetTruncated marks the run incomplete.
inline constexpr std::size_t kMaxLettersPerState = 4096;

/// Candidate values for scalar-valued inputs without a per-signal
/// domain: the smallest set that can drive both branches of most
/// predicates.
inline constexpr std::array<std::int64_t, 2> kDefaultScalarDomain = {0, 1};

struct ExplorerOptions {
    int threads = 1; ///< BFS worker threads, at most rt::kMaxThreads.
    /// Maximum instants from boot (exploration depth). States beyond the
    /// bound stay unexpanded and the result is marked incomplete.
    int maxDepth = 1 << 20;
    /// Hard cap on interned states; hitting it marks the result
    /// incomplete (deterministically — interning order is canonical).
    std::uint32_t maxStates = 1u << 20;
    /// Which StateStore implementation holds the reachable set.
    StoreKind storeKind = StoreKind::Exact;
    /// State-store byte budget. Bitstate sizes its bit table from it
    /// (0 = its 4 MiB default); exact runs stop — marked incomplete —
    /// once memoryBytes() exceeds it (0 = unlimited).
    std::uint64_t storeBudgetBytes = 0;
    /// Partial-order reduction over independent pure input letters
    /// (see the header comment for the exact commutation check).
    bool partialOrder = false;
    /// Ask CompiledModule::makeExplorer to hand the explorer the
    /// module's AOT native reaction for design successor computation
    /// (silently falls back to the VM when the backend is unavailable —
    /// check ExploreStats::usedNativeSuccessors).
    bool nativeSuccessors = false;
    /// Candidate values for scalar-valued inputs, keyed by input-signal
    /// name; a signal without an entry uses kDefaultScalarDomain.
    std::map<std::string, std::vector<std::int64_t>> scalarDomains;
};

/// Read-only view of one packed design state (predicate interface).
class StateView {
public:
    StateView(const ModuleSema& sema, const rt::InstanceLayout& layout,
              int controlState, const std::uint8_t* data)
        : sema_(&sema), layout_(&layout), control_(controlState), data_(data)
    {
    }

    [[nodiscard]] int controlState() const { return control_; }

    /// Scalar variable by VarInfo index / by name.
    [[nodiscard]] std::int64_t var(int idx) const
    {
        const VarInfo& v = sema_->vars[static_cast<std::size_t>(idx)];
        return readScalar(
            data_ + layout_->varOffsets[static_cast<std::size_t>(idx)],
            v.type);
    }
    [[nodiscard]] std::int64_t var(const std::string& name) const;

    /// Persistent value slot of a scalar-valued signal; throws EclError
    /// on a pure or aggregate signal.
    [[nodiscard]] std::int64_t signal(int idx) const;

private:
    const ModuleSema* sema_;
    const rt::InstanceLayout* layout_;
    int control_;
    const std::uint8_t* data_;
};

using Predicate = std::function<bool(const StateView&)>;

/// One name-wire between a monitor input and a design signal.
struct MonitorWire {
    int monitorSig = -1;
    int designSig = -1;
    bool valued = false; ///< Value transferred along with presence.
};

/// Resolves every monitor input against the design's signal table by
/// name (any direction — inputs, outputs and locals are observable).
/// Throws EclError on unknown names or value-type size mismatches.
std::vector<MonitorWire> wireMonitor(const ModuleSema& design,
                                     const ModuleSema& monitor);

class Explorer {
public:
    /// `flat`, `sema` and the structures behind `code` must outlive the
    /// explorer (retain() the CompiledModule, or use
    /// CompiledModule::makeExplorer which does). When `native` is
    /// non-null, workers compute design successors with it (bit-exact
    /// with the VM path); run() rejects a module whose shape record does
    /// not match the design tables.
    Explorer(const efsm::FlatProgram& flat,
             std::shared_ptr<const bc::Program> code, const ModuleSema& sema,
             ExplorerOptions options = {},
             std::shared_ptr<const rt::NativeModule> native = nullptr);

    Explorer(const Explorer&) = delete;
    Explorer& operator=(const Explorer&) = delete;

    /// Keeps an owner (typically a CompiledModule) alive.
    void retain(std::shared_ptr<const void> owner)
    {
        owners_.push_back(std::move(owner));
    }

    /// Attaches an observer module: inputs wired by name to design
    /// signals (wireMonitor rules), reacting on every explored instant.
    /// Must be called before run(); only one monitor is supported.
    void attachMonitor(const efsm::FlatProgram& flat,
                       std::shared_ptr<const bc::Program> code,
                       const ModuleSema& sema,
                       std::shared_ptr<const void> owner = nullptr);

    /// Registers a safety predicate over post-reaction design states;
    /// returning true flags the transition as a violation.
    void addPredicate(std::string name, Predicate fn);

    /// Explores the reachable state space. Single-shot: a second call
    /// throws (build a fresh Explorer per run). Frees all but the store
    /// before it returns.
    ExploreResult run();

    [[nodiscard]] const ModuleSema& designSema() const { return sema_; }
    [[nodiscard]] const rt::InstanceLayout& designLayout() const
    {
        return layout_;
    }
    /// Order-sensitive digest over all interned states (determinism
    /// fingerprint for tests; comparable across store kinds). Valid
    /// after run().
    [[nodiscard]] std::uint64_t stateDigest() const;
    /// The interned packed records (reachable-set introspection; tests
    /// cross-check it against brute-force enumeration). Valid after
    /// run().
    [[nodiscard]] const StateStore& stateStore() const;
    [[nodiscard]] std::size_t packedSize() const { return packedSize_; }

private:
    /// One input letter: the present inputs of an instant.
    struct Letter {
        /// (design signal index, domain index) — domain index -1 for
        /// pure signals.
        std::vector<std::pair<std::int32_t, std::int32_t>> sets;
    };
    struct StateAlphabet {
        std::vector<Letter> letters;
        /// Partial-order reduction verdicts, empty when none dropped
        /// (1 = skip the expansion; see computePartialOrder).
        std::vector<std::uint8_t> reduced;
        bool truncated = false;
    };

    /// Per-module execution scratch of one worker (design or monitor).
    struct ModuleCtx {
        std::vector<std::uint8_t> slice;   ///< stride bytes, zeroed.
        std::vector<std::uint8_t> present; ///< One byte per signal.
        rt::Reactor reactor;               ///< Reacts `slice`.

        ModuleCtx(const ModuleSema& sema, const efsm::FlatProgram& flat,
                  const rt::InstanceLayout& layout,
                  std::shared_ptr<const bc::Program> code,
                  std::shared_ptr<const rt::NativeModule> native);
    };

    /// One expanded successor the store does not hold yet, recorded by a
    /// worker for the merge (its record sits in Worker::packed).
    struct Succ {
        std::uint64_t hash = 0; ///< hashBytes() of the successor record.
        std::uint32_t parent = 0;
        std::uint32_t letter = 0;
    };
    // Every merge step streams these: keep them small.
    static_assert(sizeof(Succ) <= 24);

    /// A successor's place in its shard's bucket: the hash travels along
    /// so the dedupe walk reads a record only on a hash match.
    struct Bucketed {
        std::uint64_t hash = 0;
        std::uint32_t index = 0; ///< Into Worker::succs.
    };

    /// The first violating transition of a worker's chunk — the only
    /// one that can be reported: nothing after it in canonical order is
    /// committed, so the worker stores no successor past it.
    struct Hit {
        std::uint32_t parent = 0;
        std::uint32_t letter = 0;
        std::int32_t check = -1; ///< Violation-check index, -1 = trap.
        std::string trapText;    ///< The runtime error's message.
        std::vector<std::uint8_t> state; ///< Packed record (checks only).
    };

    struct Worker {
        ModuleCtx design;
        std::optional<ModuleCtx> monitor;
        /// Record i is succs[i]'s; emptied, not freed, between levels.
        rt::RecordArena packed;
        std::vector<Succ> succs;
        /// The last successor written (the last record of `packed`),
        /// store probe still pending.
        std::optional<Succ> probing;
        /// Per succ: kSeen, kFresh (dedupe), or its committed id.
        std::vector<std::uint32_t> ids;
        std::array<std::vector<Bucketed>, StateStore::kShards> buckets;
        /// Transitions expanded this level, up to the first violation.
        std::uint64_t transitions = 0;
        std::optional<Hit> hit;
        std::uint64_t lettersReduced = 0; ///< POR-skipped expansions.
        bool sawTruncation = false; ///< Expanded a truncated-alphabet state.
        std::exception_ptr fatal;

        Worker(const Explorer& ex);
    };

    /// One shard's first occurrences of the current level: open
    /// addressing on the full hash, records compared on a hash match.
    struct FirstSeen {
        struct Slot {
            std::uint64_t hash = 0;
            const std::uint8_t* rec = nullptr; ///< nullptr = empty.
        };
        std::vector<Slot> slots;
        std::size_t mask = 0;
    };

    /// The pool epoch a level is in; the one pool callback dispatches
    /// on it.
    enum class Phase { Expand, Dedupe, Place };

    struct ParentLink {
        std::uint32_t parent = 0;
        std::uint32_t letter = 0;
    };

    /// Resolved violation check (signal checks first, then predicates).
    struct Check {
        Violation::Kind kind = Violation::Kind::DesignSignal;
        int signal = -1; ///< Signal checks.
        std::size_t predicate = 0; ///< Index into predicates_.
        std::string name;
    };

    /// Presence-only decision-tree simulation result (POR).
    struct SimResult {
        int endState = -1;
        std::vector<std::int32_t> emitted; ///< Signals, walk order.
        std::vector<std::int32_t> chunks;  ///< Executed action chunks.
    };

    void buildAlphabet();
    void resolveChecks();
    void computePartialOrder();
    bool simPure(int state, const std::vector<std::uint8_t>& present,
                 SimResult& out) const;
    [[nodiscard]] bool isCommutativeChunk(std::int32_t chunk) const;
    /// Expands one (state, letter) from the packed record `rec`.
    void expandOne(Worker& w, const std::uint8_t* rec, std::uint32_t id,
                   std::uint32_t letterIdx);
    /// Probes the store with w.probing: drops it when the store holds
    /// it, else keeps it for the merge.
    void settleProbe(Worker& w);
    /// Expands frontier ids [begin, end).
    void expandRange(Worker& w, std::uint32_t begin, std::uint32_t end);
    /// A frontier record: from the exact store's arena, or from the
    /// bitstate level buffer.
    [[nodiscard]] const std::uint8_t* frontierRecord(std::uint32_t id) const;
    ExploreResult runBfs();
    /// Pool epoch work of worker `t` in `phase_`.
    void runPhase(int t);
    /// Dedupe: flags the first occurrence of each record in the shards
    /// worker `t` owns.
    void dedupeShards(std::size_t t);
    /// Commit, in canonical order; true when a violation stops
    /// exploration.
    bool commitLevel(ExploreResult& out);
    /// Place: worker `t`'s committed records, then its shards' index
    /// entries.
    void placeRecords(std::size_t t);
    void placeIndex(std::size_t t);
    void recordViolation(const Hit& hit, ExploreResult& out);
    /// The inputs from the root up to (parent, letterIdx), as a trace.
    rt::InputTrace buildTrace(std::uint32_t parent,
                              std::uint32_t letterIdx) const;

    const efsm::FlatProgram& flat_;
    std::shared_ptr<const bc::Program> code_;
    const ModuleSema& sema_;
    rt::InstanceLayout layout_;
    ExplorerOptions options_;
    std::vector<std::shared_ptr<const void>> owners_;

    // Monitor (optional).
    const efsm::FlatProgram* monFlat_ = nullptr;
    std::shared_ptr<const bc::Program> monCode_;
    const ModuleSema* monSema_ = nullptr;
    rt::InstanceLayout monLayout_;
    std::vector<MonitorWire> wires_;

    /// Design successors' AOT module (optional).
    std::shared_ptr<const rt::NativeModule> native_;

    // Packed-record geometry.
    std::size_t headerBytes_ = 4;
    std::size_t packedSize_ = 0;

    // Canonical per-design-state input alphabet.
    std::vector<std::vector<Value>> domains_; ///< Per design signal index.
    std::vector<StateAlphabet> alphabet_;     ///< Per design flat state.

    // Violation checks.
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, Predicate>> predicates_;

    // Exploration state. The frontier of an exact run is read from
    // exact_'s arena; a bitstate run, whose store keeps no records,
    // places each level into levelRecs_ (id i at index i - levelBase_).
    // designStates_ carries each id's design control state for trace
    // reconstruction, which must not read the store either. Only run()
    // reads these besides store_ and exact_, and it frees them.
    std::unique_ptr<StateStore> store_;
    ExactStore* exact_ = nullptr; ///< store_, when exact.
    std::optional<rt::RecordArena> levelRecs_; ///< Bitstate runs only.
    std::uint32_t levelBase_ = 0;
    std::vector<std::int32_t> designStates_; ///< Per interned id.
    std::vector<ParentLink> parents_; ///< Per interned id.
    bool ran_ = false;

    // BFS worker pool: one rt::WorkerPool epoch per level and phase —
    // expansion over contiguous frontier chunks, then the dedupe and
    // place epochs over hash shards (shard s belongs to worker s mod T).
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges_;
    std::array<FirstSeen, StateStore::kShards> firstSeen_;
    Phase phase_ = Phase::Expand;
};

} // namespace ecl::verify
