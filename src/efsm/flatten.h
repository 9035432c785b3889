// Flattening pass: Efsm decision trees -> dense executable tables.
//
// buildEfsm produces per-state binary decision trees as unique_ptr-linked
// TransNode chains: correct, but the runtime pays a pointer chase per test
// and a vector<Action> indirection per edge. FlatProgram re-lays the whole
// machine into three contiguous arrays — states, nodes (integer
// successors) and actions — with PauseSet configurations interned into a
// side pool. flatten() emits one tree per state, pre-order; from -O1 on,
// remapStates() stores each distinct decision subtree once, so the node
// array is a DAG that every walker follows exactly like a tree. The
// engine hot paths then walk integer indices through cache-resident rows
// — one instance at a time in SyncEngine, N instances over the same
// shared tables in the batch runtime (src/runtime/batch_engine.h), which
// reads FlatProgram strictly read-only and so shares one copy across
// every instance and worker thread. Data work (predicates, actions, emit
// values) is referenced by bytecode chunk ids filled in by the driver
// (src/core/compiler.cpp) after compilation with bc::ProgramBuilder; this
// keeps src/efsm independent of src/interp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/efsm/efsm.h"

namespace ecl::efsm {

struct FlatAction {
    enum class Kind : std::uint8_t { Data, Emit };
    Kind kind = Kind::Data;
    bool isOutput = false;   ///< Emit of an output signal (precomputed).
    std::int32_t signal = -1;
    std::int32_t dataActionId = -1;
    /// Emit value or data action payload; consumed by the linker to
    /// compile `chunk`, then unused at runtime.
    const ast::Expr* valueExpr = nullptr;
    /// Bytecode chunk id (-1 = none: pure emit, or an empty data action).
    std::int32_t chunk = -1;
};

struct FlatNode {
    static constexpr std::uint8_t kLeaf = 1;
    static constexpr std::uint8_t kTerminates = 2;
    static constexpr std::uint8_t kRuntimeError = 4;

    std::int32_t actionsBegin = 0; ///< Prefix actions [begin, end).
    std::int32_t actionsEnd = 0;
    std::int32_t testSignal = -1;  ///< >= 0: input presence test.
    std::int32_t predChunk = -1;   ///< Data predicate bytecode (else -1).
    const ast::Expr* dataCond = nullptr; ///< Consumed by the linker.
    std::int32_t onTrue = -1;      ///< Node indices (test nodes).
    std::int32_t onFalse = -1;
    std::int32_t nextState = -1;   ///< Leaves.
    std::uint8_t flags = 0;

    [[nodiscard]] bool isLeaf() const { return flags & kLeaf; }
    [[nodiscard]] bool terminates() const { return flags & kTerminates; }
    [[nodiscard]] bool runtimeError() const { return flags & kRuntimeError; }
};

struct FlatState {
    std::int32_t root = -1;   ///< Root node index of the decision tree.
    std::int32_t config = -1; ///< Index into FlatProgram::configs.
    bool dead = false;
    bool autoResume = false;
};

/// The whole machine in dense arrays. State ids equal the source Efsm's
/// as flattened; the post-flatten minimizer (src/opt) may renumber them
/// through remapStates(), so flat-mode engines read initial state and
/// per-state attributes from these tables, never from the Efsm.
struct FlatProgram {
    std::vector<FlatState> states;
    std::vector<FlatNode> nodes;
    std::vector<FlatAction> actions;
    std::vector<PauseSet> configs; ///< Interned; states reference by index.
    int initialState = 0;
    int deadState = -1;

    /// Index into `configs` of a state's interned pause-set configuration
    /// (every state id maps to exactly one interned config; -1 only for
    /// malformed programs). The verification layer uses these to label
    /// explored states with their control configuration.
    [[nodiscard]] std::int32_t configIndexOf(int state) const
    {
        return states[static_cast<std::size_t>(state)].config;
    }

    /// The interned pause-set configuration a state id stands for.
    [[nodiscard]] const PauseSet& configOf(int state) const
    {
        return configs[static_cast<std::size_t>(configIndexOf(state))];
    }

    /// Slots a reaction's output ring needs, the generated C's max_emits:
    /// one per output emit row (a walk runs each row at most once, as
    /// every node row owns its action range), and at least one.
    [[nodiscard]] std::uint32_t outputRingSlots() const;

    /// Renumbers the machine in place: old state id s becomes old2new[s]
    /// (-1 = state dropped; must not be the initial state). Several old
    /// ids may map to one new id — the lowest old id supplies the
    /// surviving row (the remap hook the post-flatten state minimizer in
    /// src/opt drives; after this, state ids no longer equal the source
    /// Efsm's). The surviving decision trees are copied one SubtreeClasses
    /// class at a time, keyed through old2new: each distinct subtree is
    /// stored once, at its first occurrence in a pre-order walk of the
    /// surviving states in new-id order, so the numbering depends only on
    /// the input tables. Leaf successors, initialState and deadState are
    /// rewritten; nodes and actions of dropped rows are compacted away;
    /// and the config pool is re-interned over the surviving states, so
    /// configs that became identical (or unreferenced) after the remap
    /// are deduplicated. New ids must be dense: every id in
    /// [0, max(old2new)+1) must be hit. Returns the node rows sharing
    /// saved: rows of the surviving trees beyond their distinct subtrees.
    std::size_t remapStates(const std::vector<std::int32_t>& old2new);
};

/// "The same decision subtree", as one class id per node row. Two rows
/// share a class when their flags, their action lists (kind, isOutput,
/// signal and chunk of each action), their test signal and predicate
/// chunk are equal, their children share classes, and their leaf
/// successors map to the same id through `stateMap` (a negative
/// successor keys as -1). The linker-only fields (dataCond, valueExpr,
/// dataActionId) are not compared: nothing reads them after linking.
/// Rows of one class run identical reactions. A test node whose two
/// children share a class stays a test node: its predicate still runs,
/// and so still traps. `flat` and `stateMap` must outlive the object.
class SubtreeClasses {
public:
    SubtreeClasses(const FlatProgram& flat,
                   const std::vector<std::int32_t>& stateMap);

    /// Class of the subtree rooted at node row `node`; ids are dense, in
    /// order of first classification.
    std::int32_t of(std::int32_t node);
    [[nodiscard]] std::size_t classCount() const { return index_.size(); }
    /// Distinct node rows classified so far.
    [[nodiscard]] std::size_t rowsClassified() const { return rows_; }

private:
    struct KeyHash {
        std::size_t operator()(const std::vector<std::int32_t>& key) const;
    };

    const FlatProgram& flat_;
    const std::vector<std::int32_t>& stateMap_;
    std::vector<std::int32_t> classOf_; ///< Per node row; -1 = not yet.
    std::unordered_map<std::vector<std::int32_t>, std::int32_t, KeyHash>
        index_;
    std::vector<std::int32_t> key_; ///< Scratch key of the row in hand.
    std::size_t rows_ = 0;
};

/// Flattens a built Efsm, one pre-order tree per state. The Efsm's sema
/// and referenced AST must outlive the result. Throws EclError on
/// malformed trees (missing roots/children).
FlatProgram flatten(const Efsm& machine);

} // namespace ecl::efsm
