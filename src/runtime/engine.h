// Single-instance reactive engines, one class per execution model.
//
// ArenaEngine is one module instance on the shared arena layout
// (src/runtime/instance_layout.h), reacted through one rt::Reactor
// (src/runtime/flat_kernel.h): the kernel, layout and packed state that
// BatchEngine and the verifier use too. It implements the state, input
// staging, presence snapshot, output reads, packed state and react()
// once, whichever backend its reactor runs; its two constructors pick
// the backend, and its two names say which:
//  * SyncEngine executes the compiled EFSM — one decision-tree walk per
//    instant, the paper's fast path ("the Esterel compiler does case
//    analysis much better than a human designer") — over the flat tables
//    and data bytecode with a bc::Vm; backendName() is "flat".
//  * NativeEngine (native_module.h) calls the AOT-compiled C; "native".
//
// BoxedEngine is one module instance in boxed values (a SignalEnv, a
// Store and the tree-walking Evaluator), the base of the two interpretive
// oracles:
//  * TreeWalkEngine walks the Efsm's unique_ptr decision trees; "tree".
//    Its outputs, packed states and ExecCounters equal SyncEngine's (it is
//    the flat path's differential-testing oracle).
//  * RcEngine is the Reactive-C-style baseline of the related-work
//    section: it re-walks the whole reactive program every instant,
//    keeping an explicit set of active pause points; "rc". Semantically
//    equivalent, with RC's interpretive overhead per reaction.
//
// CompiledModule::makeEngine() builds the first three and
// makeBaselineEngine() the last; callers hold them as ReactiveEngine.
// Every reaction gets a fresh runaway budget (the kernel's, or the
// Evaluator's resetCounters()), so a long-lived engine never runs out.
//
// Input/output APIs come in two flavors: index-based (the fast path —
// signal indices from ModuleSema, no hash lookups; used by the RTOS
// simulator and benches) and string-based convenience wrappers that
// resolve the name once and delegate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/efsm/efsm.h"
#include "src/efsm/flatten.h"
#include "src/interp/eval.h"
#include "src/ir/ir.h"
#include "src/runtime/flat_kernel.h"
#include "src/runtime/signal_env.h"
#include "src/sema/sema.h"

namespace ecl::rt {

using FunctionSemaMap = std::unordered_map<std::string, FunctionSema>;

/// Common interface so tests and benches can drive every engine uniformly.
class ReactiveEngine {
public:
    virtual ~ReactiveEngine() = default;

    /// Keeps an owner (typically the CompiledModule) alive for the
    /// engine's lifetime — engines hold references into compiled
    /// structures.
    void retain(std::shared_ptr<const void> owner) { owner_ = std::move(owner); }

    // --- index-based fast path (indices are SignalInfo::index) ---
    virtual void setInput(int sigIndex) = 0;
    virtual void setInputScalar(int sigIndex, std::int64_t v) = 0;
    virtual void setInputValue(int sigIndex, Value v) = 0;
    virtual ReactionResult react() = 0;
    /// Presence of any signal in the last reaction (observability API —
    /// internal signals included, not only outputs).
    [[nodiscard]] virtual bool outputPresent(int sigIndex) const = 0;
    [[nodiscard]] virtual Value outputValue(int sigIndex) const = 0;

    [[nodiscard]] virtual bool terminated() const = 0;
    /// True when the engine must react next instant even with no inputs
    /// (an await() delta pause is pending).
    [[nodiscard]] virtual bool needsAutoResume() const = 0;
    /// Signal table of the module this engine runs (name resolution).
    [[nodiscard]] virtual const ModuleSema& moduleSema() const = 0;

    /// Short stable name of the execution backend: "flat", "tree", "rc"
    /// or "native". Lets callers of makeEngine(EngineKind::Native) tell a
    /// real native engine from a VM fallback.
    [[nodiscard]] virtual const char* backendName() const = 0;
    /// Packed snapshot [i32 control state][instance-layout data bytes] —
    /// the shared verification/batch state record, byte-comparable across
    /// backends of the same compile. Throws EclError when the engine
    /// cannot snapshot (the default).
    [[nodiscard]] virtual std::vector<std::uint8_t> packState() const;

    // --- string convenience wrappers (resolve the name, then delegate) ---
    void setInput(const std::string& name);
    void setInputScalar(const std::string& name, std::int64_t v);
    void setInputValue(const std::string& name, Value v);
    [[nodiscard]] bool outputPresent(const std::string& name) const;
    [[nodiscard]] Value outputValue(const std::string& name) const;

    /// Index of any signal by name; throws EclError when unknown.
    [[nodiscard]] int signalIndex(const std::string& name) const;
    /// Index of an input signal by name; throws when unknown or not input.
    [[nodiscard]] int inputIndex(const std::string& name) const;

private:
    std::shared_ptr<const void> owner_;
};

/// One module instance on the shared arena layout, reacted through one
/// Reactor: the ReactiveEngine contract, error texts included, for both
/// arena backends.
class ArenaEngine final : public ReactiveEngine {
public:
    /// The VM backend ("flat"): `flat` and `code` are the
    /// CompiledModule's flattened tables and the bytecode they reference.
    ArenaEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                std::shared_ptr<const bc::Program> code);
    /// The AOT backend ("native"): `flat` must be the tables `native` was
    /// generated from; the reactor validates the module's shape record
    /// against them and the instance layout.
    ArenaEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                std::shared_ptr<const NativeModule> native);

    using ReactiveEngine::outputPresent;
    using ReactiveEngine::outputValue;
    using ReactiveEngine::setInput;
    using ReactiveEngine::setInputScalar;
    using ReactiveEngine::setInputValue;

    void setInput(int sigIndex) override;
    void setInputScalar(int sigIndex, std::int64_t v) override;
    void setInputValue(int sigIndex, Value v) override;
    ReactionResult react() override;

    [[nodiscard]] bool outputPresent(int sigIndex) const override;
    [[nodiscard]] Value outputValue(int sigIndex) const override;
    [[nodiscard]] bool terminated() const override
    {
        return flat_.states[static_cast<std::size_t>(state_)].dead;
    }
    [[nodiscard]] bool needsAutoResume() const override
    {
        return flat_.states[static_cast<std::size_t>(state_)].autoResume;
    }
    [[nodiscard]] const ModuleSema& moduleSema() const override
    {
        return sema_;
    }
    [[nodiscard]] const char* backendName() const override
    {
        return reactor_.backendName();
    }
    [[nodiscard]] std::vector<std::uint8_t> packState() const override
    {
        return packRecord(state_, data_.data(), layout_.dataBytes);
    }

private:
    ArenaEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                std::shared_ptr<const bc::Program> code,
                std::shared_ptr<const NativeModule> native);

    void openInstant();

    const ModuleSema& sema_;
    const efsm::FlatProgram& flat_;
    InstanceLayout layout_;
    std::vector<std::uint8_t> data_;        ///< max(dataBytes, 1) bytes.
    std::vector<std::uint8_t> present_;     ///< Current instant.
    std::vector<std::uint8_t> lastPresent_; ///< After the last reaction.
    std::int32_t state_;                    ///< FlatProgram control state.
    bool instantOpen_ = false;              ///< Inputs staged this instant.
    Reactor reactor_;
};

/// The VM-backed ArenaEngine's name.
using SyncEngine = ArenaEngine;

/// One module instance in boxed values: the SignalEnv, Store and
/// Evaluator the interpretive oracles run on, with their input staging,
/// output reads and emit/data-action steps. Inputs land in the open
/// instant; endReaction() snapshots presence and clears it for the next.
class BoxedEngine : public ReactiveEngine {
public:
    /// The Evaluator points into the engine's own state.
    BoxedEngine(const BoxedEngine&) = delete;
    BoxedEngine& operator=(const BoxedEngine&) = delete;

    using ReactiveEngine::outputPresent;
    using ReactiveEngine::outputValue;
    using ReactiveEngine::setInput;
    using ReactiveEngine::setInputScalar;
    using ReactiveEngine::setInputValue;

    void setInput(int sigIndex) override;
    void setInputScalar(int sigIndex, std::int64_t v) override;
    void setInputValue(int sigIndex, Value v) override;

    [[nodiscard]] bool outputPresent(int sigIndex) const override;
    [[nodiscard]] Value outputValue(int sigIndex) const override;
    [[nodiscard]] const ModuleSema& moduleSema() const override
    {
        return sema_;
    }

protected:
    BoxedEngine(const ModuleSema& sema, const ProgramSema& program,
                const FunctionSemaMap& functions);

    /// Opens a reaction: zeroes the data counters and the op budget.
    void beginReaction() { eval_.resetCounters(); }
    /// Closes it: reports the data counters, snapshots presence for
    /// outputPresent() and clears it for the next instant.
    void endReaction(ReactionResult& result);
    /// Emits `signal`, valued when `valueExpr` is given.
    void emit(int signal, const ast::Expr* valueExpr, ReactionResult& result);
    void runDataAction(const ir::DataAction& action);

    const ModuleSema& sema_;
    SignalEnv env_;
    Store store_;
    Evaluator eval_;

private:
    std::vector<bool> lastPresent_;
};

class TreeWalkEngine final : public BoxedEngine {
public:
    TreeWalkEngine(const efsm::Efsm& machine, const ModuleSema& sema,
                   const ProgramSema& program,
                   const FunctionSemaMap& functions);

    ReactionResult react() override;

    [[nodiscard]] bool terminated() const override;
    [[nodiscard]] bool needsAutoResume() const override;
    [[nodiscard]] const char* backendName() const override { return "tree"; }
    /// Encodes the boxed values into the shared layout, so the record is
    /// byte-comparable with SyncEngine's.
    [[nodiscard]] std::vector<std::uint8_t> packState() const override;

private:
    void runActions(const std::vector<efsm::Action>& actions,
                    ReactionResult& result);

    const efsm::Efsm& machine_;
    int state_; ///< An Efsm id (flat ids may be renumbered).
};

class RcEngine final : public BoxedEngine {
public:
    RcEngine(const ir::ReactiveProgram& program, const ModuleSema& sema,
             const ProgramSema& programSema, const FunctionSemaMap& functions);

    ReactionResult react() override;

    [[nodiscard]] bool terminated() const override;
    [[nodiscard]] bool needsAutoResume() const override;
    [[nodiscard]] const char* backendName() const override { return "rc"; }

private:
    enum class Comp { Term, Pause, Exit };
    struct WalkResult {
        Comp comp = Comp::Term;
        int trapId = -1;
        int trapDepth = 0;
        PauseSet pauses;
    };
    enum class Mode { Start, Resume };

    WalkResult walk(const ir::Node& n, Mode mode, ReactionResult& result);
    bool guardValue(const ir::SigGuard& g);

    const ir::ReactiveProgram& prog_;
    PauseSet config_;
    bool started_ = false;
    bool dead_ = false;
};

} // namespace ecl::rt
