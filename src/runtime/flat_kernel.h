// The one reaction kernel over a compiled module's flat tables.
//
// Every executor of an efsm::FlatProgram + bc::Program reacts through one
// rt::Reactor per worker and module, so a reaction means the same thing
// wherever it runs:
//  * the single engine (rt::ArenaEngine, engine.h) holds one reactor for
//    its one instance;
//  * BatchEngine keeps N instances side by side in one arena and reacts
//    them through one reactor per worker, each reaction on its
//    instance's slice;
//  * verify::Explorer computes design and monitor successors through one
//    reactor per worker and module.
// Instance state is always the computeInstanceLayout arena slice, one
// presence byte per signal and an i32 control state, so the packed
// record [i32 control state][dataBytes] is a plain copy everywhere. The
// VM addresses that slice by the layout's offsets, exactly like the
// AOT-compiled C, so no instance needs binding before it reacts.
//
// A reactor runs the module's bc::Vm or its AOT-compiled function,
// chosen once when the reactor is built, and either backend reports a
// reaction the same way: an rt::Outcome (next state, termination and
// counts) plus the outputs it emitted, in emission order, on the
// reactor's output ring. reactFlat is the VM's decision-tree walk and
// does exactly what the generated C's ecl_walk does; reactNative is the
// one call into AOT-compiled code.
// The kernel owns the runaway guard: every reaction starts a fresh budget
// (reactFlat's bc::Vm::resetCounters, reactNative's kNativeReactFuel), so
// no caller scopes one and a long-lived engine never runs out.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/interp/vm.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/native_abi.h"
#include "src/sema/sema.h"

namespace ecl::rt {

struct ReactionResult {
    std::vector<int> emittedOutputs; ///< Output-signal indices, in order.
    bool terminated = false;
    std::uint64_t treeTests = 0;  ///< Decision nodes walked (EFSM) or IR
                                  ///< nodes visited (baseline).
    std::uint64_t actionsRun = 0;
    std::uint64_t emitsRun = 0;   ///< All emissions (incl. local signals).
    ExecCounters dataCounters;    ///< From the data evaluator.
};

/// Signal-index check shared by every engine's signal API (one error text).
const SignalInfo& checkedSignal(const ModuleSema& sema, int sigIndex);
/// checkedSignal, plus "must be an input signal".
const SignalInfo& checkedInput(const ModuleSema& sema, int sigIndex);
/// checkedInput, plus "must be scalar-valued": the setInputScalar check
/// every engine shares (a pure signal takes setInput(), an aggregate one
/// setInputValue()).
const SignalInfo& checkedScalarInput(const ModuleSema& sema, int sigIndex);

/// How one signal is staged as an input (four bytes, so a lookup is a
/// shift and one register).
struct alignas(4) InputSlot {
    bool input = false;     ///< An input signal of the module.
    bool boolean = false;   ///< Scalar-valued of type bool (stores 0/1).
    std::uint8_t width = 0; ///< Scalar value bytes; 0 = pure or aggregate.
};

/// One InputSlot per signal of a module, built once per compile
/// (CompiledModule::inputTable()): the batch engine stages inputs through
/// it and the fleet validates submits against it. Only the accept path
/// reads it; the checked* functions above give every error text.
class InputTable {
public:
    explicit InputTable(const ModuleSema& sema);
    /// The signal's slot; not an input when out of range.
    [[nodiscard]] InputSlot operator[](int sigIndex) const
    {
        const auto i = static_cast<std::size_t>(sigIndex);
        return i < slots_.size() ? slots_[i] : InputSlot{};
    }

private:
    std::vector<InputSlot> slots_;
};

/// Stores `v` into a scalar slot: writeScalar's truncating little-endian
/// rule (bool as 0/1), without its type lookups.
inline void storeScalar(std::uint8_t* p, InputSlot slot, std::int64_t v)
{
    if (slot.boolean) {
        p[0] = v != 0 ? 1 : 0;
        return;
    }
    const auto raw = static_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < slot.width; ++i)
        p[i] = static_cast<std::uint8_t>(raw >> (8 * i));
}

/// Writes a boxed value into a valued signal's slot (staged inputs,
/// explorer letters) under bc::writeSignalSlot's rules, the ones valued
/// emissions follow. Presence is the caller's business.
void writeSignalValue(std::uint8_t* slice, const InstanceLayout& layout,
                      const SignalInfo& info, const Value& v);
/// Materialized (owning) copy of a valued signal's slot.
Value readSignalValue(const std::uint8_t* slice, const InstanceLayout& layout,
                      const SignalInfo& info);

/// Packed state record [i32 control state][dataBytes of `data`].
std::vector<std::uint8_t> packRecord(std::int32_t state,
                                     const std::uint8_t* data,
                                     std::size_t dataBytes);

/// What a completed reaction reports, whichever backend ran it: the
/// generated code's out-fields of its context (native_abi.h).
struct Outcome {
    int state = 0; ///< Next control state.
    bool terminated = false;
    std::uint64_t treeTests = 0;
    std::uint64_t actionsRun = 0;
    std::uint64_t emitsRun = 0;   ///< All emissions (incl. local signals).
    std::int32_t emitted = 0; ///< Outputs at the front of the ring.
};

/// The VM's decision-tree walk: reacts the instance whose variables and
/// signal values live in `slice` (a slice of the layout `vm` was made
/// for) and whose current-instant presence is `present`, from control
/// state `state`. Every emission marks its signal present — locals
/// included — so presence-based observers (monitor wiring, violation
/// checks) see the whole instant; each emitted output also goes onto
/// `ring` (flat.outputRingSlots() slots), in emission order. Throws
/// EclError on a runtime trap, leaving data written so far in place.
Outcome reactFlat(const efsm::FlatProgram& flat, bc::Vm& vm,
                  std::uint8_t* slice, std::uint8_t* present,
                  std::int32_t* ring, int state);

/// Backward-branch budget a fresh native reaction starts from — the
/// analogue of bc::Vm's op budget (see c_gen.h on the approximation).
inline constexpr std::int64_t kNativeReactFuel = 500'000'000;

/// The one call into an AOT-compiled reaction (native_abi.h): runs `fn`
/// directly on the arena slice and presence row, from a fresh
/// kNativeReactFuel. The generated code marks every emission present,
/// locals included, and pushes each emitted output onto `ring`, like
/// reactFlat, and its trap text is raised as EclError, exactly like the
/// VM's.
inline Outcome reactNative(EclNativeReactFn fn, std::uint8_t* slice,
                           std::uint8_t* present, std::int32_t* ring,
                           int state)
{
    EclNativeCtx ctx{};
    ctx.data = slice;
    ctx.present = present;
    ctx.emitted = ring;
    ctx.state = state;
    ctx.depth = 1; // Module chunks run at the VM's depth 1.
    ctx.fuel = kNativeReactFuel;
    const int rc = fn(&ctx);
    if (rc != 0)
        throw EclError(ctx.error ? ctx.error
                                 : "native reaction failed without a message");
    return {ctx.state,          ctx.terminated != 0, ctx.tree_tests,
            ctx.actions_run,    ctx.emits_run,       ctx.emitted_count};
}

class NativeModule;

/// One worker's executor of one module's flat tables: the module's
/// bc::Vm, or its AOT-compiled function, chosen once at construction,
/// and the output ring both report into. Every driver reacts through
/// one reactor per worker and module. Like the Vm, a reactor is
/// single-threaded; the tables, bytecode and native module it reads are
/// shared read-only.
class Reactor {
public:
    /// Runs `native` when it is non-null — after checking its shape
    /// against `sema`, `flat` and `layout` (validateNativeShape) — and
    /// otherwise a bc::Vm over `code`, the bytecode `flat` references.
    /// `sema` and `flat` must outlive the reactor.
    Reactor(const ModuleSema& sema, const efsm::FlatProgram& flat,
            const InstanceLayout& layout,
            std::shared_ptr<const bc::Program> code,
            std::shared_ptr<const NativeModule> native);

    /// Reacts the instance in `slice` and `present` from control state
    /// `state` (reactFlat's contract, on either backend).
    Outcome react(std::uint8_t* slice, std::uint8_t* present, int state)
    {
        return fn_ ? reactNative(fn_, slice, present, ring_.data(), state)
                   : reactFlat(flat_, *vm_, slice, present, ring_.data(),
                               state);
    }
    /// The outputs the last completed reaction emitted: its
    /// Outcome::emitted signal indices, in emission order.
    [[nodiscard]] const std::int32_t* ring() const { return ring_.data(); }
    /// The VM's data counters of the last reaction; null on the native
    /// backend, which counts none.
    [[nodiscard]] const ExecCounters* dataCounters() const
    {
        return vm_ ? &vm_->counters() : nullptr;
    }
    /// "native" or "flat", the names the engines report.
    [[nodiscard]] const char* backendName() const
    {
        return fn_ ? "native" : "flat";
    }

private:
    const efsm::FlatProgram& flat_;
    std::shared_ptr<const NativeModule> native_; ///< Keeps fn_ loaded.
    EclNativeReactFn fn_ = nullptr;
    std::optional<bc::Vm> vm_;
    std::vector<std::int32_t> ring_;
};

} // namespace ecl::rt
