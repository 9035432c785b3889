#include "src/runtime/flat_kernel.h"

#include <cstring>
#include <string>

#include "src/runtime/native_module.h"

namespace ecl::rt {

const SignalInfo& checkedSignal(const ModuleSema& sema, int sigIndex)
{
    if (sigIndex < 0 ||
        static_cast<std::size_t>(sigIndex) >= sema.signals.size())
        throw EclError("signal index " + std::to_string(sigIndex) +
                       " out of range");
    return sema.signals[static_cast<std::size_t>(sigIndex)];
}

const SignalInfo& checkedInput(const ModuleSema& sema, int sigIndex)
{
    const SignalInfo& s = checkedSignal(sema, sigIndex);
    if (s.dir != SignalDir::Input)
        throw EclError("'" + s.name + "' is not an input signal");
    return s;
}

const SignalInfo& checkedScalarInput(const ModuleSema& sema, int sigIndex)
{
    const SignalInfo& s = checkedInput(sema, sigIndex);
    if (s.pure) throw EclError("'" + s.name + "' is pure; use setInput()");
    if (!s.valueType->isScalar())
        throw EclError("'" + s.name +
                       "' is not scalar-valued; use setInputValue()");
    return s;
}

InputTable::InputTable(const ModuleSema& sema) : slots_(sema.signals.size())
{
    for (const SignalInfo& s : sema.signals) {
        if (s.dir != SignalDir::Input) continue;
        InputSlot& slot = slots_[static_cast<std::size_t>(s.index)];
        slot.input = true;
        if (s.pure || !s.valueType->isScalar()) continue;
        slot.boolean = s.valueType->isBool();
        slot.width = static_cast<std::uint8_t>(s.valueType->size());
    }
}

void writeSignalValue(std::uint8_t* slice, const InstanceLayout& layout,
                      const SignalInfo& info, const Value& v)
{
    const bool scalar = v.type() && v.type()->isScalar();
    bc::writeSignalSlot(
        slice + layout.sigOffsets[static_cast<std::size_t>(info.index)], info,
        v.type(), scalar ? v.toInt() : 0, v.data());
}

Value readSignalValue(const std::uint8_t* slice, const InstanceLayout& layout,
                      const SignalInfo& info)
{
    if (info.pure)
        throw EclError("value read on pure signal '" + info.name + "'");
    return Value::fromBytes(
        info.valueType,
        slice + layout.sigOffsets[static_cast<std::size_t>(info.index)]);
}

std::vector<std::uint8_t> packRecord(std::int32_t state,
                                     const std::uint8_t* data,
                                     std::size_t dataBytes)
{
    std::vector<std::uint8_t> out(4 + dataBytes, 0);
    std::memcpy(out.data(), &state, 4);
    std::memcpy(out.data() + 4, data, dataBytes);
    return out;
}

Outcome reactFlat(const efsm::FlatProgram& flat, bc::Vm& vm,
                  std::uint8_t* slice, std::uint8_t* present,
                  std::int32_t* ring, int state)
{
    vm.resetCounters();
    Outcome out;
    const efsm::FlatNode* nodes = flat.nodes.data();
    const efsm::FlatAction* actions = flat.actions.data();
    auto runActions = [&](const efsm::FlatNode& node) {
        for (std::int32_t i = node.actionsBegin; i < node.actionsEnd; ++i) {
            const efsm::FlatAction& a = actions[i];
            ++out.actionsRun;
            if (a.kind == efsm::FlatAction::Kind::Emit) {
                if (a.chunk >= 0) vm.runEmit(a.chunk, slice, a.signal);
                present[a.signal] = 1;
                ++out.emitsRun;
                if (a.isOutput) ring[out.emitted++] = a.signal;
            } else if (a.chunk >= 0) {
                vm.runAction(a.chunk, slice);
            }
        }
    };

    const efsm::FlatNode* node =
        &nodes[flat.states[static_cast<std::size_t>(state)].root];
    while (!node->isLeaf()) {
        runActions(*node);
        ++out.treeTests;
        const bool taken =
            node->testSignal >= 0
                ? present[node->testSignal] != 0
                : vm.runPredicate(node->predChunk, slice);
        node = &nodes[taken ? node->onTrue : node->onFalse];
    }
    if (node->runtimeError())
        throw EclError("instantaneous loop detected at runtime (a "
                       "statically-unverifiable loop path was reached)");
    runActions(*node);
    out.state = node->nextState;
    out.terminated =
        node->terminates() ||
        flat.states[static_cast<std::size_t>(node->nextState)].dead;
    return out;
}

Reactor::Reactor(const ModuleSema& sema, const efsm::FlatProgram& flat,
                 const InstanceLayout& layout,
                 std::shared_ptr<const bc::Program> code,
                 std::shared_ptr<const NativeModule> native)
    : flat_(flat), native_(std::move(native)),
      ring_(flat.outputRingSlots(), 0)
{
    if (native_) {
        // A module generated from other tables must not run over these
        // arenas, nor overrun a ring sized from them.
        validateNativeShape(native_->info(), sema, flat, layout);
        fn_ = native_->react();
        return;
    }
    if (!code)
        throw EclError("module '" + sema.name +
                       "' has no compiled bytecode program");
    vm_.emplace(std::move(code), sema, layout.varOffsets, layout.sigOffsets);
}

} // namespace ecl::rt
