#include "src/runtime/engine.h"

#include <algorithm>
#include <cstring>

namespace ecl::rt {

// ---------------------------------------------------------------------------
// ReactiveEngine: name resolution + string wrappers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ReactiveEngine::packState() const
{
    throw EclError(std::string("engine backend '") + backendName() +
                   "' does not support packed state snapshots");
}

int ReactiveEngine::signalIndex(const std::string& name) const
{
    const SignalInfo* s = moduleSema().findSignal(name);
    if (!s) throw EclError("no signal named '" + name + "'");
    return s->index;
}

int ReactiveEngine::inputIndex(const std::string& name) const
{
    const SignalInfo* s = moduleSema().findSignal(name);
    if (!s) throw EclError("no signal named '" + name + "'");
    if (s->dir != SignalDir::Input)
        throw EclError("'" + name + "' is not an input signal");
    return s->index;
}

void ReactiveEngine::setInput(const std::string& name)
{
    setInput(inputIndex(name));
}

void ReactiveEngine::setInputScalar(const std::string& name, std::int64_t v)
{
    setInputScalar(inputIndex(name), v);
}

void ReactiveEngine::setInputValue(const std::string& name, Value v)
{
    setInputValue(inputIndex(name), std::move(v));
}

bool ReactiveEngine::outputPresent(const std::string& name) const
{
    return outputPresent(signalIndex(name));
}

Value ReactiveEngine::outputValue(const std::string& name) const
{
    return outputValue(signalIndex(name));
}

// ---------------------------------------------------------------------------
// ArenaEngine
// ---------------------------------------------------------------------------

ArenaEngine::ArenaEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                         std::shared_ptr<const bc::Program> code)
    : ArenaEngine(sema, flat, std::move(code), nullptr)
{
}

ArenaEngine::ArenaEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                         std::shared_ptr<const NativeModule> native)
    : ArenaEngine(sema, flat, nullptr, std::move(native))
{
}

ArenaEngine::ArenaEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                         std::shared_ptr<const bc::Program> code,
                         std::shared_ptr<const NativeModule> native)
    : sema_(sema), flat_(flat), layout_(computeInstanceLayout(sema)),
      data_(std::max<std::size_t>(layout_.dataBytes, 1), 0),
      present_(sema.signals.size(), 0), lastPresent_(sema.signals.size(), 0),
      state_(flat.initialState),
      reactor_(sema, flat, layout_, std::move(code), std::move(native))
{
}

void ArenaEngine::openInstant()
{
    if (instantOpen_) return;
    std::fill(present_.begin(), present_.end(), 0);
    instantOpen_ = true;
}

void ArenaEngine::setInput(int sigIndex)
{
    checkedInput(sema_, sigIndex);
    openInstant();
    present_[static_cast<std::size_t>(sigIndex)] = 1;
}

void ArenaEngine::setInputScalar(int sigIndex, std::int64_t v)
{
    const SignalInfo& info = checkedScalarInput(sema_, sigIndex);
    openInstant();
    writeScalar(data_.data() +
                    layout_.sigOffsets[static_cast<std::size_t>(sigIndex)],
                info.valueType, v);
    present_[static_cast<std::size_t>(sigIndex)] = 1;
}

void ArenaEngine::setInputValue(int sigIndex, Value v)
{
    const SignalInfo& info = checkedInput(sema_, sigIndex);
    writeSignalValue(data_.data(), layout_, info, v); // validates
    openInstant();
    present_[static_cast<std::size_t>(sigIndex)] = 1;
}

ReactionResult ArenaEngine::react()
{
    // Presence clears unless inputs were staged; a trap leaves the
    // control state and the last reaction's presence snapshot as they
    // were.
    if (!instantOpen_) std::fill(present_.begin(), present_.end(), 0);
    instantOpen_ = false;
    const Outcome out = reactor_.react(data_.data(), present_.data(), state_);
    state_ = out.state;
    lastPresent_ = present_;
    ReactionResult result;
    result.emittedOutputs.assign(reactor_.ring(),
                                 reactor_.ring() + out.emitted);
    result.terminated = out.terminated;
    result.treeTests = out.treeTests;
    result.actionsRun = out.actionsRun;
    result.emitsRun = out.emitsRun;
    if (const ExecCounters* data = reactor_.dataCounters())
        result.dataCounters = *data;
    return result;
}

bool ArenaEngine::outputPresent(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return lastPresent_[static_cast<std::size_t>(sigIndex)] != 0;
}

Value ArenaEngine::outputValue(int sigIndex) const
{
    return readSignalValue(data_.data(), layout_,
                           checkedSignal(sema_, sigIndex));
}

// ---------------------------------------------------------------------------
// BoxedEngine
// ---------------------------------------------------------------------------

BoxedEngine::BoxedEngine(const ModuleSema& sema, const ProgramSema& program,
                         const FunctionSemaMap& functions)
    : sema_(sema), env_(sema), store_(sema.vars),
      eval_(program, functions, &sema, &store_, &env_),
      lastPresent_(sema.signals.size(), false)
{
}

void BoxedEngine::setInput(int sigIndex)
{
    checkedInput(sema_, sigIndex);
    env_.setPresent(sigIndex);
}

void BoxedEngine::setInputScalar(int sigIndex, std::int64_t v)
{
    const SignalInfo& info = checkedScalarInput(sema_, sigIndex);
    env_.setValue(sigIndex, Value::fromInt(info.valueType, v));
}

void BoxedEngine::setInputValue(int sigIndex, Value v)
{
    checkedInput(sema_, sigIndex);
    env_.setValue(sigIndex, std::move(v));
}

bool BoxedEngine::outputPresent(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return lastPresent_[static_cast<std::size_t>(sigIndex)];
}

Value BoxedEngine::outputValue(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return env_.signalValue(sigIndex);
}

void BoxedEngine::endReaction(ReactionResult& result)
{
    result.dataCounters = eval_.counters();
    for (std::size_t i = 0; i < lastPresent_.size(); ++i)
        lastPresent_[i] = env_.isPresent(static_cast<int>(i));
    env_.beginInstant();
}

void BoxedEngine::emit(int signal, const ast::Expr* valueExpr,
                       ReactionResult& result)
{
    ++result.emitsRun;
    if (valueExpr)
        env_.setValue(signal, eval_.evalExpr(*valueExpr));
    else
        env_.setPresent(signal);
    if (sema_.signals[static_cast<std::size_t>(signal)].dir ==
        SignalDir::Output)
        result.emittedOutputs.push_back(signal);
}

void BoxedEngine::runDataAction(const ir::DataAction& action)
{
    if (action.stmt)
        eval_.execStmt(*action.stmt);
    else if (action.expr)
        eval_.evalExpr(*action.expr);
}

// ---------------------------------------------------------------------------
// TreeWalkEngine (the flat path's differential oracle)
// ---------------------------------------------------------------------------

TreeWalkEngine::TreeWalkEngine(const efsm::Efsm& machine,
                               const ModuleSema& sema,
                               const ProgramSema& program,
                               const FunctionSemaMap& functions)
    : BoxedEngine(sema, program, functions), machine_(machine),
      state_(machine.initialState)
{
}

void TreeWalkEngine::runActions(const std::vector<efsm::Action>& actions,
                                ReactionResult& result)
{
    for (const efsm::Action& a : actions) {
        ++result.actionsRun;
        if (a.kind == efsm::Action::Kind::Emit)
            emit(a.signal, a.valueExpr, result);
        else
            runDataAction(machine_.program->actions[static_cast<std::size_t>(
                a.dataActionId)]);
    }
}

ReactionResult TreeWalkEngine::react()
{
    ReactionResult result;
    beginReaction();
    const efsm::State& st = machine_.states[static_cast<std::size_t>(state_)];
    const efsm::TransNode* node = st.tree.get();
    if (!node) throw EclError("state without transition tree");
    while (!node->isLeaf) {
        runActions(node->prefixActions, result);
        ++result.treeTests;
        bool taken;
        if (node->testsSignal)
            taken = env_.isPresent(node->signal);
        else
            taken = eval_.evalCondition(*node->dataCond);
        node = taken ? node->onTrue.get() : node->onFalse.get();
    }
    if (node->runtimeError)
        throw EclError("instantaneous loop detected at runtime (a "
                       "statically-unverifiable loop path was reached)");
    runActions(node->prefixActions, result);
    state_ = node->nextState;
    result.terminated = node->terminates || terminated();
    endReaction(result);
    return result;
}

bool TreeWalkEngine::terminated() const
{
    return machine_.states[static_cast<std::size_t>(state_)].dead;
}

bool TreeWalkEngine::needsAutoResume() const
{
    return machine_.states[static_cast<std::size_t>(state_)].autoResume;
}

std::vector<std::uint8_t> TreeWalkEngine::packState() const
{
    const InstanceLayout layout = computeInstanceLayout(sema_);
    std::vector<std::uint8_t> out(4 + layout.dataBytes, 0);
    const std::int32_t st = state_;
    std::memcpy(out.data(), &st, 4);
    std::uint8_t* data = out.data() + 4;
    for (std::size_t i = 0; i < sema_.vars.size(); ++i) {
        const Value& v = store_.at(static_cast<int>(i));
        std::memcpy(data + layout.varOffsets[i], v.data(), v.size());
    }
    for (const SignalInfo& s : sema_.signals) {
        if (s.pure) continue;
        const Value& v = env_.signalValue(s.index);
        std::memcpy(data + layout.sigOffsets[static_cast<std::size_t>(s.index)],
                    v.data(), v.size());
    }
    return out;
}

// ---------------------------------------------------------------------------
// RcEngine (Reactive-C-style baseline and semantic oracle)
// ---------------------------------------------------------------------------

RcEngine::RcEngine(const ir::ReactiveProgram& program, const ModuleSema& sema,
                   const ProgramSema& programSema,
                   const FunctionSemaMap& functions)
    : BoxedEngine(sema, programSema, functions), prog_(program)
{
}

bool RcEngine::guardValue(const ir::SigGuard& g)
{
    switch (g.kind) {
    case ir::SigGuard::Kind::Ref: return env_.isPresent(g.signal);
    case ir::SigGuard::Kind::Not: return !guardValue(*g.lhs);
    case ir::SigGuard::Kind::And:
        return guardValue(*g.lhs) && guardValue(*g.rhs);
    case ir::SigGuard::Kind::Or:
        return guardValue(*g.lhs) || guardValue(*g.rhs);
    }
    return false;
}

RcEngine::WalkResult RcEngine::walk(const ir::Node& n, Mode mode,
                                    ReactionResult& result)
{
    ++result.treeTests; // every visited IR node costs interpretation work
    using ir::NodeKind;

    if (mode == Mode::Resume) {
        switch (n.kind) {
        case NodeKind::Pause: return {Comp::Term, -1, 0, {}};
        case NodeKind::Seq: {
            std::size_t idx = n.children.size();
            for (std::size_t i = 0; i < n.children.size(); ++i)
                if (n.children[i]->pausesInSubtree.intersects(config_)) {
                    idx = i;
                    break;
                }
            WalkResult r = walk(*n.children[idx], Mode::Resume, result);
            for (std::size_t i = idx + 1;
                 i < n.children.size() && r.comp == Comp::Term; ++i)
                r = walk(*n.children[i], Mode::Start, result);
            return r;
        }
        case NodeKind::Loop: {
            WalkResult r = walk(*n.children[0], Mode::Resume, result);
            int guard = 0;
            while (r.comp == Comp::Term) {
                if (++guard > 64)
                    throw EclError(n.loc, "instantaneous loop at runtime");
                r = walk(*n.children[0], Mode::Start, result);
            }
            return r;
        }
        case NodeKind::If:
        case NodeKind::Present: {
            const ir::Node& active =
                n.children[0]->pausesInSubtree.intersects(config_)
                    ? *n.children[0]
                    : *n.children[1];
            return walk(active, Mode::Resume, result);
        }
        case NodeKind::Par: {
            WalkResult agg{Comp::Term, -1, 0, {}};
            bool anyPause = false;
            bool anyExit = false;
            WalkResult bestExit;
            for (const ir::NodePtr& b : n.children) {
                if (!b->pausesInSubtree.intersects(config_)) continue;
                WalkResult r = walk(*b, Mode::Resume, result);
                if (r.comp == Comp::Pause) {
                    anyPause = true;
                    agg.pauses |= r.pauses;
                } else if (r.comp == Comp::Exit) {
                    if (!anyExit || r.trapDepth < bestExit.trapDepth)
                        bestExit = r;
                    anyExit = true;
                }
            }
            if (anyExit) return {Comp::Exit, bestExit.trapId,
                                 bestExit.trapDepth, {}};
            if (anyPause) {
                agg.comp = Comp::Pause;
                return agg;
            }
            return {Comp::Term, -1, 0, {}};
        }
        case NodeKind::Abort: {
            const ir::Node& body = *n.children[0];
            const ir::Node* handler =
                n.children.size() > 1 ? n.children[1].get() : nullptr;
            if (handler && handler->pausesInSubtree.intersects(config_) &&
                !body.pausesInSubtree.intersects(config_))
                return walk(*handler, Mode::Resume, result);
            if (!n.weak) {
                if (guardValue(*n.guard)) {
                    if (handler) return walk(*handler, Mode::Start, result);
                    return {Comp::Term, -1, 0, {}};
                }
                return walk(body, Mode::Resume, result);
            }
            WalkResult r = walk(body, Mode::Resume, result);
            if (guardValue(*n.guard) && r.comp == Comp::Pause) {
                if (handler) return walk(*handler, Mode::Start, result);
                return {Comp::Term, -1, 0, {}};
            }
            return r;
        }
        case NodeKind::Suspend: {
            if (guardValue(*n.guard)) {
                WalkResult r;
                r.comp = Comp::Pause;
                r.pauses = n.pausesInSubtree;
                r.pauses &= config_;
                return r;
            }
            return walk(*n.children[0], Mode::Resume, result);
        }
        case NodeKind::Trap: {
            WalkResult r = walk(*n.children[0], Mode::Resume, result);
            if (r.comp == Comp::Exit && r.trapId == n.trapId)
                return {Comp::Term, -1, 0, {}};
            return r;
        }
        default:
            throw EclError(n.loc, "baseline: resume on pause-free node");
        }
    }

    switch (n.kind) {
    case NodeKind::Nothing: return {Comp::Term, -1, 0, {}};
    case NodeKind::Pause: {
        WalkResult r;
        r.comp = Comp::Pause;
        r.pauses.set(static_cast<std::size_t>(n.pauseId));
        return r;
    }
    case NodeKind::Emit:
        emit(n.signal, n.valueExpr, result);
        return {Comp::Term, -1, 0, {}};
    case NodeKind::DataStmt:
        ++result.actionsRun;
        runDataAction(
            prog_.actions[static_cast<std::size_t>(n.dataActionId)]);
        return {Comp::Term, -1, 0, {}};
    case NodeKind::If: {
        bool taken = eval_.evalCondition(*n.condExpr);
        return walk(*n.children[taken ? 0 : 1], Mode::Start, result);
    }
    case NodeKind::Present: {
        bool taken = guardValue(*n.guard);
        return walk(*n.children[taken ? 0 : 1], Mode::Start, result);
    }
    case NodeKind::Seq: {
        WalkResult r{Comp::Term, -1, 0, {}};
        for (const ir::NodePtr& c : n.children) {
            r = walk(*c, Mode::Start, result);
            if (r.comp != Comp::Term) break;
        }
        return r;
    }
    case NodeKind::Loop: {
        int guard = 0;
        while (true) {
            WalkResult r = walk(*n.children[0], Mode::Start, result);
            if (r.comp != Comp::Term) return r;
            if (++guard > 64)
                throw EclError(n.loc, "instantaneous loop at runtime");
        }
    }
    case NodeKind::Par: {
        WalkResult agg{Comp::Term, -1, 0, {}};
        bool anyPause = false;
        bool anyExit = false;
        WalkResult bestExit;
        for (const ir::NodePtr& b : n.children) {
            WalkResult r = walk(*b, Mode::Start, result);
            if (r.comp == Comp::Pause) {
                anyPause = true;
                agg.pauses |= r.pauses;
            } else if (r.comp == Comp::Exit) {
                if (!anyExit || r.trapDepth < bestExit.trapDepth) bestExit = r;
                anyExit = true;
            }
        }
        if (anyExit)
            return {Comp::Exit, bestExit.trapId, bestExit.trapDepth, {}};
        if (anyPause) {
            agg.comp = Comp::Pause;
            return agg;
        }
        return {Comp::Term, -1, 0, {}};
    }
    case NodeKind::Abort:
    case NodeKind::Suspend:
        // Non-immediate: no guard test in the starting instant.
        return walk(*n.children[0], Mode::Start, result);
    case NodeKind::Trap: {
        WalkResult r = walk(*n.children[0], Mode::Start, result);
        if (r.comp == Comp::Exit && r.trapId == n.trapId)
            return {Comp::Term, -1, 0, {}};
        return r;
    }
    case NodeKind::Exit:
        return {Comp::Exit, n.trapId,
                prog_.trapDepth[static_cast<std::size_t>(n.trapId)], {}};
    }
    throw EclError(n.loc, "baseline: bad node kind");
}

ReactionResult RcEngine::react()
{
    ReactionResult result;
    beginReaction();

    if (dead_) {
        result.terminated = true;
        endReaction(result);
        return result;
    }

    WalkResult r;
    if (!started_) {
        started_ = true;
        r = walk(*prog_.root, Mode::Start, result);
    } else {
        r = walk(*prog_.root, Mode::Resume, result);
    }
    if (r.comp == Comp::Pause) {
        config_ = r.pauses;
    } else {
        config_ = PauseSet{};
        dead_ = true;
        result.terminated = true;
    }
    endReaction(result);
    return result;
}

bool RcEngine::terminated() const { return dead_; }

bool RcEngine::needsAutoResume() const
{
    bool delta = false;
    config_.forEach([&](std::size_t p) {
        if (p < prog_.pauseDelta.size() && prog_.pauseDelta[p]) delta = true;
    });
    return delta;
}

} // namespace ecl::rt
