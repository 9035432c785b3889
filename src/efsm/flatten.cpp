#include "src/efsm/flatten.h"

#include <algorithm>
#include <unordered_map>

namespace ecl::efsm {

namespace {

class Flattener {
public:
    explicit Flattener(const Efsm& machine) : machine_(machine) {}

    FlatProgram run()
    {
        FlatProgram out;
        out.initialState = machine_.initialState;
        out.deadState = machine_.deadState;
        out.states.reserve(machine_.states.size());
        for (const State& st : machine_.states) {
            FlatState fs;
            fs.dead = st.dead;
            fs.autoResume = st.autoResume;
            fs.config = internConfig(out, st.config);
            if (!st.tree)
                throw EclError("flatten: state " + std::to_string(st.id) +
                               " has no transition tree");
            fs.root = emitNode(out, *st.tree);
            out.states.push_back(fs);
        }
        return out;
    }

private:
    int internConfig(FlatProgram& out, const PauseSet& config)
    {
        auto it = configIndex_.find(config);
        if (it != configIndex_.end()) return it->second;
        int idx = static_cast<int>(out.configs.size());
        out.configs.push_back(config);
        configIndex_.emplace(config, idx);
        return idx;
    }

    /// Pre-order emission: a node precedes its true subtree, which
    /// precedes its false subtree — the common taken path stays
    /// contiguous in memory.
    std::int32_t emitNode(FlatProgram& out, const TransNode& n)
    {
        auto idx = static_cast<std::int32_t>(out.nodes.size());
        out.nodes.emplace_back();
        {
            FlatNode& fn = out.nodes.back();
            fn.actionsBegin = static_cast<std::int32_t>(out.actions.size());
            for (const Action& a : n.prefixActions)
                out.actions.push_back(flattenAction(a));
            fn.actionsEnd = static_cast<std::int32_t>(out.actions.size());
        }
        if (n.isLeaf) {
            FlatNode& fn = out.nodes[static_cast<std::size_t>(idx)];
            fn.flags = FlatNode::kLeaf;
            if (n.terminates) fn.flags |= FlatNode::kTerminates;
            if (n.runtimeError) fn.flags |= FlatNode::kRuntimeError;
            fn.nextState = n.nextState;
            return idx;
        }
        if (!n.onTrue || !n.onFalse)
            throw EclError("flatten: test node missing a successor");
        if (n.testsSignal)
            out.nodes[static_cast<std::size_t>(idx)].testSignal = n.signal;
        else
            out.nodes[static_cast<std::size_t>(idx)].dataCond = n.dataCond;
        // emitNode reallocates out.nodes; re-index instead of holding refs.
        std::int32_t t = emitNode(out, *n.onTrue);
        std::int32_t f = emitNode(out, *n.onFalse);
        out.nodes[static_cast<std::size_t>(idx)].onTrue = t;
        out.nodes[static_cast<std::size_t>(idx)].onFalse = f;
        return idx;
    }

    FlatAction flattenAction(const Action& a) const
    {
        FlatAction fa;
        if (a.kind == Action::Kind::Emit) {
            fa.kind = FlatAction::Kind::Emit;
            fa.signal = a.signal;
            fa.valueExpr = a.valueExpr;
            fa.isOutput =
                machine_.sema->signals[static_cast<std::size_t>(a.signal)]
                    .dir == SignalDir::Output;
        } else {
            fa.kind = FlatAction::Kind::Data;
            fa.dataActionId = a.dataActionId;
        }
        return fa;
    }

    const Efsm& machine_;
    std::unordered_map<PauseSet, int, PauseSetHash> configIndex_;
};

} // namespace

FlatProgram flatten(const Efsm& machine)
{
    return Flattener(machine).run();
}

SubtreeClasses::SubtreeClasses(const FlatProgram& flat,
                               const std::vector<std::int32_t>& stateMap)
    : flat_(flat), stateMap_(stateMap), classOf_(flat.nodes.size(), -1)
{
}

std::size_t
SubtreeClasses::KeyHash::operator()(const std::vector<std::int32_t>& key) const
{
    std::size_t h = 0x9e3779b97f4a7c15ull;
    for (std::int32_t v : key)
        h = h * 0x100000001b3ull ^ static_cast<std::uint32_t>(v);
    return h;
}

std::int32_t SubtreeClasses::of(std::int32_t node)
{
    std::int32_t& memo = classOf_[static_cast<std::size_t>(node)];
    if (memo >= 0) return memo;
    const FlatNode& n = flat_.nodes[static_cast<std::size_t>(node)];
    // Children first: key_ is free again once they return.
    std::int32_t t = -1;
    std::int32_t f = -1;
    if (!n.isLeaf()) {
        t = of(n.onTrue);
        f = of(n.onFalse);
    }
    key_.clear();
    key_.push_back(n.flags);
    key_.push_back(n.actionsEnd - n.actionsBegin);
    for (std::int32_t a = n.actionsBegin; a < n.actionsEnd; ++a) {
        const FlatAction& fa = flat_.actions[static_cast<std::size_t>(a)];
        key_.push_back(static_cast<std::int32_t>(fa.kind));
        key_.push_back(fa.isOutput ? 1 : 0);
        key_.push_back(fa.signal);
        key_.push_back(fa.chunk);
    }
    if (n.isLeaf()) {
        key_.push_back(n.nextState >= 0
                           ? stateMap_[static_cast<std::size_t>(n.nextState)]
                           : -1);
    } else {
        key_.push_back(n.testSignal);
        key_.push_back(n.predChunk);
        key_.push_back(t);
        key_.push_back(f);
    }
    ++rows_;
    auto it = index_.find(key_);
    if (it == index_.end())
        it = index_
                 .emplace(key_, static_cast<std::int32_t>(index_.size()))
                 .first;
    memo = it->second; // classOf_ never resizes, so `memo` still holds
    return memo;
}

std::uint32_t FlatProgram::outputRingSlots() const
{
    std::uint32_t n = 0;
    for (const FlatAction& a : actions)
        n += a.kind == FlatAction::Kind::Emit && a.isOutput;
    return std::max<std::uint32_t>(n, 1);
}

std::size_t FlatProgram::remapStates(const std::vector<std::int32_t>& old2new)
{
    if (old2new.size() != states.size())
        throw EclError("remapStates: map size does not match state count");
    std::int32_t newCount = 0;
    for (std::int32_t n : old2new) newCount = std::max(newCount, n + 1);
    if (initialState < 0 ||
        old2new[static_cast<std::size_t>(initialState)] < 0)
        throw EclError("remapStates: initial state was dropped");

    // Surviving rows: lowest old id per new id wins.
    std::vector<std::int32_t> reps(static_cast<std::size_t>(newCount), -1);
    for (std::size_t s = 0; s < old2new.size(); ++s) {
        std::int32_t n = old2new[s];
        if (n < 0) continue;
        if (reps[static_cast<std::size_t>(n)] < 0)
            reps[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(s);
    }
    for (std::size_t n = 0; n < reps.size(); ++n)
        if (reps[n] < 0)
            throw EclError("remapStates: new id " + std::to_string(n) +
                           " has no representative (map not dense)");

    SubtreeClasses classes(*this, old2new);
    for (std::int32_t rep : reps)
        classes.of(states[static_cast<std::size_t>(rep)].root);
    std::vector<std::int32_t> rowOf(classes.classCount(), -1);

    std::vector<FlatNode> newNodes;
    std::vector<FlatAction> newActions;
    newNodes.reserve(classes.classCount());
    newActions.reserve(actions.size());

    // Pre-order copy of one surviving tree, one row per class, with
    // successor rewriting.
    auto copyTree = [&](auto&& self, std::int32_t oldIdx) -> std::int32_t {
        std::int32_t& row =
            rowOf[static_cast<std::size_t>(classes.of(oldIdx))];
        if (row >= 0) return row;
        const FlatNode src = nodes[static_cast<std::size_t>(oldIdx)];
        auto idx = static_cast<std::int32_t>(newNodes.size());
        row = idx;
        newNodes.push_back(src);
        {
            FlatNode& dst = newNodes.back();
            dst.actionsBegin = static_cast<std::int32_t>(newActions.size());
            for (std::int32_t a = src.actionsBegin; a < src.actionsEnd; ++a)
                newActions.push_back(actions[static_cast<std::size_t>(a)]);
            dst.actionsEnd = static_cast<std::int32_t>(newActions.size());
        }
        if (src.isLeaf()) {
            if (src.nextState >= 0) {
                std::int32_t n =
                    old2new[static_cast<std::size_t>(src.nextState)];
                if (n < 0 && !src.runtimeError())
                    throw EclError("remapStates: live successor dropped");
                newNodes[static_cast<std::size_t>(idx)].nextState = n;
            }
            return idx;
        }
        std::int32_t t = self(self, src.onTrue);
        std::int32_t f = self(self, src.onFalse);
        newNodes[static_cast<std::size_t>(idx)].onTrue = t;
        newNodes[static_cast<std::size_t>(idx)].onFalse = f;
        return idx;
    };

    std::vector<FlatState> newStates(static_cast<std::size_t>(newCount));
    std::vector<PauseSet> newConfigs;
    std::unordered_map<PauseSet, std::int32_t, PauseSetHash> configIndex;
    for (std::size_t n = 0; n < reps.size(); ++n) {
        const FlatState& src = states[static_cast<std::size_t>(reps[n])];
        FlatState& dst = newStates[n];
        dst = src;
        dst.root = copyTree(copyTree, src.root);
        const PauseSet& cfg = configs[static_cast<std::size_t>(src.config)];
        auto it = configIndex.find(cfg);
        if (it == configIndex.end()) {
            it = configIndex
                     .emplace(cfg,
                              static_cast<std::int32_t>(newConfigs.size()))
                     .first;
            newConfigs.push_back(cfg);
        }
        dst.config = it->second;
    }

    states = std::move(newStates);
    nodes = std::move(newNodes);
    actions = std::move(newActions);
    configs = std::move(newConfigs);
    initialState = old2new[static_cast<std::size_t>(initialState)];
    deadState =
        deadState >= 0 ? old2new[static_cast<std::size_t>(deadState)] : -1;
    return classes.rowsClassified() - classes.classCount();
}

} // namespace ecl::efsm
