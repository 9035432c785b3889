#include "src/verify/explorer.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string_view>
#include <type_traits>

namespace ecl::verify {

namespace {

void writeI32(std::uint8_t* p, std::int32_t v) { std::memcpy(p, &v, 4); }

std::int32_t readI32(const std::uint8_t* p)
{
    std::int32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::string lowercase(const std::string& s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// StateView
// ---------------------------------------------------------------------------

std::int64_t StateView::var(const std::string& name) const
{
    const VarInfo* v = sema_->findVar(name);
    if (!v) throw EclError("StateView: no variable named '" + name + "'");
    return var(v->index);
}

std::int64_t StateView::signal(int idx) const
{
    const SignalInfo& s = sema_->signals[static_cast<std::size_t>(idx)];
    if (s.pure || !s.valueType->isScalar())
        throw EclError("StateView: signal '" + s.name +
                       "' holds no scalar value");
    return readScalar(
        data_ + layout_->sigOffsets[static_cast<std::size_t>(idx)],
        s.valueType);
}

// ---------------------------------------------------------------------------
// Monitor wiring
// ---------------------------------------------------------------------------

std::vector<MonitorWire> wireMonitor(const ModuleSema& design,
                                     const ModuleSema& monitor)
{
    std::vector<MonitorWire> wires;
    for (const SignalInfo& m : monitor.signals) {
        if (m.dir != SignalDir::Input) continue;
        const SignalInfo* d = design.findSignal(m.name);
        if (!d)
            throw EclError("monitor input '" + m.name +
                           "' matches no design signal");
        MonitorWire w;
        w.monitorSig = m.index;
        w.designSig = d->index;
        if (!m.pure) {
            if (d->pure)
                throw EclError("monitor input '" + m.name +
                               "' is valued but design signal '" + d->name +
                               "' is pure");
            // Cross-compiler types: scalars normalize through int64,
            // aggregates transfer raw bytes — sizes must agree.
            if (!m.valueType->isScalar() &&
                m.valueType->size() != d->valueType->size())
                throw EclError(
                    "monitor input '" + m.name + "' value size (" +
                    std::to_string(m.valueType->size()) +
                    ") differs from design signal's (" +
                    std::to_string(d->valueType->size()) + ")");
            w.valued = true;
        }
        wires.push_back(w);
    }
    if (wires.empty())
        throw EclError("monitor module has no input signals to wire");
    return wires;
}

// ---------------------------------------------------------------------------
// Worker scratch
// ---------------------------------------------------------------------------

Explorer::ModuleCtx::ModuleCtx(const ModuleSema& sema,
                               const efsm::FlatProgram& flat,
                               const rt::InstanceLayout& layout,
                               std::shared_ptr<const bc::Program> code,
                               std::shared_ptr<const rt::NativeModule> native)
    : slice(layout.stride, 0), present(sema.signals.size(), 0),
      reactor(sema, flat, layout, std::move(code), std::move(native))
{
}

Explorer::Worker::Worker(const Explorer& ex)
    : design(ex.sema_, ex.flat_, ex.layout_, ex.code_, ex.native_),
      packed(ex.packedSize_)
{
    if (ex.monSema_)
        monitor.emplace(*ex.monSema_, *ex.monFlat_, ex.monLayout_,
                        ex.monCode_, nullptr);
}

// ---------------------------------------------------------------------------
// Explorer: setup
// ---------------------------------------------------------------------------

Explorer::Explorer(const efsm::FlatProgram& flat,
                   std::shared_ptr<const bc::Program> code,
                   const ModuleSema& sema, ExplorerOptions options,
                   std::shared_ptr<const rt::NativeModule> native)
    : flat_(flat), code_(std::move(code)), sema_(sema),
      layout_(rt::computeInstanceLayout(sema)), options_(std::move(options)),
      native_(std::move(native))
{
    if (!code_)
        throw EclError("Explorer requires the compiled bytecode program");
    if (options_.maxStates == 0)
        throw EclError("Explorer: maxStates must be non-zero");
}

void Explorer::attachMonitor(const efsm::FlatProgram& flat,
                             std::shared_ptr<const bc::Program> code,
                             const ModuleSema& sema,
                             std::shared_ptr<const void> owner)
{
    if (ran_) throw EclError("attachMonitor after run()");
    if (monSema_) throw EclError("only one monitor is supported");
    wires_ = wireMonitor(sema_, sema);
    monFlat_ = &flat;
    monCode_ = std::move(code);
    monSema_ = &sema;
    monLayout_ = rt::computeInstanceLayout(sema);
    if (owner) owners_.push_back(std::move(owner));
}

void Explorer::addPredicate(std::string name, Predicate fn)
{
    if (ran_) throw EclError("addPredicate after run()");
    if (!fn) throw EclError("addPredicate: empty predicate");
    predicates_.emplace_back(std::move(name), std::move(fn));
}

void Explorer::buildAlphabet()
{
    // Value domains per valued input: configured scalars, the zero value
    // for aggregates (finite-alphabet requirement).
    domains_.assign(sema_.signals.size(), {});
    for (const SignalInfo& sig : sema_.signals) {
        if (sig.dir != SignalDir::Input || sig.pure) continue;
        std::vector<Value>& dom =
            domains_[static_cast<std::size_t>(sig.index)];
        if (!sig.valueType->isScalar()) {
            dom.emplace_back(sig.valueType); // zeroed aggregate
            continue;
        }
        std::span<const std::int64_t> vals = kDefaultScalarDomain;
        if (auto it = options_.scalarDomains.find(sig.name);
            it != options_.scalarDomains.end())
            vals = it->second;
        if (vals.empty())
            throw EclError("empty value domain for input '" + sig.name + "'");
        dom.reserve(vals.size());
        for (std::int64_t v : vals)
            dom.push_back(Value::fromInt(sig.valueType, v));
    }

    // Pure design inputs the monitor observes must never be pruned: the
    // design's decision tree may ignore them, but the monitor's awaits
    // do not.
    std::vector<std::uint8_t> monitorWired(sema_.signals.size(), 0);
    for (const MonitorWire& w : wires_)
        monitorWired[static_cast<std::size_t>(w.designSig)] = 1;

    // Canonical letter list per design control state: mixed-radix
    // enumeration over the state's relevant inputs, lowest signal index
    // least significant, digit 0 = absent. Letter 0 is always the empty
    // instant.
    alphabet_.assign(flat_.states.size(), {});
    std::vector<std::uint8_t> tested(sema_.signals.size(), 0);
    std::vector<std::int32_t> stack;
    for (std::size_t st = 0; st < flat_.states.size(); ++st) {
        std::fill(tested.begin(), tested.end(), 0);
        stack.clear();
        if (flat_.states[st].root >= 0)
            stack.push_back(flat_.states[st].root);
        while (!stack.empty()) {
            const efsm::FlatNode& n =
                flat_.nodes[static_cast<std::size_t>(stack.back())];
            stack.pop_back();
            if (n.isLeaf()) continue;
            if (n.testSignal >= 0)
                tested[static_cast<std::size_t>(n.testSignal)] = 1;
            stack.push_back(n.onTrue);
            stack.push_back(n.onFalse);
        }

        std::vector<int> rel;
        std::vector<std::uint64_t> radix;
        std::uint64_t total = 1;
        bool overflow = false;
        for (const SignalInfo& sig : sema_.signals) {
            if (sig.dir != SignalDir::Input) continue;
            // Dirty-set pruning: an untested pure input cannot influence
            // this state's reaction — unless the monitor observes it.
            // Valued inputs always can (their value write persists in
            // the state bytes).
            if (sig.pure && !tested[static_cast<std::size_t>(sig.index)] &&
                !monitorWired[static_cast<std::size_t>(sig.index)])
                continue;
            rel.push_back(sig.index);
            std::uint64_t r =
                sig.pure
                    ? 2
                    : 1 + domains_[static_cast<std::size_t>(sig.index)].size();
            radix.push_back(r);
            if (total > std::numeric_limits<std::uint64_t>::max() / r)
                overflow = true;
            else
                total *= r;
        }

        std::uint64_t count = total;
        StateAlphabet& sa = alphabet_[st];
        if (overflow || count > kMaxLettersPerState) {
            count = kMaxLettersPerState;
            sa.truncated = true;
        }
        sa.letters.reserve(static_cast<std::size_t>(count));
        std::vector<std::uint32_t> digits(rel.size(), 0);
        for (std::uint64_t code = 0; code < count; ++code) {
            Letter letter;
            for (std::size_t k = 0; k < rel.size(); ++k) {
                if (digits[k] == 0) continue;
                const SignalInfo& sig =
                    sema_.signals[static_cast<std::size_t>(rel[k])];
                letter.sets.emplace_back(
                    rel[k],
                    sig.pure ? -1 : static_cast<std::int32_t>(digits[k] - 1));
            }
            sa.letters.push_back(std::move(letter));
            for (std::size_t k = 0; k < rel.size(); ++k) {
                if (++digits[k] < radix[k]) break;
                digits[k] = 0;
            }
        }
    }
}

void Explorer::resolveChecks()
{
    checks_.clear();
    const ModuleSema& checked = monSema_ ? *monSema_ : sema_;
    const Violation::Kind kind = monSema_ ? Violation::Kind::MonitorSignal
                                          : Violation::Kind::DesignSignal;
    for (const SignalInfo& s : checked.signals) {
        if (s.dir == SignalDir::Input) continue;
        if (lowercase(s.name).find("violation") == std::string::npos)
            continue;
        checks_.push_back({kind, s.index, 0, s.name});
    }
    if (monSema_ && checks_.empty() && predicates_.empty())
        throw EclError("monitor flags nothing: no signal named *violation* "
                       "and no registered predicate");
    for (std::size_t i = 0; i < predicates_.size(); ++i)
        checks_.push_back(
            {Violation::Kind::Predicate, -1, i, predicates_[i].first});
}

// ---------------------------------------------------------------------------
// Explorer: partial-order reduction
// ---------------------------------------------------------------------------

bool Explorer::isCommutativeChunk(std::int32_t chunk) const
{
    // Accepts exactly the shapes a state-independent constant increment
    // of one scalar variable compiles to — at -O0 (discrete
    // AddrVar/Binary sequences) and after the -O2 peephole pass (fused
    // superinstructions). Scalar adds wrap through normalizeScalar /
    // writeScalar truncation (never trap), so any multiset of such
    // updates produces the same slot bytes in any execution order —
    // the property the POR chain decomposition relies on.
    const bc::Chunk& ck = code_->chunks[static_cast<std::size_t>(chunk)];
    if (ck.isExpr) return false;
    const bc::Instr* ins = code_->code.data() + ck.begin;
    const std::size_t n = ck.end - ck.begin;
    auto isAddSub = [](std::int32_t imm) {
        const auto op = static_cast<ast::BinaryOp>(imm);
        return op == ast::BinaryOp::Add || op == ast::BinaryOp::Sub;
    };
    auto isAssignAddSub = [](std::int32_t imm) {
        const auto op = static_cast<ast::AssignOp>(imm);
        return op == ast::AssignOp::Add || op == ast::AssignOp::Sub;
    };
    switch (n) {
    case 2:
        // x++ / x-- fused: [IncDecVar][End] (imm = UnaryOp, always ±1).
        return ins[0].op == bc::Op::IncDecVar && ins[1].op == bc::Op::End;
    case 3:
        // x++ / x--: [AddrVar][IncDec][End].
        return ins[0].op == bc::Op::AddrVar && ins[1].op == bc::Op::IncDec &&
               ins[1].b == ins[0].a && ins[2].op == bc::Op::End;
    case 4:
        // x = x + k fused: [LoadVarSc][BinaryImm][StoreVarSc same slot].
        if (ins[0].op == bc::Op::LoadVarSc &&
            ins[1].op == bc::Op::BinaryImm && ins[1].b == ins[0].a &&
            isAddSub(ins[1].imm) && ins[2].op == bc::Op::StoreVarSc &&
            ins[2].c == ins[1].a && ins[2].imm == ins[0].imm &&
            ins[3].op == bc::Op::End)
            return true;
        // x += k: [AddrVar][ConstInt][StoreCompound][End].
        if (ins[0].op == bc::Op::AddrVar && ins[1].op == bc::Op::ConstInt &&
            ins[2].op == bc::Op::StoreCompound && ins[2].b == ins[0].a &&
            ins[2].c == ins[1].a && isAssignAddSub(ins[2].imm) &&
            ins[3].op == bc::Op::End)
            return true;
        return false;
    case 5:
        // x = x + k / x = k + x / x = x - k:
        // [LoadVarSc][ConstInt][Binary][StoreVarSc same slot][End].
        if (!(ins[0].op == bc::Op::LoadVarSc &&
              ins[1].op == bc::Op::ConstInt && ins[2].op == bc::Op::Binary &&
              isAddSub(ins[2].imm) && ins[3].op == bc::Op::StoreVarSc &&
              ins[3].c == ins[2].a && ins[3].imm == ins[0].imm &&
              ins[4].op == bc::Op::End))
            return false;
        if (ins[2].b == ins[0].a && ins[2].c == ins[1].a) return true;
        // k + x commutes too; k - x does not.
        return ins[2].b == ins[1].a && ins[2].c == ins[0].a &&
               static_cast<ast::BinaryOp>(ins[2].imm) == ast::BinaryOp::Add;
    default:
        return false;
    }
}

bool Explorer::simPure(int state, const std::vector<std::uint8_t>& presentIn,
                       SimResult& out) const
{
    // Presence-only twin of rt::reactFlat: walks the decision tree with
    // the given input presence (emissions feed back into it exactly as
    // the real reaction's present[] does) WITHOUT executing data code.
    // Fails — conservatively disqualifying the letter — on anything
    // whose effect presence alone cannot predict: a data-dependent
    // branch, a valued emission, a runtime-error leaf, or a data action
    // outside the commutative-increment whitelist.
    out.endState = -1;
    out.emitted.clear();
    out.chunks.clear();
    std::vector<std::uint8_t> present = presentIn;
    const efsm::FlatNode* nodes = flat_.nodes.data();
    const efsm::FlatAction* actions = flat_.actions.data();
    auto runActs = [&](const efsm::FlatNode& node) -> bool {
        for (std::int32_t i = node.actionsBegin; i < node.actionsEnd; ++i) {
            const efsm::FlatAction& a = actions[i];
            if (a.kind == efsm::FlatAction::Kind::Emit) {
                if (a.chunk >= 0) return false; // valued emission
                present[a.signal] = 1;
                out.emitted.push_back(a.signal);
            } else if (a.chunk >= 0) {
                if (!isCommutativeChunk(a.chunk)) return false;
                out.chunks.push_back(a.chunk);
            }
        }
        return true;
    };
    const std::int32_t root =
        flat_.states[static_cast<std::size_t>(state)].root;
    if (root < 0) return false;
    const efsm::FlatNode* node = &nodes[root];
    while (!node->isLeaf()) {
        if (!runActs(*node)) return false;
        if (node->testSignal < 0) return false; // data-dependent branch
        node = &nodes[present[node->testSignal] != 0 ? node->onTrue
                                                     : node->onFalse];
    }
    if (node->runtimeError()) return false;
    if (!runActs(*node)) return false;
    out.endState = node->nextState;
    return true;
}

void Explorer::computePartialOrder()
{
    // Decides, per (control state, letter), whether a composite pure
    // letter {s1 < s2 < ... < sm} is redundant: the ascending singleton
    // chain s1-then-s2-... reaches the identical packed state, and the
    // singletons (and the empty letter) are never dropped — so removing
    // the composite loses no reachable state and no violation. The
    // chain comparison demands: the same end control state, the same
    // emitted-signal set, and the same multiset of executed data
    // chunks, every chunk a commutative constant increment (simPure
    // enforces that). Letters that emit a checked violation signal stay
    // (the direct transition is the shortest counterexample), and a
    // monitor disables the reduction wholesale: the monitor observes
    // instants, and the decomposition multiplies them.
    if (monSema_) return;

    std::vector<std::uint8_t> checkedSig(sema_.signals.size(), 0);
    for (const Check& ck : checks_)
        if (ck.kind == Violation::Kind::DesignSignal && ck.signal >= 0)
            checkedSig[static_cast<std::size_t>(ck.signal)] = 1;

    auto signalSet = [](std::vector<std::int32_t> v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        return v;
    };

    // Chains revisit the same (state, signal) steps across the letters
    // of one state — and across states that share successors.
    std::map<std::pair<int, int>, std::optional<SimResult>> singles;
    std::vector<std::uint8_t> present(sema_.signals.size(), 0);
    SimResult combined;

    for (std::size_t st = 0; st < flat_.states.size(); ++st) {
        if (flat_.states[st].dead || flat_.states[st].root < 0) continue;
        StateAlphabet& sa = alphabet_[st];
        std::vector<std::uint8_t> reduced(sa.letters.size(), 0);
        bool any = false;
        for (std::size_t L = 0; L < sa.letters.size(); ++L) {
            const Letter& letter = sa.letters[L];
            if (letter.sets.size() < 2) continue;
            bool allPure = true;
            for (const auto& [sig, dom] : letter.sets)
                if (dom >= 0) {
                    allPure = false;
                    break;
                }
            if (!allPure) continue;

            std::fill(present.begin(), present.end(), 0);
            for (const auto& [sig, dom] : letter.sets)
                present[static_cast<std::size_t>(sig)] = 1;
            if (!simPure(static_cast<int>(st), present, combined)) continue;

            bool emitsChecked = false;
            for (std::int32_t e : combined.emitted)
                if (checkedSig[static_cast<std::size_t>(e)]) {
                    emitsChecked = true;
                    break;
                }
            if (emitsChecked) continue;

            // Ascending singleton chain (letter.sets is built ascending
            // by the mixed-radix enumeration).
            int cur = static_cast<int>(st);
            std::vector<std::int32_t> chainEmits;
            std::vector<std::int32_t> chainChunks;
            bool ok = true;
            for (const auto& [sig, dom] : letter.sets) {
                // An intermediate dead state cannot take further
                // instants; the chain breaks.
                if (cur < 0 ||
                    flat_.states[static_cast<std::size_t>(cur)].dead) {
                    ok = false;
                    break;
                }
                const auto key = std::make_pair(cur, static_cast<int>(sig));
                auto it = singles.find(key);
                if (it == singles.end()) {
                    std::fill(present.begin(), present.end(), 0);
                    present[static_cast<std::size_t>(sig)] = 1;
                    std::optional<SimResult> r;
                    SimResult one;
                    if (simPure(cur, present, one)) r = std::move(one);
                    it = singles.emplace(key, std::move(r)).first;
                }
                if (!it->second) {
                    ok = false;
                    break;
                }
                const SimResult& one = *it->second;
                chainEmits.insert(chainEmits.end(), one.emitted.begin(),
                                  one.emitted.end());
                chainChunks.insert(chainChunks.end(), one.chunks.begin(),
                                   one.chunks.end());
                cur = one.endState;
            }
            if (!ok || cur != combined.endState) continue;
            if (signalSet(combined.emitted) != signalSet(chainEmits))
                continue;
            std::vector<std::int32_t> a = combined.chunks;
            std::vector<std::int32_t> b = std::move(chainChunks);
            std::sort(a.begin(), a.end());
            std::sort(b.begin(), b.end());
            if (a != b) continue;

            reduced[L] = 1;
            any = true;
        }
        if (any) sa.reduced = std::move(reduced);
    }
}

// ---------------------------------------------------------------------------
// Explorer: successor computation
// ---------------------------------------------------------------------------

void Explorer::expandOne(Worker& w, const std::uint8_t* rec, std::uint32_t id,
                         std::uint32_t letterIdx)
{
    const int ds = readI32(rec);
    const Letter& letter =
        alphabet_[static_cast<std::size_t>(ds)].letters[letterIdx];
    ++w.transitions;
    // Load the design instance and apply the letter (presence + values).
    std::memcpy(w.design.slice.data(), rec + headerBytes_, layout_.dataBytes);
    std::memset(w.design.present.data(), 0, w.design.present.size());
    for (const auto& [sig, dom] : letter.sets) {
        w.design.present[static_cast<std::size_t>(sig)] = 1;
        if (dom >= 0)
            rt::writeSignalValue(
                w.design.slice.data(), layout_,
                sema_.signals[static_cast<std::size_t>(sig)],
                domains_[static_cast<std::size_t>(sig)]
                        [static_cast<std::size_t>(dom)]);
    }

    int newDs = ds;
    int newMs = -1;
    try {
        // Either backend reacts with the kernel's fresh budget, and a
        // trap carries the same message.
        newDs = w.design.reactor
                    .react(w.design.slice.data(), w.design.present.data(), ds)
                    .state;
        if (monSema_) {
            const int ms = readI32(rec + 4);
            std::memcpy(w.monitor->slice.data(),
                        rec + headerBytes_ + layout_.dataBytes,
                        monLayout_.dataBytes);
            std::memset(w.monitor->present.data(), 0,
                        w.monitor->present.size());
            newMs = ms;
            if (!monFlat_->states[static_cast<std::size_t>(ms)].dead) {
                // Feed the monitor the design's instant: presence (and
                // value) of every wired signal, inputs and emissions
                // alike.
                for (const MonitorWire& wire : wires_) {
                    if (!w.design.present[static_cast<std::size_t>(
                            wire.designSig)])
                        continue;
                    w.monitor
                        ->present[static_cast<std::size_t>(wire.monitorSig)] =
                        1;
                    if (wire.valued) {
                        const SignalInfo& dsig =
                            sema_.signals[static_cast<std::size_t>(
                                wire.designSig)];
                        const SignalInfo& msig =
                            monSema_->signals[static_cast<std::size_t>(
                                wire.monitorSig)];
                        const std::uint8_t* src =
                            w.design.slice.data() +
                            layout_.sigOffsets[static_cast<std::size_t>(
                                wire.designSig)];
                        std::uint8_t* dst =
                            w.monitor->slice.data() +
                            monLayout_.sigOffsets[static_cast<std::size_t>(
                                wire.monitorSig)];
                        if (msig.valueType->isScalar())
                            writeScalar(dst, msig.valueType,
                                        readScalar(src, dsig.valueType));
                        else
                            std::memcpy(dst, src, msig.valueType->size());
                    }
                }
                newMs = w.monitor->reactor
                            .react(w.monitor->slice.data(),
                                   w.monitor->present.data(), ms)
                            .state;
            }
        }
    } catch (const EclError& e) {
        // A trapped reaction is itself a verification result: the trace
        // to it demonstrates a runtime error (instantaneous-loop leaf,
        // data runtime failure) is reachable.
        settleProbe(w);
        w.hit = Hit{id, letterIdx, -1, e.what(), {}};
        return;
    }

    // Violation checks run per transition: emissions are per-instant and
    // deliberately not part of the packed state.
    std::int32_t check = -1;
    for (std::size_t c = 0; c < checks_.size() && check < 0; ++c) {
        const Check& ck = checks_[c];
        if (ck.kind == Violation::Kind::Predicate) {
            StateView view(sema_, layout_, newDs, w.design.slice.data());
            if (predicates_[ck.predicate].second(view))
                check = static_cast<std::int32_t>(c);
        } else {
            const ModuleCtx& ctx = ck.kind == Violation::Kind::MonitorSignal
                                       ? *w.monitor
                                       : w.design;
            if (ctx.present[static_cast<std::size_t>(ck.signal)])
                check = static_cast<std::int32_t>(c);
        }
    }

    // The previous successor's probe had this reaction's time to pull
    // its store memory into cache.
    settleProbe(w);
    std::uint8_t* out = w.packed.push();
    writeI32(out, newDs);
    if (monSema_) writeI32(out + 4, newMs);
    std::memcpy(out + headerBytes_, w.design.slice.data(), layout_.dataBytes);
    if (monSema_)
        std::memcpy(out + headerBytes_ + layout_.dataBytes,
                    w.monitor->slice.data(), monLayout_.dataBytes);
    if (check >= 0) {
        w.hit = Hit{id, letterIdx, check, {}, {out, out + packedSize_}};
        w.packed.pop();
        return;
    }
    // Hashed here, in parallel, and probed against the store one
    // reaction later: a state interned at an earlier level never
    // reaches the merge.
    const std::uint64_t hash = StateStore::hashBytes(out, packedSize_);
    store_->prefetch(hash);
    w.probing = Succ{hash, id, letterIdx};
}

void Explorer::settleProbe(Worker& w)
{
    if (!w.probing) return;
    const Succ s = *w.probing;
    w.probing.reset();
    if (store_->contains(w.packed.at(w.packed.size() - 1), s.hash)) {
        w.packed.pop();
        return;
    }
    const auto index = static_cast<std::uint32_t>(w.succs.size());
    w.succs.push_back(s);
    w.buckets[StateStore::shardOf(s.hash)].push_back({s.hash, index});
}

void Explorer::expandRange(Worker& w, std::uint32_t begin, std::uint32_t end)
{
    for (std::uint32_t id = begin; id < end; ++id) {
        const std::uint8_t* rec = frontierRecord(id);
        const int ds = readI32(rec);
        if (flat_.states[static_cast<std::size_t>(ds)].dead)
            continue; // terminated: no future instants
        const StateAlphabet& sa = alphabet_[static_cast<std::size_t>(ds)];
        if (sa.truncated) w.sawTruncation = true;
        for (std::uint32_t L = 0;
             L < static_cast<std::uint32_t>(sa.letters.size()); ++L) {
            if (!sa.reduced.empty() && sa.reduced[L]) {
                ++w.lettersReduced;
                continue;
            }
            if (!w.hit) expandOne(w, rec, id, L);
        }
    }
    settleProbe(w);
    w.ids.resize(w.succs.size());
}

const std::uint8_t* Explorer::frontierRecord(std::uint32_t id) const
{
    return exact_ ? exact_->at(id) : levelRecs_->at(id - levelBase_);
}

// ---------------------------------------------------------------------------
// Explorer: merge, violations, traces
// ---------------------------------------------------------------------------

namespace {
// Explorer::Worker::ids values besides committed ids (id 0 is the root,
// never a successor's).
constexpr std::uint32_t kSeen = 0;
constexpr std::uint32_t kFresh = StateStore::kNoId;

bool committed(std::uint32_t id) { return id != kSeen && id != kFresh; }
} // namespace

void Explorer::dedupeShards(std::size_t t)
{
    for (std::size_t s = t; s < StateStore::kShards; s += workers_.size()) {
        std::size_t entries = 0;
        for (const auto& w : workers_) entries += w->buckets[s].size();
        if (entries == 0) continue;
        // Load <= 1/2. The home slot is the hash's low bits; the shard
        // is its top bits.
        FirstSeen& seen = firstSeen_[s];
        const std::size_t cap = std::bit_ceil(entries * 2);
        seen.slots.assign(cap, {});
        seen.mask = cap - 1;
        for (const auto& wp : workers_) {
            Worker& w = *wp;
            for (const Bucketed& e : w.buckets[s]) {
                const std::uint8_t* rec = w.packed.at(e.index);
                std::size_t slot = e.hash & seen.mask;
                for (;; slot = (slot + 1) & seen.mask) {
                    const FirstSeen::Slot& cur = seen.slots[slot];
                    if (!cur.rec ||
                        (cur.hash == e.hash &&
                         std::memcmp(cur.rec, rec, packedSize_) == 0))
                        break;
                }
                if (seen.slots[slot].rec) {
                    w.ids[e.index] = kSeen;
                } else {
                    seen.slots[slot] = {e.hash, rec};
                    w.ids[e.index] = kFresh;
                }
            }
        }
    }
}

bool Explorer::commitLevel(ExploreResult& out)
{
    // The state cap (and the store memory budget) stops committing
    // deterministically — the order is canonical — but every worker's
    // transitions are still counted and its violation still checked,
    // up to the first violation.
    const bool budgeted =
        options_.storeBudgetBytes != 0 && !store_->lossy();
    auto full = [&] {
        return store_->size() >= options_.maxStates ||
               (budgeted && store_->memoryBytes() > options_.storeBudgetBytes);
    };
    bool cut = full();
    for (const auto& wp : workers_) {
        Worker& w = *wp;
        out.stats.transitions += w.transitions;
        const std::size_t n = w.ids.size();
        for (std::size_t i = 0; i < n && !cut; ++i) {
            if (w.ids[i] != kFresh) continue;
            if (full()) {
                cut = true;
                break;
            }
            const std::uint32_t id = store_->commit(w.succs[i].hash);
            w.ids[i] = id == StateStore::kNoId ? kSeen : id;
        }
        if (w.hit) {
            recordViolation(*w.hit, out);
            return true;
        }
    }
    return false;
}

void Explorer::placeRecords(std::size_t t)
{
    const Worker& w = *workers_[t];
    for (std::size_t i = 0; i < w.ids.size(); ++i) {
        const std::uint32_t id = w.ids[i];
        if (!committed(id)) continue;
        const std::uint8_t* rec = w.packed.at(static_cast<std::uint32_t>(i));
        store_->place(id, rec, w.succs[i].hash);
        if (!exact_)
            std::memcpy(levelRecs_->at(id - levelBase_), rec, packedSize_);
        parents_[id] = {w.succs[i].parent, w.succs[i].letter};
        designStates_[id] = readI32(rec);
    }
}

void Explorer::placeIndex(std::size_t t)
{
    if (!exact_) return;
    for (std::size_t s = t; s < StateStore::kShards; s += workers_.size())
        for (const auto& w : workers_)
            for (const Bucketed& e : w->buckets[s])
                if (committed(w->ids[e.index]))
                    exact_->insertIndex(e.hash, w->ids[e.index]);
}

void Explorer::recordViolation(const Hit& hit, ExploreResult& out)
{
    out.violated = true;
    Violation v;
    if (hit.check < 0) {
        v.kind = Violation::Kind::RuntimeError;
        v.what = hit.trapText;
    } else {
        const Check& ck = checks_[static_cast<std::size_t>(hit.check)];
        v.kind = ck.kind;
        v.what = ck.name;
        v.signal = ck.signal;
        v.state = hit.state;
        if (ck.kind != Violation::Kind::Predicate) {
            const bool onMonitor = ck.kind == Violation::Kind::MonitorSignal;
            const ModuleSema& sema = onMonitor ? *monSema_ : sema_;
            const rt::InstanceLayout& layout =
                onMonitor ? monLayout_ : layout_;
            const SignalInfo& sig =
                sema.signals[static_cast<std::size_t>(ck.signal)];
            if (!sig.pure) {
                const std::uint8_t* data =
                    v.state.data() + headerBytes_ +
                    (onMonitor ? layout_.dataBytes : 0);
                v.value = Value::fromBytes(
                    sig.valueType,
                    data +
                        layout.sigOffsets[static_cast<std::size_t>(
                            ck.signal)]);
            }
        }
    }
    out.trace = buildTrace(hit.parent, hit.letter);
    v.depth = static_cast<int>(out.trace.instants.size());
    out.violation = std::move(v);
}

rt::InputTrace Explorer::buildTrace(std::uint32_t parent,
                                    std::uint32_t letterIdx) const
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> chain;
    chain.emplace_back(parent, letterIdx);
    std::uint32_t cur = parent;
    while (cur != 0) {
        const ParentLink& pl = parents_[cur];
        chain.emplace_back(pl.parent, pl.letter);
        cur = pl.parent;
    }
    std::reverse(chain.begin(), chain.end());
    rt::InputTrace trace = rt::InputTrace::forModule(sema_, sema_.name);
    trace.instants.reserve(chain.size());
    for (const auto& [stateId, letter] : chain) {
        // designStates_ carries every id's control state: trace
        // rebuilding must not read the store (bitstate retains no
        // records).
        const std::size_t ds =
            static_cast<std::size_t>(designStates_[stateId]);
        rt::TraceInstant& in = trace.instants.emplace_back();
        for (const auto& [sig, dom] : alphabet_[ds].letters[letter].sets) {
            rt::TraceEvent& ev = in.inputs.emplace_back();
            ev.signal = static_cast<std::uint32_t>(sig);
            if (dom < 0) continue;
            const Value& v = domains_[static_cast<std::size_t>(sig)]
                                     [static_cast<std::size_t>(dom)];
            ev.value.assign(v.data(), v.data() + v.size());
        }
    }
    return trace;
}

// ---------------------------------------------------------------------------
// Explorer: worker pool + main loops
// ---------------------------------------------------------------------------

ExploreResult Explorer::run()
{
    if (ran_)
        throw EclError("Explorer::run is single-shot; build a fresh "
                       "explorer per run");
    ran_ = true;

    headerBytes_ = monSema_ ? 8 : 4;
    packedSize_ = headerBytes_ + layout_.dataBytes +
                  (monSema_ ? monLayout_.dataBytes : 0);
    store_ = StateStore::make(options_.storeKind, packedSize_,
                              options_.storeBudgetBytes);
    exact_ = dynamic_cast<ExactStore*>(store_.get());
    buildAlphabet();
    resolveChecks();
    if (options_.partialOrder) computePartialOrder();

    // Root: pre-boot — initial control states, all data zero. The first
    // explored instant is the boot reaction (which may consume inputs).
    std::vector<std::uint8_t> root(packedSize_, 0);
    writeI32(root.data(), flat_.initialState);
    if (monSema_) writeI32(root.data() + 4, monFlat_->initialState);
    store_->intern(root.data());
    designStates_.push_back(flat_.initialState);
    parents_.push_back({std::numeric_limits<std::uint32_t>::max(), 0});
    if (!exact_) {
        levelRecs_.emplace(packedSize_);
        std::memcpy(levelRecs_->push(), root.data(), packedSize_);
    }
    levelBase_ = 0;

    const auto t0 = std::chrono::steady_clock::now();
    ExploreResult out = runBfs();
    const auto t1 = std::chrono::steady_clock::now();

    out.stats.states = store_->size();
    out.stats.controlStates = flat_.states.size();
    out.stats.storeKind = store_->kind();
    out.stats.lossyStore = store_->lossy();
    out.stats.storeMemoryBytes = store_->memoryBytes();
    out.stats.usedNativeSuccessors =
        std::string_view(workers_.front()->design.reactor.backendName()) ==
        "native";
    for (const auto& w : workers_)
        out.stats.lettersReduced += w->lettersReduced;
    out.stats.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.stats.statesPerSec =
        out.stats.seconds > 0
            ? static_cast<double>(out.stats.states) / out.stats.seconds
            : 0;

    // Only run() reads the rest: free it and keep the store. Assigning a
    // fresh value frees the capacity that clear() would keep.
    auto release = [](auto& x) { x = std::remove_reference_t<decltype(x)>(); };
    release(workers_);
    release(ranges_);
    release(firstSeen_);
    levelRecs_.reset();
    release(parents_);
    release(designStates_);
    release(alphabet_);
    release(domains_);
    return out;
}

void Explorer::runPhase(int t)
{
    const auto i = static_cast<std::size_t>(t);
    Worker& w = *workers_[i];
    try {
        switch (phase_) {
        case Phase::Expand:
            expandRange(w, ranges_[i].first, ranges_[i].second);
            break;
        case Phase::Dedupe:
            dedupeShards(i);
            break;
        case Phase::Place:
            placeRecords(i);
            placeIndex(i);
            break;
        }
    } catch (...) {
        w.fatal = std::current_exception();
    }
}

ExploreResult Explorer::runBfs()
{
    const int T = std::max(1, options_.threads);
    // The pool first: it refuses a thread count past rt::kMaxThreads
    // before any worker is built. Failures land in the worker's
    // exception_ptr, rethrown after each epoch.
    rt::WorkerPool pool(T, [this](int t) { runPhase(t); });
    workers_.clear();
    for (int i = 0; i < T; ++i)
        workers_.push_back(std::make_unique<Worker>(*this));
    ranges_.assign(static_cast<std::size_t>(T), {0, 0});
    auto epoch = [&](Phase phase) {
        phase_ = phase;
        pool.run();
        for (const auto& w : workers_)
            if (w->fatal) std::rethrow_exception(w->fatal);
    };

    ExploreResult out;
    std::uint32_t levelBegin = 0;
    std::uint32_t levelEnd = 1;
    int depth = 0;
    bool capped = false;
    bool stopped = false;

    // Phase split: one clock read closes each phase and opens the next.
    auto mark = std::chrono::steady_clock::now();
    auto lap = [&mark] {
        const auto now = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(now - mark).count();
        mark = now;
        return s;
    };

    out.stats.peakFrontier = 1;
    while (levelBegin < levelEnd && depth < options_.maxDepth && !stopped &&
           !capped) {
        for (const auto& w : workers_) {
            w->packed.clear();
            w->succs.clear();
            for (auto& bucket : w->buckets) bucket.clear();
            w->transitions = 0;
        }
        const std::uint32_t n = levelEnd - levelBegin;
        const std::uint32_t chunk = (n + static_cast<std::uint32_t>(T) - 1) /
                                    static_cast<std::uint32_t>(T);
        for (std::size_t w = 0; w < static_cast<std::size_t>(T); ++w) {
            const std::uint32_t b =
                std::min(n, static_cast<std::uint32_t>(w) * chunk);
            ranges_[w] = {levelBegin + b, levelBegin + std::min(n, b + chunk)};
        }
        epoch(Phase::Expand);
        out.stats.expandSeconds += lap();

        ++depth;
        // Worker chunks are contiguous ascending frontier ranges, so
        // worker order then successor order IS frontier x letter order:
        // ids and the first violation are thread-count independent.
        epoch(Phase::Dedupe);
        stopped = commitLevel(out);
        levelBegin = levelEnd;
        levelEnd = store_->size();
        parents_.resize(levelEnd);
        designStates_.resize(levelEnd);
        // Expansion is over, so a bitstate level buffer takes the next
        // level in place of this one.
        levelBase_ = levelBegin;
        if (!exact_) levelRecs_->resize(levelEnd - levelBegin);
        epoch(Phase::Place);

        out.stats.peakFrontier =
            std::max(out.stats.peakFrontier,
                     static_cast<std::uint64_t>(levelEnd - levelBegin));
        out.stats.depthReached = depth;
        if (store_->size() >= options_.maxStates) capped = true;
        if (options_.storeBudgetBytes != 0 && !store_->lossy() &&
            store_->memoryBytes() > options_.storeBudgetBytes)
            capped = true;
        out.stats.mergeSeconds += lap();
    }

    for (const auto& w : workers_)
        if (w->sawTruncation) out.stats.alphabetTruncated = true;
    out.stats.complete = !stopped && !capped &&
                         !out.stats.alphabetTruncated &&
                         levelBegin == levelEnd;
    return out;
}

std::uint64_t Explorer::stateDigest() const
{
    if (!store_) throw EclError("stateDigest before run()");
    return store_->digest();
}

const StateStore& Explorer::stateStore() const
{
    if (!store_) throw EclError("stateStore before run()");
    return *store_;
}

} // namespace ecl::verify
