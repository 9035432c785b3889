#include "src/runtime/batch_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <type_traits>

namespace ecl::rt {

namespace {

/// Minimum reactions per participating worker: below this, waking a
/// helper (futex + cache handoff) costs more than reacting the
/// instances on the caller. Sized so a sparse step with a handful of
/// dirty instances runs caller-only while CI's dense workload (1000
/// instances / 4 threads) still uses every worker.
constexpr std::size_t kMinShardGrain = 128;

/// Reactions ahead of the current one whose record a worker prefetches.
constexpr std::size_t kPrefetchAhead = 4;

/// Bytes of that record prefetched: 8 cache lines cover a protocol-stack
/// record whole on either backend (under 300 bytes), while a record of
/// megabytes is not pulled into the cache for every reaction.
constexpr std::size_t kPrefetchBytes = 8 * 64;

// A record holds the VM's ExecCounters as plain bytes.
static_assert(std::is_trivially_copyable_v<ExecCounters>);

std::size_t align8(std::size_t n) { return (n + 7) / 8 * 8; }

} // namespace

// ---------------------------------------------------------------------------
// BatchEngine
// ---------------------------------------------------------------------------

BatchEngine::BatchEngine(const efsm::FlatProgram& flat,
                         std::shared_ptr<const bc::Program> code,
                         const ModuleSema& sema, const InputTable& inputs,
                         std::size_t instances, BatchOptions options,
                         std::shared_ptr<const NativeModule> native)
    : flat_(flat), sema_(sema), inputs_(inputs),
      // Fixed per-instance arena layout (shared with the verification
      // explorer's packed states): variables first, then valued-signal
      // slots, each 8-byte aligned; the whole slice padded to 64 bytes.
      layout_(computeInstanceLayout(sema_)),
      // The record: the slice, both presence rows, then the counts, each
      // 8-byte aligned. Only the VM fills ExecCounters, so only its
      // records hold them.
      presentOff_(layout_.stride),
      lastPresentOff_(align8(presentOff_ + sema_.signals.size())),
      countsOff_(align8(lastPresentOff_ + sema_.signals.size())),
      recordBytes_(countsOff_ + sizeof(Counts) +
                   (native ? 0 : sizeof(ExecCounters))),
      records_(recordBytes_)
{
    // The pool first: it refuses a thread count past kMaxThreads before
    // any reactor is built.
    const int t = std::max(1, options.threads);
    pool_ = std::make_unique<WorkerPool>(t, [this](int w) { runShard(w); });
    shards_.reserve(static_cast<std::size_t>(t));
    for (int w = 0; w < t; ++w)
        shards_.push_back(std::make_unique<Shard>(
            Reactor(sema_, flat_, layout_, code, native)));
    ranges_.resize(static_cast<std::size_t>(t));

    for (std::size_t i = 0; i < instances; ++i) addInstance();
}

std::size_t BatchEngine::addInstance()
{
    const std::size_t id = state_.size();
    std::memset(records_.push(), 0, recordBytes_);
    state_.push_back(flat_.initialState);
    instantOpen_.push_back(0);
    reacted_.push_back(0);
    if ((id & 63) == 0) dirtyBits_.push_back(0);
    markDirty(id); // boot reaction pending
    return id;
}

void BatchEngine::clearInstance(std::size_t inst, std::uint8_t* rec)
{
    std::memset(rec, 0, recordBytes_);
    instantOpen_[inst] = 0;
    clearDirty(inst);
    reacted_[inst] = 0; // a new tenant has no last reaction
}

void BatchEngine::parkInstance(std::size_t inst)
{
    checkInstance(inst);
    clearDirty(inst);
    instantOpen_[inst] = 0;
}

void BatchEngine::resetInstance(std::size_t inst)
{
    checkInstance(inst);
    clearInstance(inst, records_.at(inst));
    state_[inst] = flat_.initialState;
    markDirty(inst); // boot reaction pending, exactly like addInstance
}

void BatchEngine::restoreInstanceState(std::size_t inst,
                                       const std::uint8_t* data,
                                       std::size_t size)
{
    checkInstance(inst);
    if (size != 4 + layout_.dataBytes)
        throw EclError("restoreInstanceState: packed state is " +
                       std::to_string(size) + " bytes, expected " +
                       std::to_string(4 + layout_.dataBytes));
    std::int32_t st = 0;
    std::memcpy(&st, data, 4);
    if (st < 0 || static_cast<std::size_t>(st) >= flat_.states.size())
        throw EclError("restoreInstanceState: control state " +
                       std::to_string(st) + " out of range (machine has " +
                       std::to_string(flat_.states.size()) + " states)");
    std::uint8_t* rec = records_.at(inst);
    clearInstance(inst, rec);
    state_[inst] = st;
    std::memcpy(rec, data + 4, layout_.dataBytes);
    // The snapshot is post-boot: only a delta pause re-schedules it.
    if (flat_.states[static_cast<std::size_t>(st)].autoResume)
        markDirty(inst);
}

const SignalInfo& BatchEngine::checkSignal(std::size_t inst,
                                           int sigIndex) const
{
    checkInstance(inst);
    return checkedSignal(sema_, sigIndex);
}

const SignalInfo& BatchEngine::checkInput(std::size_t inst,
                                          int sigIndex) const
{
    checkInstance(inst);
    return checkedInput(sema_, sigIndex);
}

void BatchEngine::markDirty(std::size_t inst)
{
    std::uint64_t& word = dirtyBits_[inst >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (inst & 63);
    if (word & bit) return;
    word |= bit;
    ++dirtyCount_;
}

void BatchEngine::clearDirty(std::size_t inst)
{
    std::uint64_t& word = dirtyBits_[inst >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (inst & 63);
    if (!(word & bit)) return;
    word &= ~bit;
    --dirtyCount_;
}

void BatchEngine::openInstant(std::size_t inst, std::uint8_t* rec)
{
    if (instantOpen_[inst]) return;
    instantOpen_[inst] = 1;
    if (const std::size_t S = sema_.signals.size())
        std::memset(rec + presentOff_, 0, S);
}

// The two staging calls a serving layer makes per event accept through
// the module's InputTable; a rejected call goes to the shared checks,
// which throw the engines' one error text.

void BatchEngine::setInput(std::size_t inst, int sigIndex)
{
    if (inst >= state_.size() || !inputs_[sigIndex].input) [[unlikely]]
        checkInput(inst, sigIndex);
    std::uint8_t* rec = records_.at(inst);
    openInstant(inst, rec);
    rec[presentOff_ + static_cast<std::size_t>(sigIndex)] = 1;
    markDirty(inst);
}

void BatchEngine::setInputScalar(std::size_t inst, int sigIndex,
                                 std::int64_t v)
{
    const InputSlot slot = inputs_[sigIndex];
    if (inst >= state_.size() || slot.width == 0) [[unlikely]] {
        checkInstance(inst);
        checkedScalarInput(sema_, sigIndex);
    }
    std::uint8_t* rec = records_.at(inst);
    openInstant(inst, rec);
    const auto sig = static_cast<std::size_t>(sigIndex);
    storeScalar(rec + layout_.sigOffsets[sig], slot, v);
    rec[presentOff_ + sig] = 1;
    markDirty(inst);
}

void BatchEngine::setInputValue(std::size_t inst, int sigIndex,
                                const Value& v)
{
    const SignalInfo& info = checkInput(inst, sigIndex);
    std::uint8_t* rec = records_.at(inst);
    // The write validates the value; a rejected one leaves no instant open.
    writeSignalValue(rec, layout_, info, v);
    openInstant(inst, rec);
    rec[presentOff_ + static_cast<std::size_t>(sigIndex)] = 1;
    markDirty(inst);
}

void BatchEngine::reactOne(Shard& shard, std::size_t inst)
{
    const std::size_t S = sema_.signals.size();
    std::uint8_t* rec = records_.at(inst);
    std::uint8_t* present = rec + presentOff_;

    if (!instantOpen_[inst] && S != 0) std::memset(present, 0, S);
    instantOpen_[inst] = 0;
    ++shard.reactions;

    // Only a completed reaction gets this far: a trap leaves the previous
    // presence row and counts in the record, no events and no reacted
    // mark.
    const Outcome out = shard.reactor.react(rec, present, state_[inst]);
    state_[inst] = out.state;
    const auto id = static_cast<std::uint32_t>(inst);
    for (std::int32_t k = 0; k < out.emitted; ++k)
        shard.events.push_back({id, shard.reactor.ring()[k]});
    if (S != 0) std::memcpy(rec + lastPresentOff_, present, S);
    const Counts counts{out.treeTests, out.actionsRun, out.emitsRun};
    std::memcpy(rec + countsOff_, &counts, sizeof counts);
    if (const ExecCounters* data = shard.reactor.dataCounters())
        std::memcpy(rec + countsOff_ + sizeof counts, data,
                    sizeof(ExecCounters));
    reacted_[inst] = out.terminated ? kReacted | kTerminated : kReacted;
}

void BatchEngine::runShard(int w)
{
    Shard& s = *shards_[static_cast<std::size_t>(w)];
    const auto [begin, end] = ranges_[static_cast<std::size_t>(w)];
    // A trap ends its own instance's reaction, not the range: instances
    // are independent, so the rest still react.
    for (std::size_t i = begin; i < end; ++i) {
        if (i + kPrefetchAhead < end) {
            const std::uint8_t* ahead = records_.at(work_[i + kPrefetchAhead]);
            const std::size_t bytes = std::min(recordBytes_, kPrefetchBytes);
            for (std::size_t b = 0; b < bytes; b += 64)
                __builtin_prefetch(ahead + b, 1);
        }
        try {
            reactOne(s, work_[i]);
        } catch (...) {
            if (!s.error) s.error = std::current_exception();
        }
    }
}

std::size_t BatchEngine::runStep(bool all)
{
    // Clear the reacted flags of exactly the instances the previous step
    // touched. The sparse path must never pay an O(instances) fill for a
    // handful of dirty instances — that fill alone dominated the old
    // per-dispatched-reaction cost.
    for (const std::uint32_t inst : work_) reacted_[inst] = 0;

    work_.clear();
    if (all) {
        work_.resize(state_.size());
        std::iota(work_.begin(), work_.end(), std::uint32_t{0});
        std::fill(dirtyBits_.begin(), dirtyBits_.end(), 0);
    } else {
        // The bitmap yields the marked instances in ascending order; the
        // scan stops at the word holding the last of them.
        for (std::size_t w = 0;
             w < dirtyBits_.size() && work_.size() < dirtyCount_; ++w) {
            std::uint64_t bits = dirtyBits_[w];
            if (bits == 0) continue;
            dirtyBits_[w] = 0;
            const auto base = static_cast<std::uint32_t>(w << 6);
            do {
                work_.push_back(
                    base + static_cast<std::uint32_t>(std::countr_zero(bits)));
                bits &= bits - 1;
            } while (bits != 0);
        }
    }
    dirtyCount_ = 0;
    stepEvents_.clear();
    eventsMerged_ = true;
    participants_ = 0;
    if (work_.empty()) return 0;

    // Small epochs run on fewer workers (down to the caller alone):
    // below kMinShardGrain reactions per worker the wakeup costs more
    // than the work, and the contiguous partition keeps the merged
    // event order identical however many participate.
    std::size_t parts = work_.size() / kMinShardGrain;
    if (parts < 1) parts = 1;
    if (parts > shards_.size()) parts = shards_.size();
    for (std::size_t w = 0; w < parts; ++w) {
        Shard& s = *shards_[w];
        s.events.clear();
        s.reactions = 0;
        s.error = nullptr;
    }
    const std::size_t chunk = (work_.size() + parts - 1) / parts;
    for (std::size_t w = 0; w < parts; ++w) {
        const std::size_t b = std::min(work_.size(), w * chunk);
        ranges_[w] = {b, std::min(work_.size(), b + chunk)};
    }
    participants_ = parts;
    eventsMerged_ = false;

    pool_->run(static_cast<int>(parts));

    // Delta pauses keep instances scheduled without new events (the same
    // rule rtos::Network applies to its tasks) — also in a step that
    // trapped, so the instances that did react resume next step.
    for (std::uint32_t inst : work_)
        if (flat_.states[static_cast<std::size_t>(state_[inst])].autoResume)
            markDirty(inst);

    // Shards cover work_ in ascending order, so the first error belongs
    // to the lowest trapping instance id, whatever the thread count.
    std::size_t reactions = 0;
    for (std::size_t w = 0; w < parts; ++w) {
        if (shards_[w]->error) std::rethrow_exception(shards_[w]->error);
        reactions += shards_[w]->reactions;
    }
    return reactions;
}

void BatchEngine::mergeStepEvents() const
{
    if (eventsMerged_) return;
    eventsMerged_ = true;
    stepEvents_.clear();
    std::size_t total = 0;
    for (std::size_t w = 0; w < participants_; ++w)
        total += shards_[w]->events.size();
    stepEvents_.reserve(total);
    // Each shard's buffer holds its events in ascending instance order,
    // and the shard ranges partition work_ contiguously — so the
    // concatenation in shard order is ascending too, for any thread count.
    for (std::size_t w = 0; w < participants_; ++w) {
        const std::vector<StepEvent>& ev = shards_[w]->events;
        stepEvents_.insert(stepEvents_.end(), ev.begin(), ev.end());
    }
}

std::size_t BatchEngine::step() { return runStep(/*all=*/false); }

std::size_t BatchEngine::stepAll() { return runStep(/*all=*/true); }

void BatchEngine::checkInstance(std::size_t inst) const
{
    if (inst >= state_.size())
        throw EclError("batch instance " + std::to_string(inst) +
                       " out of range");
}

bool BatchEngine::reactedLastStep(std::size_t inst) const
{
    checkInstance(inst);
    return reacted_[inst] != 0;
}

ReactionResult BatchEngine::lastResult(std::size_t inst) const
{
    checkInstance(inst);
    if (!(reacted_[inst] & kReacted))
        throw EclError("batch instance " + std::to_string(inst) +
                       " did not react in the last step");
    const std::uint8_t* rec = records_.at(inst);
    ReactionResult r;
    Counts counts{};
    std::memcpy(&counts, rec + countsOff_, sizeof counts);
    r.treeTests = counts.treeTests;
    r.actionsRun = counts.actionsRun;
    r.emitsRun = counts.emitsRun;
    if (shards_.front()->reactor.dataCounters()) // VM records hold them
        std::memcpy(&r.dataCounters, rec + countsOff_ + sizeof counts,
                    sizeof r.dataCounters);
    r.terminated = (reacted_[inst] & kTerminated) != 0;
    // The merged events ascend by instance: this instance's outputs are
    // one run of them, in emission order.
    const std::vector<StepEvent>& events = lastStepEvents();
    auto it = std::lower_bound(
        events.begin(), events.end(), inst,
        [](const StepEvent& e, std::size_t i) { return e.instance < i; });
    for (; it != events.end() && it->instance == inst; ++it)
        r.emittedOutputs.push_back(it->signal);
    return r;
}

std::vector<std::uint8_t>
BatchEngine::packInstanceState(std::size_t inst) const
{
    checkInstance(inst);
    return packRecord(state_[inst], records_.at(inst), layout_.dataBytes);
}

bool BatchEngine::outputPresent(std::size_t inst, int sigIndex) const
{
    checkSignal(inst, sigIndex);
    return records_.at(inst)[lastPresentOff_ +
                             static_cast<std::size_t>(sigIndex)] != 0;
}

Value BatchEngine::outputValue(std::size_t inst, int sigIndex) const
{
    const SignalInfo& info = checkSignal(inst, sigIndex);
    return readSignalValue(records_.at(inst), layout_, info);
}

bool BatchEngine::terminated(std::size_t inst) const
{
    checkInstance(inst);
    return flat_.states[static_cast<std::size_t>(state_[inst])].dead;
}

bool BatchEngine::needsAutoResume(std::size_t inst) const
{
    checkInstance(inst);
    return flat_.states[static_cast<std::size_t>(state_[inst])].autoResume;
}

bool BatchEngine::pendingDirty(std::size_t inst) const
{
    checkInstance(inst);
    return (dirtyBits_[inst >> 6] >> (inst & 63)) & 1;
}

bool BatchEngine::hasStagedInputs(std::size_t inst) const
{
    checkInstance(inst);
    return instantOpen_[inst] != 0;
}

bool BatchEngine::hasPendingWork() const { return dirtyCount_ != 0; }

} // namespace ecl::rt
