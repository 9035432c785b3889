#include "src/serve/fleet.h"

#include <algorithm>

namespace ecl::serve {

ShardedFleet::ShardedFleet(std::shared_ptr<const CompiledModule> mod,
                           FleetOptions options)
    : mod_(std::move(mod)), opts_(options)
{
    if (!mod_) throw EclError("ShardedFleet: null module");
    if (opts_.shards < 1) opts_.shards = 1;
    threads_ = std::clamp(opts_.threads, 1, opts_.shards);
    // The pool first: it refuses a thread count past rt::kMaxThreads
    // before any shard is built.
    pool_ = std::make_unique<rt::WorkerPool>(threads_,
                                             [this](int w) { runWorker(w); });
    fingerprint_ = compileFingerprint(*mod_);

    shards_.reserve(static_cast<std::size_t>(opts_.shards));
    for (int s = 0; s < opts_.shards; ++s) {
        // Each shard engine is single-threaded: parallelism lives at the
        // fleet level (one pinned worker per shard), never nested.
        auto engine = mod_->makeBatchEngine(0, rt::BatchOptions{1}, opts_.kind);
        shards_.push_back(
            std::make_unique<Shard>(std::move(engine), opts_.queueCapacity));
    }

    std::size_t totalRing = 0;
    for (const auto& sh : shards_) totalRing += sh->ring.capacity();
    highWater_ = std::max<std::size_t>(totalRing / 2, 1);
    lowWater_ = highWater_ / 2;
}

ShardedFleet::~ShardedFleet() = default;

// --- admission ---

AdmitStatus ShardedFleet::admissionGate()
{
    const std::uint64_t backlog = queuedEvents();
    if (paused_) {
        if (backlog <= lowWater_) paused_ = false;
    } else if (backlog >= highWater_) {
        paused_ = true;
    }
    if (paused_) {
        ++rejectedPaused_;
        return AdmitStatus::Paused;
    }
    if (opts_.maxSessions && liveSessions_ >= opts_.maxSessions) {
        ++rejectedFull_;
        return AdmitStatus::FleetFull;
    }
    if (nextId_.load(std::memory_order_relaxed) >= SessionTable::idCapacity())
        return AdmitStatus::IdSpaceExhausted;
    return AdmitStatus::Ok;
}

std::uint32_t ShardedFleet::allocSlot(Shard& sh)
{
    if (!sh.freeSlots.empty()) {
        const std::uint32_t slot = sh.freeSlots.back();
        sh.freeSlots.pop_back();
        return slot;
    }
    const std::uint32_t slot =
        static_cast<std::uint32_t>(sh.engine->addInstance());
    sh.sessionOfSlot.resize(slot + 1, 0);
    return slot;
}

AdmitResult ShardedFleet::admit()
{
    AdmitResult r = admitOn(rrShard_);
    rrShard_ = (rrShard_ + 1) % static_cast<std::uint32_t>(shards_.size());
    return r;
}

AdmitResult ShardedFleet::admitOn(std::uint32_t shard)
{
    if (shard >= shards_.size()) return {AdmitStatus::BadShard, 0, 0, 0};
    const AdmitStatus gate = admissionGate();
    if (gate != AdmitStatus::Ok) return {gate, 0, 0, 0};

    Shard& sh = *shards_[shard];
    std::uint32_t slot;
    if (!sh.freeSlots.empty()) {
        // A reused slot carries the previous tenant's bytes — return it
        // to the post-addInstance state (boot pending); a fresh slot
        // already is.
        slot = sh.freeSlots.back();
        sh.freeSlots.pop_back();
        sh.engine->resetInstance(slot);
    } else {
        slot = static_cast<std::uint32_t>(sh.engine->addInstance());
        sh.sessionOfSlot.resize(slot + 1, 0);
    }
    const SessionId id = nextId_.fetch_add(1, std::memory_order_relaxed);
    sh.sessionOfSlot[slot] = id;
    table_.set(id, shard, slot);
    ++sh.liveSessions;
    ++sh.admitted;
    ++liveSessions_;
    ++admitted_;
    return {AdmitStatus::Ok, id, shard, slot};
}

bool ShardedFleet::endSession(SessionId id)
{
    const std::uint64_t packed = table_.lookup(id);
    if (packed == SessionTable::kInvalid) return false;
    Shard& sh = *shards_[SessionTable::shardOf(packed)];
    const std::uint32_t slot = SessionTable::slotOf(packed);
    table_.erase(id); // Unmap first: queued events now drop at dequeue.
    sh.engine->parkInstance(slot);
    sh.sessionOfSlot[slot] = 0;
    sh.freeSlots.push_back(slot);
    --sh.liveSessions;
    --liveSessions_;
    return true;
}

// --- checkpoint / restore / migration ---

std::uint64_t ShardedFleet::locatePacked(SessionId id) const
{
    const std::uint64_t packed = table_.lookup(id);
    if (packed == SessionTable::kInvalid)
        throw EclError("fleet: unknown session " + std::to_string(id));
    return packed;
}

std::vector<std::uint8_t> ShardedFleet::checkpointSession(SessionId id) const
{
    const std::uint64_t packed = locatePacked(id);
    const Shard& sh = *shards_[SessionTable::shardOf(packed)];
    const std::uint32_t slot = SessionTable::slotOf(packed);
    if (sh.engine->hasStagedInputs(slot))
        throw EclError("fleet: session " + std::to_string(id) +
                       " has staged inputs; step the fleet before "
                       "checkpointing");
    SessionCheckpoint cp;
    cp.fingerprint = fingerprint_;
    cp.sessionId = id;
    cp.terminated = sh.engine->terminated(slot);
    cp.autoResume = sh.engine->needsAutoResume(slot);
    cp.state = sh.engine->packInstanceState(slot);
    ++checkpoints_;
    return serializeCheckpoint(cp);
}

RestoreResult ShardedFleet::restoreSession(const std::uint8_t* data,
                                           std::size_t size)
{
    SessionCheckpoint cp;
    try {
        cp = parseCheckpoint(data, size);
    } catch (const EclError&) {
        return {RestoreStatus::BadFormat, 0, 0, 0};
    }
    if (cp.fingerprint != fingerprint_)
        return {RestoreStatus::FingerprintMismatch, 0, 0, 0};

    switch (admissionGate()) {
    case AdmitStatus::Ok: break;
    case AdmitStatus::Paused: return {RestoreStatus::Paused, 0, 0, 0};
    case AdmitStatus::FleetFull: return {RestoreStatus::FleetFull, 0, 0, 0};
    default: return {RestoreStatus::IdSpaceExhausted, 0, 0, 0};
    }

    const std::uint32_t shard = rrShard_;
    rrShard_ = (rrShard_ + 1) % static_cast<std::uint32_t>(shards_.size());
    Shard& sh = *shards_[shard];
    const std::uint32_t slot = allocSlot(sh);
    try {
        sh.engine->restoreInstanceState(slot, cp.state.data(),
                                        cp.state.size());
    } catch (const EclError&) {
        // Structurally valid envelope, inconsistent payload (hand-edited
        // or corrupted past the fingerprint): roll the slot back.
        sh.engine->parkInstance(slot);
        sh.freeSlots.push_back(slot);
        return {RestoreStatus::BadState, 0, 0, 0};
    }
    const SessionId id = nextId_.fetch_add(1, std::memory_order_relaxed);
    sh.sessionOfSlot[slot] = id;
    table_.set(id, shard, slot);
    ++sh.liveSessions;
    ++liveSessions_;
    ++restores_;
    return {RestoreStatus::Ok, id, shard, slot};
}

MigrateStatus ShardedFleet::migrate(SessionId id, std::uint32_t targetShard)
{
    if (targetShard >= shards_.size()) return MigrateStatus::BadShard;
    const std::uint64_t packed = table_.lookup(id);
    if (packed == SessionTable::kInvalid) return MigrateStatus::UnknownSession;
    const std::uint32_t srcShard = SessionTable::shardOf(packed);
    if (srcShard == targetShard) return MigrateStatus::SameShard;
    Shard& src = *shards_[srcShard];
    const std::uint32_t srcSlot = SessionTable::slotOf(packed);
    if (src.engine->hasStagedInputs(srcSlot)) return MigrateStatus::StagedInputs;

    // Checkpoint bytes out of the source, into a reused (or fresh) slot
    // on the target, then ONE atomic table flip. Events already queued on
    // the source shard re-resolve at dequeue and are forwarded.
    const std::vector<std::uint8_t> state =
        src.engine->packInstanceState(srcSlot);
    Shard& tgt = *shards_[targetShard];
    const std::uint32_t tgtSlot = allocSlot(tgt);
    tgt.engine->restoreInstanceState(tgtSlot, state.data(), state.size());
    tgt.sessionOfSlot[tgtSlot] = id;

    src.engine->parkInstance(srcSlot);
    src.sessionOfSlot[srcSlot] = 0;
    src.freeSlots.push_back(srcSlot);

    table_.set(id, targetShard, tgtSlot);
    --src.liveSessions;
    ++src.migratedOut;
    ++tgt.liveSessions;
    ++tgt.migratedIn;
    ++migrations_;
    return MigrateStatus::Ok;
}

std::size_t ShardedFleet::rebalance(std::size_t maxMoves)
{
    if (shards_.size() < 2) return 0;
    std::size_t moved = 0;
    while (moved < maxMoves) {
        // Re-pick the hottest/coldest pair every move so the whole fleet
        // converges, not just the initially most-skewed pair.
        std::size_t hot = 0, cold = 0;
        for (std::size_t s = 1; s < shards_.size(); ++s) {
            if (shards_[s]->liveSessions > shards_[hot]->liveSessions)
                hot = s;
            if (shards_[s]->liveSessions < shards_[cold]->liveSessions)
                cold = s;
        }
        if (shards_[hot]->liveSessions <= shards_[cold]->liveSessions + 1)
            break;
        // Uproot the hot shard's newest live slot (recently admitted
        // sessions are the cheapest to move — cold caches).
        Shard& src = *shards_[hot];
        SessionId victim = 0;
        for (std::size_t i = src.sessionOfSlot.size(); i-- > 0;)
            if (src.sessionOfSlot[i] != 0) {
                victim = src.sessionOfSlot[i];
                break;
            }
        if (victim == 0 ||
            migrate(victim, static_cast<std::uint32_t>(cold)) !=
                MigrateStatus::Ok)
            break;
        ++moved;
    }
    return moved;
}

// --- data plane ---

// submit() stages the presence of any input; submitScalar() carries a
// scalar value too (an aggregate value does not fit a POD ring cell).

SubmitStatus ShardedFleet::submit(SessionId id, int sigIndex)
{
    if (!mod_->inputTable()[sigIndex].input) return SubmitStatus::BadSignal;
    const std::uint64_t packed = table_.lookup(id);
    if (packed == SessionTable::kInvalid) return SubmitStatus::UnknownSession;
    Shard& sh = *shards_[SessionTable::shardOf(packed)];
    IngressEvent ev;
    ev.session = id;
    ev.signal = sigIndex;
    ev.kind = EventKind::Pure;
    if (!sh.ring.tryPush(ev)) {
        sh.rejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
        return SubmitStatus::QueueFull;
    }
    return SubmitStatus::Ok;
}

SubmitStatus ShardedFleet::submitScalar(SessionId id, int sigIndex,
                                        std::int64_t v)
{
    const rt::InputSlot slot = mod_->inputTable()[sigIndex];
    if (!slot.input) return SubmitStatus::BadSignal;
    if (slot.width == 0) return SubmitStatus::NotScalar;
    const std::uint64_t packed = table_.lookup(id);
    if (packed == SessionTable::kInvalid) return SubmitStatus::UnknownSession;
    Shard& sh = *shards_[SessionTable::shardOf(packed)];
    IngressEvent ev;
    ev.session = id;
    ev.signal = sigIndex;
    ev.kind = EventKind::Scalar;
    ev.value = v;
    if (!sh.ring.tryPush(ev)) {
        sh.rejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
        return SubmitStatus::QueueFull;
    }
    return SubmitStatus::Ok;
}

// --- scheduling ---

void ShardedFleet::drainRing(Shard& sh, std::uint32_t shardIndex)
{
    // Bounded per round: producers may keep pushing while we drain, so
    // cap the pops at one full ring — leftovers go to the next round.
    std::size_t budget = sh.ring.capacity();
    IngressEvent ev;
    while (budget-- > 0 && sh.ring.tryPop(ev)) {
        const std::uint64_t packed = table_.lookup(ev.session);
        if (packed == SessionTable::kInvalid) {
            // Session ended while the event was in flight.
            ++sh.eventsDropped;
            continue;
        }
        const std::uint32_t owner = SessionTable::shardOf(packed);
        if (owner != shardIndex) {
            // Migrated since enqueue: forward to the current home. The
            // control plane is quiescent during a round, so one hop
            // always lands (the target drains it this round or next).
            if (shards_[owner]->ring.tryPush(ev))
                ++sh.eventsForwarded;
            else
                ++sh.eventsDropped;
            continue;
        }
        const std::uint32_t slot = SessionTable::slotOf(packed);
        if (ev.kind == EventKind::Pure)
            sh.engine->setInput(slot, ev.signal);
        else
            sh.engine->setInputScalar(slot, ev.signal, ev.value);
        ++sh.eventsApplied;
    }
}

void ShardedFleet::runWorker(int w)
{
    for (std::size_t s = static_cast<std::size_t>(w); s < shards_.size();
         s += static_cast<std::size_t>(threads_)) {
        Shard& sh = *shards_[s];
        if (!sh.active) continue;
        try {
            drainRing(sh, static_cast<std::uint32_t>(s));
            // Marked before step(): a step that traps still reacted every
            // other instance, and their events must be collected.
            sh.stepped = 1;
            sh.lastStepReactions = 0;
            const std::size_t n = sh.engine->step();
            sh.lastStepReactions = n;
            sh.reactions += n;
            ++sh.steps;
        } catch (...) {
            sh.error = std::current_exception();
        }
    }
}

std::size_t ShardedFleet::step()
{
    int maxOwner = -1;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& sh = *shards_[s];
        sh.stepped = 0;
        sh.active = (sh.ring.approxSize() > 0 || sh.engine->hasPendingWork())
                        ? 1
                        : 0;
        if (sh.active) maxOwner = std::max(maxOwner, ownerOf(s));
    }
    if (maxOwner < 0) return 0;

    pool_->run(maxOwner + 1);

    // Clear every shard's error before rethrowing the first, so none
    // resurfaces stale in a later round.
    std::exception_ptr error;
    std::size_t reactions = 0;
    for (auto& shp : shards_) {
        Shard& sh = *shp;
        if (sh.error) {
            if (!error) error = sh.error;
            sh.error = nullptr;
        }
        if (sh.stepped) reactions += sh.lastStepReactions;
    }
    if (error) std::rethrow_exception(error);
    ++rounds_;
    reactions_ += reactions;
    return reactions;
}

std::size_t ShardedFleet::drainAll(int maxRounds)
{
    std::size_t total = 0;
    for (int r = 0; r < maxRounds && hasPendingTraffic(); ++r)
        total += step();
    return total;
}

std::uint64_t ShardedFleet::queuedEvents() const
{
    std::uint64_t backlog = 0;
    for (const auto& sh : shards_) backlog += sh->ring.approxSize();
    return backlog;
}

bool ShardedFleet::hasPendingTraffic() const
{
    for (const auto& sh : shards_)
        if (sh->ring.approxSize() > 0 || sh->engine->hasPendingWork())
            return true;
    return false;
}

// --- introspection ---

const rt::BatchEngine& ShardedFleet::shardEngine(std::size_t s) const
{
    if (s >= shards_.size())
        throw EclError("fleet: shard " + std::to_string(s) + " out of range");
    return *shards_[s]->engine;
}

std::pair<std::uint32_t, std::uint32_t> ShardedFleet::locate(SessionId id) const
{
    const std::uint64_t packed = locatePacked(id);
    return {SessionTable::shardOf(packed), SessionTable::slotOf(packed)};
}

bool ShardedFleet::outputPresent(SessionId id, int sigIndex) const
{
    const std::uint64_t packed = locatePacked(id);
    return shards_[SessionTable::shardOf(packed)]->engine->outputPresent(
        SessionTable::slotOf(packed), sigIndex);
}

Value ShardedFleet::outputValue(SessionId id, int sigIndex) const
{
    const std::uint64_t packed = locatePacked(id);
    return shards_[SessionTable::shardOf(packed)]->engine->outputValue(
        SessionTable::slotOf(packed), sigIndex);
}

bool ShardedFleet::terminated(SessionId id) const
{
    const std::uint64_t packed = locatePacked(id);
    return shards_[SessionTable::shardOf(packed)]->engine->terminated(
        SessionTable::slotOf(packed));
}

std::vector<std::uint8_t> ShardedFleet::packSessionState(SessionId id) const
{
    const std::uint64_t packed = locatePacked(id);
    return shards_[SessionTable::shardOf(packed)]->engine->packInstanceState(
        SessionTable::slotOf(packed));
}

void ShardedFleet::collectLastRoundEvents(std::vector<SessionEvent>& out) const
{
    for (const auto& shp : shards_) {
        const Shard& sh = *shp;
        if (!sh.stepped) continue;
        for (const rt::BatchEngine::StepEvent& ev :
             sh.engine->lastStepEvents()) {
            const SessionId id = sh.sessionOfSlot[ev.instance];
            if (id != 0) out.push_back({id, ev.signal});
        }
    }
}

FleetStats ShardedFleet::stats() const
{
    FleetStats st;
    st.shards.reserve(shards_.size());
    for (const auto& shp : shards_) {
        const Shard& sh = *shp;
        ShardStats ss;
        ss.liveSessions = sh.liveSessions;
        ss.admitted = sh.admitted;
        ss.migratedIn = sh.migratedIn;
        ss.migratedOut = sh.migratedOut;
        ss.steps = sh.steps;
        ss.reactions = sh.reactions;
        ss.eventsApplied = sh.eventsApplied;
        ss.eventsForwarded = sh.eventsForwarded;
        ss.eventsDropped = sh.eventsDropped;
        ss.rejectedQueueFull =
            sh.rejectedQueueFull.load(std::memory_order_relaxed);
        ss.queueDepth = sh.ring.approxSize();
        st.shards.push_back(ss);
    }
    st.liveSessions = liveSessions_;
    st.admitted = admitted_;
    st.rejectedPaused = rejectedPaused_;
    st.rejectedFull = rejectedFull_;
    st.migrations = migrations_;
    st.checkpoints = checkpoints_;
    st.restores = restores_;
    st.rounds = rounds_;
    st.reactions = reactions_;
    st.pendingEvents = queuedEvents();
    return st;
}

} // namespace ecl::serve
