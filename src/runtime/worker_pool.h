// Persistent spin-then-park worker pool, shared by the batch runtime
// (src/runtime/batch_engine.cpp), the serving fleet (src/serve/fleet.cpp)
// and the verification explorer (src/verify/explorer.cpp).
//
// `threads - 1` helper threads each watch their own cache-line-padded
// atomic epoch slot; run() bumps the slots of the helpers it wants this
// epoch, executes worker 0's share on the caller, and returns once the
// shared pending counter drains to zero. Both sides spin briefly before
// parking on a C++20 atomic wait (a futex on Linux), so back-to-back
// epochs — the batch runtime's step loop — never pay a mutex/condvar
// round trip, while idle pools still sleep. When the pool has more
// threads than the machine has cores the spin is skipped entirely:
// spinning would only steal the timeslice the working thread needs.
//
// run(participants) wakes only the first `participants - 1` helpers —
// small epochs (a sparse batch step with a handful of dirty instances)
// must not pay threads-1 wakeups for work one core finishes faster.
// Callers pre-stage each worker's input (e.g. a contiguous range) in
// their own state before run() and harvest results after; the callback
// must not throw (capture failures into an exception_ptr and rethrow
// after run(), as all users do).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/support/diagnostics.h"

namespace ecl::rt {

/// Worker-thread cap of every pool, and so of its users' thread counts
/// (BatchOptions::threads, FleetOptions::threads, ExplorerOptions::threads):
/// every worker owns a reactor and per-step buffers, and all but one are
/// OS threads.
inline constexpr int kMaxThreads = 256;

class WorkerPool {
public:
    /// Spawns `threads - 1` helpers. work(w) runs with w in
    /// [1, participants) on helpers and w == 0 on the caller inside
    /// run(). Throws EclError, before starting any helper, when
    /// `threads` exceeds kMaxThreads.
    WorkerPool(int threads, std::function<void(int)> work)
        : work_(std::move(work))
    {
        if (threads > kMaxThreads)
            throw EclError("worker threads must be at most " +
                           std::to_string(kMaxThreads) + " (got " +
                           std::to_string(threads) + ")");
        const int helperCount = threads > 1 ? threads - 1 : 0;
        slots_ = std::make_unique<Slot[]>(
            static_cast<std::size_t>(helperCount > 0 ? helperCount : 1));
        const unsigned hw = std::thread::hardware_concurrency();
        spinIters_ = (hw == 0 || static_cast<unsigned>(threads) <= hw)
                         ? kSpinIters
                         : 1;
        helpers_.reserve(static_cast<std::size_t>(helperCount));
        for (int w = 1; w < threads; ++w)
            helpers_.emplace_back([this, w] { loop(w); });
    }

    ~WorkerPool()
    {
        stop_.store(true, std::memory_order_release);
        for (std::size_t i = 0; i < helpers_.size(); ++i) {
            slots_[i].go.fetch_add(1, std::memory_order_release);
            slots_[i].go.notify_one();
        }
        for (std::thread& t : helpers_) t.join();
    }

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    [[nodiscard]] int threads() const
    {
        return static_cast<int>(helpers_.size()) + 1;
    }

    /// Runs one epoch: work(0) on the caller and work(w) for w in
    /// [1, participants) on helpers; returns when all are done.
    /// participants <= 0 (the default) means every thread; sleeping
    /// helpers beyond `participants` are not woken.
    void run(int participants = 0)
    {
        const int total = threads();
        if (participants <= 0 || participants > total) participants = total;
        const int wake = participants - 1;
        if (wake == 0) {
            work_(0);
            return;
        }
        pending_.store(wake, std::memory_order_relaxed);
        for (int i = 0; i < wake; ++i) {
            slots_[i].go.fetch_add(1, std::memory_order_release);
            slots_[i].go.notify_one();
        }
        work_(0);
        for (int spins = 0;;) {
            const int p = pending_.load(std::memory_order_acquire);
            if (p == 0) break;
            if (++spins < spinIters_) {
                cpuRelax();
                continue;
            }
            pending_.wait(p, std::memory_order_acquire);
        }
    }

private:
    /// One epoch slot per helper, alone on its cache line so spinning
    /// helpers never bounce each other's lines.
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> go{0};
    };

    static constexpr int kSpinIters = 1 << 12;

    static void cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    void loop(int w)
    {
        Slot& slot = slots_[static_cast<std::size_t>(w - 1)];
        std::uint64_t seen = 0;
        for (;;) {
            std::uint64_t e;
            int spins = 0;
            while ((e = slot.go.load(std::memory_order_acquire)) == seen) {
                if (stop_.load(std::memory_order_acquire)) return;
                if (++spins < spinIters_) {
                    cpuRelax();
                    continue;
                }
                slot.go.wait(seen, std::memory_order_acquire);
            }
            if (stop_.load(std::memory_order_acquire)) return;
            seen = e;
            work_(w);
            if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
                pending_.notify_one();
        }
    }

    std::function<void(int)> work_;
    std::vector<std::thread> helpers_;
    std::unique_ptr<Slot[]> slots_;
    alignas(64) std::atomic<int> pending_{0};
    std::atomic<bool> stop_{false};
    int spinIters_ = kSpinIters;
};

} // namespace ecl::rt
