#include "src/runtime/record_arena.h"

#include <algorithm>
#include <bit>
#include <new>

#include <sys/mman.h>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ecl::rt {

namespace {
constexpr std::size_t kSegmentBytes = 1u << 20;
} // namespace

RecordArena::RecordArena(std::size_t recordBytes) : recordBytes_(recordBytes)
{
    // Largest power-of-two record count fitting one segment (at least
    // one record): index -> (segment, slot) is a shift and a mask.
    const std::size_t fit =
        std::max<std::size_t>(kSegmentBytes / recordBytes_, 1);
    shift_ = static_cast<unsigned>(std::bit_width(fit) - 1);
}

RecordArena::~RecordArena()
{
    for (std::uint8_t* seg : segments_) {
        // The next mapping at this address must not start poisoned.
        ASAN_UNPOISON_MEMORY_REGION(seg, segmentBytes());
        ::munmap(seg, segmentBytes());
    }
}

std::uint8_t* RecordArena::push()
{
    if (size_ >> shift_ >= segments_.size()) {
        // Anonymous pages are untouched until written, and munmap hands
        // them back to the OS (heap blocks freed by another thread can
        // stay resident).
        segments_.push_back(nullptr); // the one step that can throw first
        void* seg = ::mmap(nullptr, segmentBytes(), PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (seg == MAP_FAILED) {
            segments_.pop_back();
            throw std::bad_alloc();
        }
        ASAN_POISON_MEMORY_REGION(seg, segmentBytes());
        segments_.back() = static_cast<std::uint8_t*>(seg);
    }
    std::uint8_t* rec = at(size_++);
    ASAN_UNPOISON_MEMORY_REGION(rec, recordBytes_);
    return rec;
}

void RecordArena::pop()
{
    ASAN_POISON_MEMORY_REGION(at(--size_), recordBytes_);
}

void RecordArena::resize(std::uint32_t n)
{
    while (size_ > n) pop();
    while (size_ < n) push();
}

} // namespace ecl::rt
