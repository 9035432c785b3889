// The runtime's one container of fixed-size records: a batch engine's
// instance records (src/runtime/batch_engine.h), and the verifier's
// stored states, successor buffers and bitstate level buffer
// (src/verify/state_store.h, src/verify/explorer.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecl::rt {

/// Fixed-size records in segments that never move: record i lives in
/// segment i / recordsPerSegment() at slot i % recordsPerSegment(). A
/// segment is one anonymous mapping holding the largest power-of-two
/// number of records that fits 1 MiB (at least one), so growth maps one
/// more segment and copies nothing, a record is never zero-filled, and
/// a freed segment's pages go back to the OS. clear() keeps the
/// segments for the next fill. Under ASan a segment is poisoned when
/// mapped and each record unpoisoned as it is handed out, so a read
/// past the records written is reported.
///
/// Threading: push(), pop(), resize() and clear() are one writer's;
/// at() may run on any number of threads while none of those does, and
/// distinct records may be written concurrently.
class RecordArena {
public:
    /// Records of `recordBytes` (> 0) bytes each.
    explicit RecordArena(std::size_t recordBytes);
    ~RecordArena();
    RecordArena(const RecordArena&) = delete;
    RecordArena& operator=(const RecordArena&) = delete;

    /// Appends one record with unspecified bytes and returns them.
    std::uint8_t* push();

    /// Drops the last record.
    void pop();

    /// Record `i` (< size()); no bounds check.
    [[nodiscard]] std::uint8_t* at(std::uint32_t i) const
    {
        return segments_[i >> shift_] +
               static_cast<std::size_t>(i & (recordsPerSegment() - 1)) *
                   recordBytes_;
    }

    [[nodiscard]] std::uint32_t size() const { return size_; }

    /// Sets size() to `n`; records that come into range have unspecified
    /// bytes.
    void resize(std::uint32_t n);

    /// size() = 0, keeping every segment mapped.
    void clear() { resize(0); }

    [[nodiscard]] std::uint32_t recordsPerSegment() const
    {
        return std::uint32_t{1} << shift_;
    }

private:
    [[nodiscard]] std::size_t segmentBytes() const
    {
        return recordBytes_ << shift_;
    }

    std::vector<std::uint8_t*> segments_;
    std::size_t recordBytes_;
    unsigned shift_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace ecl::rt
