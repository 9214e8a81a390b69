// The ORB's table of outstanding requests, keyed by request id.
//
// Entries sit contiguously in a vector (capacity reuse, cheap teardown
// iteration). An open-addressed id -> slot index keeps reply matching O(1):
// population runs hold thousands of requests in flight. Erasing moves the
// last entry into the hole (swap-and-pop) and re-points its id. Neither
// array ever shrinks, so a steady-state request allocates nothing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace maqs::orb {

/// `Entry` has a `std::uint64_t id` member.
template <typename Entry>
class PendingTable {
 public:
  /// The entry indexed under `id`, or nullptr.
  Entry* find(std::uint64_t id) noexcept {
    const std::size_t slot = index_.find(id);
    return slot == kNone ? nullptr : &entries_[slot];
  }

  /// Stores `entry` and indexes it under entry.id. An id already indexed is
  /// re-pointed to the new entry.
  Entry& add(Entry entry) {
    entries_.push_back(std::move(entry));
    try {
      index_.assign(entries_.back().id, entries_.size() - 1);
    } catch (...) {
      entries_.pop_back();
      throw;
    }
    return entries_.back();
  }

  /// Removes `entry`, a pointer find() returned. The last entry moves into
  /// its slot, so a pointer to the last entry dies too.
  void erase(Entry* entry) {
    index_.erase(entry->id);
    Entry* last = &entries_.back();
    if (entry != last) {
      *entry = std::move(*last);
      index_.assign(entry->id,
                    static_cast<std::size_t>(entry - entries_.data()));
    }
    entries_.pop_back();
  }

  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<Entry>& entries() const noexcept { return entries_; }
  /// Mutable view for fields other than the indexed id.
  std::vector<Entry>& entries() noexcept { return entries_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// id -> slot by linear probing over a power-of-two array kept at most
  /// half full, with Fibonacci hashing (ids are mostly sequential) and
  /// backward-shift deletion, so no tombstones build up under churn.
  class Index {
   public:
    /// The slot indexed under `id`, or kNone.
    std::size_t find(std::uint64_t id) const noexcept {
      const std::size_t cell = cell_of(id);
      return cell == kNone ? kNone : cells_[cell].slot;
    }

    /// Indexes `id` at `slot`; re-pointing an indexed id never allocates.
    void assign(std::uint64_t id, std::size_t slot) {
      if (const std::size_t cell = cell_of(id); cell != kNone) {
        cells_[cell].slot = static_cast<std::uint32_t>(slot);
        return;
      }
      if (2 * (count_ + 1) > cells_.size()) grow();
      std::size_t i = home(id);
      while (cells_[i].slot != kEmpty) i = next(i);
      cells_[i] = {id, static_cast<std::uint32_t>(slot)};
      ++count_;
    }

    void erase(std::uint64_t id) noexcept {
      std::size_t hole = cell_of(id);
      if (hole == kNone) return;
      // Pull back each later cell of the cluster whose home does not lie
      // cyclically after the hole, so every id stays reachable from its
      // home without crossing an empty cell.
      const std::size_t mask = cells_.size() - 1;
      for (std::size_t i = next(hole); cells_[i].slot != kEmpty;
           i = next(i)) {
        if (((i - home(cells_[i].id)) & mask) >= ((i - hole) & mask)) {
          cells_[hole] = cells_[i];
          hole = i;
        }
      }
      cells_[hole].slot = kEmpty;
      --count_;
    }

   private:
    static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);
    static constexpr std::size_t kMinCells = 16;

    struct Cell {
      std::uint64_t id = 0;
      std::uint32_t slot = kEmpty;
    };

    std::size_t cell_of(std::uint64_t id) const noexcept {
      if (cells_.empty()) return kNone;
      for (std::size_t i = home(id);; i = next(i)) {
        if (cells_[i].slot == kEmpty) return kNone;
        if (cells_[i].id == id) return i;
      }
    }
    std::size_t home(std::uint64_t id) const noexcept {
      return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    std::size_t next(std::size_t i) const noexcept {
      return (i + 1) & (cells_.size() - 1);
    }

    void grow() {
      std::vector<Cell> old = std::move(cells_);
      const std::size_t size = old.empty() ? kMinCells : 2 * old.size();
      cells_.assign(size, Cell{});
      shift_ = 64 - std::countr_zero(size);
      count_ = 0;
      for (const Cell& cell : old) {
        if (cell.slot != kEmpty) assign(cell.id, cell.slot);
      }
    }

    std::vector<Cell> cells_;  // empty until the first assign
    std::size_t count_ = 0;
    int shift_ = 64;
  };

  std::vector<Entry> entries_;
  Index index_;
};

}  // namespace maqs::orb
