// A packed bitmap over sector numbers, the representation behind both
// systems' Volume Allocation Map (VAM). Bit set = sector free.
//
// The run searches (FindRunForward, FindRunBackward, LongestRun) and
// SetRange work a 64-bit word at a time: std::countr_zero finds the next
// bit of a wanted value going forward and std::countl_zero going backward,
// and partial head and tail words are masked. They return exactly what a
// bit-by-bit scan returns, so allocator placement does not depend on the
// kernel. No search reads a bit at or past size(), so tail bits set through
// mutable_words() never show up in a result.

#ifndef CEDAR_UTIL_BITMAP_H_
#define CEDAR_UTIL_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/check.h"

namespace cedar {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::uint32_t size, bool initial = false)
      : size_(size), words_((size + 63) / 64, initial ? ~0ull : 0ull) {
    TrimTail();
  }

  std::uint32_t size() const { return size_; }

  bool Get(std::uint32_t i) const {
    CEDAR_CHECK(i < size_);
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void Set(std::uint32_t i, bool value) {
    CEDAR_CHECK(i < size_);
    if (value) {
      words_[i / 64] |= (1ull << (i % 64));
    } else {
      words_[i / 64] &= ~(1ull << (i % 64));
    }
  }

  void SetRange(std::uint32_t start, std::uint32_t count, bool value) {
    if (count == 0) {
      return;
    }
    CEDAR_CHECK(start < size_ && count <= size_ - start);
    const std::size_t first = start / 64;
    const std::size_t last = (start + count - 1) / 64;
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t mask = ~0ull;
      if (w == first) {
        mask &= ~0ull << (start % 64);
      }
      if (w == last) {
        mask &= LowBits((start + count - 1) % 64 + 1);
      }
      words_[w] = value ? words_[w] | mask : words_[w] & ~mask;
    }
  }

  // Number of set bits.
  std::uint32_t Count() const {
    std::uint32_t n = 0;
    for (std::uint64_t w : words_) {
      n += static_cast<std::uint32_t>(__builtin_popcountll(w));
    }
    return n;
  }

  // First run of >= count consecutive set bits at or after `from`, searching
  // forward: the lowest start s >= from with [s, s + count) all set and
  // s + count <= size(). Returns the run start. Requires count > 0.
  std::optional<std::uint32_t> FindRunForward(std::uint32_t from,
                                              std::uint32_t count) const {
    CEDAR_CHECK(count > 0);
    if (count > size_) {
      return std::nullopt;
    }
    const std::uint32_t last_start = size_ - count;
    std::uint32_t i = from;
    while (i <= last_start) {
      const std::uint32_t start = FindFirst(true, i, last_start + 1);
      if (start > last_start) {
        break;
      }
      const std::uint32_t end = FindFirst(false, start, start + count);
      if (end == start + count) {
        return start;
      }
      i = end;  // every window starting before `end` covers the clear bit
    }
    return std::nullopt;
  }

  // First run of >= count consecutive set bits at or before `from`,
  // searching backward: the highest start s with [s, s + count) all set and
  // s + count - 1 <= min(from, size() - 1). Returns the run start. Requires
  // count > 0.
  std::optional<std::uint32_t> FindRunBackward(std::uint32_t from,
                                               std::uint32_t count) const {
    CEDAR_CHECK(count > 0);
    if (size_ == 0) {
      return std::nullopt;
    }
    std::uint32_t hi = std::min(from, size_ - 1) + 1;  // search [0, hi)
    while (hi >= count) {
      const std::uint32_t end = FindLast(true, count - 1, hi);
      if (end < count) {
        break;
      }
      const std::uint32_t start = FindLast(false, end - count, end);
      if (start == end - count) {
        return start;
      }
      hi = start - 1;  // every window ending at or after `start` covers it
    }
    return std::nullopt;
  }

  // Longest run of set bits in [start, end); used by fragmentation metrics.
  std::uint32_t LongestRun(std::uint32_t start, std::uint32_t end) const {
    end = std::min(end, size_);
    std::uint32_t best = 0;
    for (std::uint32_t i = start; i < end && end - i > best;) {
      const std::uint32_t run_start = FindFirst(true, i, end);
      const std::uint32_t run_end = FindFirst(false, run_start, end);
      best = std::max(best, run_end - run_start);
      i = run_end;
    }
    return best;
  }

  // Merges another bitmap with OR (used to fold the shadow free map into
  // the VAM at commit).
  void OrWith(const Bitmap& other) {
    CEDAR_CHECK(other.size_ == size_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

  void Clear() { std::fill(words_.begin(), words_.end(), 0ull); }

  // Raw word access for serialization.
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t>& mutable_words() { return words_; }

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  // The low n bits set, for n in [1, 64].
  static std::uint64_t LowBits(std::uint32_t n) { return ~0ull >> (64 - n); }

  // First index in [lo, hi) whose bit equals `value`, or hi if none.
  // Requires hi <= size_, so bits past size_ are never read.
  std::uint32_t FindFirst(bool value, std::uint32_t lo,
                          std::uint32_t hi) const {
    if (lo >= hi) {
      return hi;
    }
    const std::uint64_t flip = value ? 0ull : ~0ull;
    const std::size_t last = (hi - 1) / 64;
    std::size_t w = lo / 64;
    std::uint64_t bits = (words_[w] ^ flip) & (~0ull << (lo % 64));
    for (;; bits = words_[++w] ^ flip) {
      if (w == last) {
        bits &= LowBits((hi - 1) % 64 + 1);
      }
      if (bits != 0) {
        return static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      }
      if (w == last) {
        return hi;
      }
    }
  }

  // One past the last index in [lo, hi) whose bit equals `value`, or lo if
  // none. Requires hi <= size_.
  std::uint32_t FindLast(bool value, std::uint32_t lo,
                         std::uint32_t hi) const {
    if (lo >= hi) {
      return lo;
    }
    const std::uint64_t flip = value ? 0ull : ~0ull;
    const std::size_t first = lo / 64;
    std::size_t w = (hi - 1) / 64;
    std::uint64_t bits = (words_[w] ^ flip) & LowBits((hi - 1) % 64 + 1);
    for (;; bits = words_[--w] ^ flip) {
      if (w == first) {
        bits &= ~0ull << (lo % 64);
      }
      if (bits != 0) {
        return static_cast<std::uint32_t>(w * 64 + 64 -
                                          std::countl_zero(bits));
      }
      if (w == first) {
        return lo;
      }
    }
  }

  void TrimTail() {
    // Clear bits past size_ so Count() and == stay exact.
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ull << (size_ % 64)) - 1;
    }
  }

  std::uint32_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cedar

#endif  // CEDAR_UTIL_BITMAP_H_
