// Flat two-dimensional bitset used for the matchers' membership bitmaps.
//
// The fixpoint engines track, per pattern node u, which data nodes currently
// belong to mat(u). Storing that as vector<vector<char>> costs nq separate
// n-byte heap allocations and byte-granular scans; DenseBitset packs the
// same information into a single contiguous allocation of nq * ceil(n/64)
// 64-bit words, so membership tests are one shift+mask, row scans walk words
// with countr_zero, and match counting is a popcount sweep.
//
// Row addresses are stable under Set/Reset (no reallocation), so hot loops
// may cache a Row() proxy across mutations of other bits. AddColumn() (used
// by the incremental engines when the graph grows by one node) is the only
// operation that may relocate storage.

#ifndef EXPFINDER_UTIL_DENSE_BITSET_H_
#define EXPFINDER_UTIL_DENSE_BITSET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace expfinder {

/// \brief rows x cols bit matrix in one flat word array.
class DenseBitset {
 public:
  /// \brief Read-only view of one row; operator[] is a single shift+mask.
  /// Reads live bits: mutations through the owning bitset are visible, and
  /// the view stays valid until the bitset is destroyed or AddColumn()s.
  class ConstRow {
   public:
    ConstRow() = default;
    bool operator[](size_t c) const { return (words_[c >> 6] >> (c & 63)) & 1u; }
    /// The 64-bit word holding columns [64 i, 64 i + 64).
    uint64_t Word(size_t i) const { return words_[i]; }

   private:
    friend class DenseBitset;
    explicit ConstRow(const uint64_t* words) : words_(words) {}
    const uint64_t* words_ = nullptr;
  };

  DenseBitset() = default;
  DenseBitset(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        words_(rows * ((cols + 63) / 64), 0) {}

  size_t NumRows() const { return rows_; }
  size_t NumCols() const { return cols_; }

  bool Test(size_t r, size_t c) const {
    return (words_[r * words_per_row_ + (c >> 6)] >> (c & 63)) & 1u;
  }
  void Set(size_t r, size_t c) {
    words_[r * words_per_row_ + (c >> 6)] |= uint64_t{1} << (c & 63);
  }
  void Reset(size_t r, size_t c) {
    words_[r * words_per_row_ + (c >> 6)] &= ~(uint64_t{1} << (c & 63));
  }
  void Assign(size_t r, size_t c, bool value) {
    if (value) {
      Set(r, c);
    } else {
      Reset(r, c);
    }
  }

  ConstRow Row(size_t r) const { return ConstRow(words_.data() + r * words_per_row_); }

  /// Number of set bits in row r.
  size_t CountRow(size_t r) const {
    size_t total = 0;
    const uint64_t* w = words_.data() + r * words_per_row_;
    for (size_t i = 0; i < words_per_row_; ++i) total += std::popcount(w[i]);
    return total;
  }

  /// Number of set bits in the whole matrix.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t w : words_) total += std::popcount(w);
    return total;
  }

  bool AnyInRow(size_t r) const {
    const uint64_t* w = words_.data() + r * words_per_row_;
    for (size_t i = 0; i < words_per_row_; ++i) {
      if (w[i] != 0) return true;
    }
    return false;
  }

  /// Calls fn(c) for every set column of row r, in ascending order.
  template <typename Fn>
  void ForEachInRow(size_t r, Fn&& fn) const {
    const uint64_t* row = words_.data() + r * words_per_row_;
    for (size_t i = 0; i < words_per_row_; ++i) {
      uint64_t w = row[i];
      while (w != 0) {
        fn(i * 64 + static_cast<size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

  /// Clears every bit, keeping the shape (O(words), no reallocation).
  void ClearAll() { std::fill(words_.begin(), words_.end(), uint64_t{0}); }

  /// Grows every row by one (zero) column; relocates storage only when the
  /// new column crosses a word boundary. Bits beyond cols_ are kept zero so
  /// equality and popcounts stay exact.
  void AddColumn() {
    const size_t new_cols = cols_ + 1;
    const size_t new_wpr = (new_cols + 63) / 64;
    if (new_wpr != words_per_row_) {
      std::vector<uint64_t> grown(rows_ * new_wpr, 0);
      for (size_t r = 0; r < rows_; ++r) {
        std::copy_n(words_.begin() + r * words_per_row_, words_per_row_,
                    grown.begin() + r * new_wpr);
      }
      words_ = std::move(grown);
      words_per_row_ = new_wpr;
    }
    cols_ = new_cols;
  }

  friend bool operator==(const DenseBitset&, const DenseBitset&) = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace expfinder

#endif  // EXPFINDER_UTIL_DENSE_BITSET_H_
