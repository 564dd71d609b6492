#include "index/parallel_prepare.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "exec/eval_kernel.h"

namespace acquire {

namespace {

// Rows (or sorted positions) per pool chunk: below this the hand-off to a
// worker costs more than the chunk's work.
constexpr size_t kChunkRows = 16384;
// Cells per pool chunk of the per-cell fold.
constexpr size_t kChunkCells = 4096;
// Widest radix digit: 2^11 counters per chunk stay in L1.
constexpr unsigned kMaxDigitBits = 11;
// Rows ahead of the gather cursor whose payload is prefetched.
constexpr size_t kGatherPrefetch = 32;
// Per-chunk counter blocks span at least one cache line.
constexpr size_t kMinCounterStride = 16;

/// Deterministic chunking of [0, n): chunk c covers
/// [c * size, min(n, (c + 1) * size)). Run() hands out chunk indices rather
/// than ParallelFor ranges, so the per-chunk counts and cursors of one pass
/// line up even when a ParallelFor call degrades to a single serial call.
class Chunks {
 public:
  Chunks(ThreadPool* pool, size_t n, size_t min_chunk)
      : pool_(pool),
        n_(n),
        count_(pool->NumChunks(n, min_chunk)),
        size_(count_ == 0 ? 0 : (n + count_ - 1) / count_) {}

  size_t n() const { return n_; }
  size_t count() const { return count_; }
  size_t begin(size_t c) const { return std::min(n_, c * size_); }
  size_t end(size_t c) const { return std::min(n_, (c + 1) * size_); }

  /// Runs body(chunk, begin, end) for every chunk on the pool.
  template <typename Body>
  void Run(const Body& body) const {
    pool_->ParallelFor(count_, 1, [&](size_t, size_t first, size_t last) {
      for (size_t c = first; c < last; ++c) body(c, begin(c), end(c));
    });
  }

 private:
  ThreadPool* pool_;
  size_t n_;
  size_t count_;
  size_t size_;
};

/// One stable counting pass of (key, row) pairs by the digit
/// (key >> shift) & (2^bits - 1), from (keys, rows) into (keys_out,
/// rows_out). Chunk-major prefix sums keep the rows of one digit in input
/// order. Returns false, writing nothing, when every key has the same digit.
template <typename Key>
bool RadixPass(const Chunks& chunks, unsigned shift, unsigned bits,
               const Key* keys, const uint32_t* rows, Key* keys_out,
               uint32_t* rows_out) {
  const size_t radix = size_t{1} << bits;
  const Key mask = static_cast<Key>(radix - 1);
  const size_t stride = std::max(radix, kMinCounterStride);
  std::vector<uint32_t> counts(chunks.count() * stride, 0);
  chunks.Run([&](size_t c, size_t begin, size_t end) {
    uint32_t* count = counts.data() + c * stride;
    for (size_t j = begin; j < end; ++j) ++count[(keys[j] >> shift) & mask];
  });
  uint32_t next = 0;
  for (size_t digit = 0; digit < radix; ++digit) {
    const uint32_t digit_start = next;
    for (size_t c = 0; c < chunks.count(); ++c) {
      uint32_t& slot = counts[c * stride + digit];
      const uint32_t here = slot;
      slot = next;
      next += here;
    }
    if (next - digit_start == chunks.n()) return false;
  }
  chunks.Run([&](size_t c, size_t begin, size_t end) {
    uint32_t* cursor = counts.data() + c * stride;
    for (size_t j = begin; j < end; ++j) {
      const uint32_t p = cursor[(keys[j] >> shift) & mask]++;
      keys_out[p] = keys[j];
      rows_out[p] = rows[j];
    }
  });
  return true;
}

// Level of row `row` on dimension `i` as the layout stores it (callers
// only pass reachable rows).
inline int32_t LevelAt(const NeededView& needed, double step, size_t row,
                       size_t i) {
  return static_cast<int32_t>(PScoreLevel(needed.at(row, i), step));
}

/// One sort key word: the adjacent dimensions [first, end) of the level
/// tuple, `first` most significant, packed into `bits` bits.
struct KeyWord {
  size_t first;
  size_t end;
  unsigned bits;
};

/// Stably sorts *rows by one key word (packed into a Key of at least
/// word.bits bits) in digit passes, ping-ponging with *spare. For the most
/// significant word, `cell_offsets` is non-null and receives the sorted
/// positions where a new level tuple starts: the word's keys differ, or the
/// levels of a less significant dimension do.
template <typename Key>
void SortByWord(const Chunks& chunks, const NeededView& needed, double step,
                const KeyWord& word, const std::vector<int64_t>& base,
                const std::vector<unsigned>& width, uint32_t** rows,
                uint32_t** spare, std::vector<uint32_t>* cell_offsets) {
  const size_t n = chunks.n();
  // Left uninitialized: the packing writes every key before a pass reads.
  auto keys = std::make_unique_for_overwrite<Key[]>(n);
  auto keys_out = std::make_unique_for_overwrite<Key[]>(n);
  const uint32_t* in = *rows;
  chunks.Run([&](size_t, size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      Key key = 0;
      for (size_t i = word.first; i < word.end; ++i) {
        const int64_t offset = LevelAt(needed, step, in[j], i) - base[i];
        key = static_cast<Key>((uint64_t{key} << width[i]) |
                               static_cast<uint64_t>(offset));
      }
      keys[j] = key;
    }
  });
  // Digits of (nearly) equal width, none wider than kMaxDigitBits.
  const unsigned passes = (word.bits + kMaxDigitBits - 1) / kMaxDigitBits;
  for (unsigned pass = 0; pass < passes; ++pass) {
    const unsigned shift = word.bits * pass / passes;
    const unsigned bits = word.bits * (pass + 1) / passes - shift;
    if (RadixPass(chunks, shift, bits, keys.get(), *rows, keys_out.get(),
                  *spare)) {
      keys.swap(keys_out);
      std::swap(*rows, *spare);
    }
  }
  if (cell_offsets == nullptr) return;
  const uint32_t* sorted = *rows;
  std::vector<std::vector<uint32_t>> chunk_starts(chunks.count());
  chunks.Run([&](size_t c, size_t begin, size_t end) {
    std::vector<uint32_t> starts;  // chunk-local, like the level ranges
    for (size_t j = begin; j < end; ++j) {
      bool start = j == 0 || keys[j] != keys[j - 1];
      for (size_t i = word.end; !start && i < needed.dims; ++i) {
        start = LevelAt(needed, step, sorted[j], i) !=
                LevelAt(needed, step, sorted[j - 1], i);
      }
      if (start) starts.push_back(static_cast<uint32_t>(j));
    }
    chunk_starts[c] = std::move(starts);
  });
  cell_offsets->clear();
  for (const std::vector<uint32_t>& starts : chunk_starts) {
    cell_offsets->insert(cell_offsets->end(), starts.begin(), starts.end());
  }
}

}  // namespace

void StableSortByLevels(const NeededView& needed, double step,
                        ThreadPool* pool, std::vector<uint32_t>* order,
                        std::vector<uint32_t>* cell_offsets) {
  const size_t n = order->size();
  const size_t d = needed.dims;
  cell_offsets->assign(1, 0);
  if (n == 0) return;
  if (d == 0) {
    cell_offsets->push_back(static_cast<uint32_t>(n));
    return;
  }
  if (pool == nullptr) pool = &ThreadPool::Shared();
  const Chunks chunks(pool, n, kChunkRows);

  // Each dimension's level range over the rows to sort: a level is keyed by
  // its offset from the minimum, in as many bits as the range needs.
  // PScoreLevel is monotone in the needed value, so the levels of the
  // extreme needed values bound the range.
  std::vector<double> lo(chunks.count() * d);
  std::vector<double> hi(chunks.count() * d);
  chunks.Run([&](size_t c, size_t begin, size_t end) {
    // Chunk-local until the end: neighbouring chunks' slots share a cache
    // line.
    std::vector<double> my_lo(d, std::numeric_limits<double>::infinity());
    std::vector<double> my_hi(d, -std::numeric_limits<double>::infinity());
    for (size_t j = begin; j < end; ++j) {
      const size_t row = (*order)[j];
      for (size_t i = 0; i < d; ++i) {
        my_lo[i] = std::min(my_lo[i], needed.at(row, i));
        my_hi[i] = std::max(my_hi[i], needed.at(row, i));
      }
    }
    std::copy(my_lo.begin(), my_lo.end(), lo.begin() + c * d);
    std::copy(my_hi.begin(), my_hi.end(), hi.begin() + c * d);
  });
  std::vector<int64_t> base(d);
  std::vector<unsigned> width(d);
  for (size_t i = 0; i < d; ++i) {
    double min = lo[i];
    double max = hi[i];
    for (size_t c = 1; c < chunks.count(); ++c) {
      min = std::min(min, lo[c * d + i]);
      max = std::max(max, hi[c * d + i]);
    }
    base[i] = PScoreLevel(min, step);
    const int64_t top = PScoreLevel(max, step);
    if (top > INT32_MAX) {
      // Levels past int32 wrap when stored; key the full int32 range.
      base[i] = INT32_MIN;
      width[i] = 32;
    } else {
      width[i] = std::bit_width(static_cast<uint64_t>(top - base[i]));
    }
  }

  // Key words, least significant first. A dimension (at most 32 bits)
  // never straddles two words.
  std::vector<KeyWord> words;
  for (size_t end = d; end > 0;) {
    KeyWord word{end, end, 0};
    while (word.first > 0 && word.bits + width[word.first - 1] <= 64) {
      --word.first;
      word.bits += width[word.first];
    }
    words.push_back(word);
    end = word.first;
  }

  auto spare_rows = std::make_unique_for_overwrite<uint32_t[]>(n);
  uint32_t* rows = order->data();
  uint32_t* spare = spare_rows.get();
  for (const KeyWord& word : words) {
    std::vector<uint32_t>* starts =
        &word == &words.back() ? cell_offsets : nullptr;
    // Narrow keys halve the bytes every pass moves.
    if (word.bits <= 32) {
      SortByWord<uint32_t>(chunks, needed, step, word, base, width, &rows,
                           &spare, starts);
    } else {
      SortByWord<uint64_t>(chunks, needed, step, word, base, width, &rows,
                           &spare, starts);
    }
  }
  if (rows != order->data()) std::copy(rows, rows + n, order->data());
  cell_offsets->push_back(static_cast<uint32_t>(n));
}

Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, ThreadPool* pool,
                             CellSortedLayout* out) {
  if (step <= 0.0) {
    return Status::InvalidArgument("cell-sorted layout requires a positive "
                                   "step");
  }
  if (pool == nullptr) pool = &ThreadPool::Shared();
  const size_t n = raw.rows;
  const size_t d = raw.dims;
  const NeededView needed{raw.needed.data(), d, 1, n};

  // Reachable rows in relation order. Unreachable rows (needed == inf on
  // some dimension) are dropped: no PScoreRange admits infinity. Each chunk
  // lists its reachable rows from its own start; the lists then slide down.
  std::vector<uint32_t> order(n);
  const Chunks row_chunks(pool, n, kChunkRows);
  std::vector<size_t> kept(row_chunks.count());
  row_chunks.Run([&](size_t c, size_t begin, size_t end) {
    size_t k = begin;
    for (size_t row = begin; row < end; ++row) {
      bool reachable = true;
      for (size_t i = 0; i < d; ++i) {
        reachable &= !std::isinf(raw.dim(i)[row]);  // PScoreLevel's -1
      }
      if (reachable) order[k++] = static_cast<uint32_t>(row);
    }
    kept[c] = k - begin;
  });
  size_t reachable = 0;
  for (size_t c = 0; c < row_chunks.count(); ++c) {
    const auto first = order.begin() + row_chunks.begin(c);
    // std::copy may not write into its own source range.
    if (first != order.begin() + reachable) {
      std::copy(first, first + kept[c], order.begin() + reachable);
    }
    reachable += kept[c];
  }
  order.resize(reachable);

  StableSortByLevels(needed, step, pool, &order, &out->cell_offsets);

  // Payload in cell order.
  out->unreachable_rows = n - reachable;
  out->matrix.rows = reachable;
  out->matrix.dims = d;
  out->matrix.needed.resize(reachable * d);
  out->matrix.agg_values.resize(reachable);
  Chunks(pool, reachable, kChunkRows).Run([&](size_t, size_t begin,
                                              size_t end) {
    for (size_t j = begin; j < end; ++j) {
      // The reads are random: ask for a later row's payload early.
      if (j + kGatherPrefetch < end) {
        const size_t ahead = order[j + kGatherPrefetch];
        for (size_t i = 0; i < d; ++i) __builtin_prefetch(raw.dim(i) + ahead);
        __builtin_prefetch(raw.agg_values.data() + ahead);
      }
      const size_t row = order[j];
      for (size_t i = 0; i < d; ++i) {
        out->matrix.mutable_dim(i)[j] = raw.dim(i)[row];
      }
      out->matrix.agg_values[j] = raw.agg_values[row];
    }
  });

  // Per-cell keys (the levels of the cell's first row) and states (a fold
  // of its contiguous payload).
  const size_t m = out->num_cells();
  out->cell_keys.resize(m * d);
  out->cell_states.resize(m);
  Chunks(pool, m, kChunkCells).Run([&](size_t, size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      const uint32_t first = out->cell_offsets[s];
      for (size_t i = 0; i < d; ++i) {
        out->cell_keys[s * d + i] = LevelAt(needed, step, order[first], i);
      }
      out->cell_states[s] = ops.Init();
      FoldRange(ops, out->matrix.agg_values.data() + first,
                out->cell_offsets[s + 1] - first, &out->cell_states[s]);
    }
  });
  return Status::OK();
}

bool LayoutsBitIdentical(const CellSortedLayout& a,
                         const CellSortedLayout& b) {
  auto bytes_equal = [](const auto& x, const auto& y) {
    using T = typename std::decay_t<decltype(x)>::value_type;
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
  };
  if (a.unreachable_rows != b.unreachable_rows) return false;
  if (a.matrix.rows != b.matrix.rows || a.matrix.dims != b.matrix.dims) {
    return false;
  }
  if (!bytes_equal(a.matrix.needed, b.matrix.needed)) return false;
  if (!bytes_equal(a.matrix.agg_values, b.matrix.agg_values)) return false;
  if (!bytes_equal(a.cell_keys, b.cell_keys)) return false;
  if (!bytes_equal(a.cell_offsets, b.cell_offsets)) return false;
  if (a.cell_states.size() != b.cell_states.size()) return false;
  for (size_t s = 0; s < a.cell_states.size(); ++s) {
    if (!bytes_equal(a.cell_states[s], b.cell_states[s])) return false;
  }
  return true;
}

}  // namespace acquire
