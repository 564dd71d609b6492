#include "exec/eval_kernel.h"

#include <algorithm>

#include "common/string_util.h"

namespace acquire {

namespace {

// Below this the chunking/merge overhead beats the win of a second thread.
constexpr size_t kMinRowsPerChunk = 4096;

}  // namespace

Status BuildNeededMatrix(const AcqTask& task, ThreadPool* pool,
                         NeededMatrix* out) {
  const Table& rel = *task.relation;
  const size_t n = rel.num_rows();
  const size_t d = task.d();
  out->rows = n;
  out->dims = d;
  out->needed.resize(n * d);
  out->agg_values.resize(n);
  for (const RefinementDimPtr& dim : task.dims) {
    ACQ_RETURN_IF_ERROR(dim->PrecomputeNeeded(rel));
  }
  auto fill = [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t i = 0; i < d; ++i) {
      const RefinementDim& dim = *task.dims[i];
      double* col = out->mutable_dim(i);
      for (size_t row = lo; row < hi; ++row) {
        col[row] = dim.NeededPScore(rel, row);
      }
    }
    for (size_t row = lo; row < hi; ++row) {
      out->agg_values[row] = task.AggValue(row);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, kMinRowsPerChunk, fill);
  } else {
    fill(0, 0, n);
  }
  return Status::OK();
}

AggregateOps::State ScanBoxRange(const AggregateOps& ops,
                                 const NeededMatrix& matrix,
                                 const std::vector<PScoreRange>& box,
                                 size_t begin, size_t end, uint8_t* scratch) {
  const size_t count = end - begin;
  std::fill(scratch, scratch + count, uint8_t{1});
  for (size_t i = 0; i < matrix.dims; ++i) {
    RefineSelection(matrix.dim(i) + begin, count, box[i], scratch);
  }
  AggregateOps::State state = ops.Init();
  FoldSelected(ops, matrix.agg_values.data() + begin, scratch, count, &state);
  return state;
}

Result<AggregateOps::State> ScanBoxOverMatrix(
    const AggregateOps& ops, const NeededMatrix& matrix,
    const std::vector<PScoreRange>& box, ThreadPool* pool) {
  if (box.size() != matrix.dims) {
    return Status::InvalidArgument(
        StringFormat("box has %zu ranges, matrix has %zu dimensions",
                     box.size(), matrix.dims));
  }
  const size_t n = matrix.rows;
  if (pool == nullptr || pool->NumChunks(n, kMinRowsPerChunk) <= 1) {
    std::vector<uint8_t> scratch(n);
    return ScanBoxRange(ops, matrix, box, 0, n, scratch.data());
  }
  const size_t chunks = pool->NumChunks(n, kMinRowsPerChunk);
  std::vector<AggregateOps::State> partials(chunks, ops.Init());
  pool->ParallelFor(n, kMinRowsPerChunk,
                    [&](size_t chunk, size_t begin, size_t end) {
                      std::vector<uint8_t> scratch(end - begin);
                      partials[chunk] = ScanBoxRange(ops, matrix, box, begin,
                                                     end, scratch.data());
                    });
  AggregateOps::State merged = ops.Init();
  for (const AggregateOps::State& partial : partials) {
    ops.Merge(&merged, partial);  // chunk order => deterministic result
  }
  return merged;
}

}  // namespace acquire
