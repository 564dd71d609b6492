#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/random.h"
#include "storage/table.h"
#include "workload/tpch_gen.h"

namespace perfbench {

namespace {

using acquire::Rng;
using acquire::Value;

// Every workload reads the generated lineitem projection (uniform values).
// Refinable predicates are drawn from its five numeric columns.
constexpr const char* kColumns[] = {"l_quantity", "l_extendedprice",
                                    "l_discount", "l_tax", "l_shipdays"};
constexpr size_t kSampleRows = 4096;

// Latency medians stay put only when they do not fall between two modes of
// the latency distribution, so each mix keeps its slow and fast classes
// well away from a 50/50 split (a 1:3 share of d=2 ACQs in serve_cold, a
// ~75% cache-hit share in serve_rw). search_deep's searches stop on layer
// 35 of a d=4 grid, about 8.1e4 coordinates each.
const WorkloadSpec kWorkloads[] = {
    {"serve_cold",
     "1e6 rows, cache off, 3 clients on 2 run slots: every SUBMIT builds a "
     "fresh index, so index prepare and slot queueing dominate",
     /*rows=*/1'000'000, /*dims=*/{3, 3, 3, 2}, /*gamma=*/10.0,
     /*quantile_lo=*/0.2, /*quantile_hi=*/0.5, /*growth=*/2.0,
     /*clients=*/3, /*cache_bytes=*/0, /*wal=*/false, /*pool=*/64,
     /*zipf=*/false, /*append_every=*/0, /*probe_seconds=*/0.0},
    {"search_deep",
     "1e4 rows, d=4, cache off, 1 client: each SUBMIT searches 35 grid "
     "layers, so Expand, cell evaluation and the Eq. 17 merge dominate and "
     "prepare is small",
     /*rows=*/10'000, /*dims=*/{4}, /*gamma=*/12.0,
     /*quantile_lo=*/0.4, /*quantile_hi=*/0.6, /*growth=*/2.5,
     /*clients=*/1, /*cache_bytes=*/0, /*wal=*/false, /*pool=*/96,
     /*zipf=*/false, /*append_every=*/0, /*probe_seconds=*/2.0},
    {"serve_rw",
     "2e5 rows, result cache and WAL on, Zipf SUBMITs over 32 ACQs and an "
     "APPEND every 100th op: cache hits, invalidation and logging",
     /*rows=*/200'000, /*dims=*/{3}, /*gamma=*/10.0,
     /*quantile_lo=*/0.2, /*quantile_hi=*/0.5, /*growth=*/2.0,
     /*clients=*/1, /*cache_bytes=*/64ull << 20, /*wal=*/true, /*pool=*/32,
     /*zipf=*/true, /*append_every=*/100, /*probe_seconds=*/0.0},
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 29;
  return h;
}

// The column set and quantiles of ACQ i depend on i alone, so every seed
// runs the same mix of ACQ shapes over its own data, and the latency
// quantiles do not depend on which shapes a seed happens to draw. Column
// sets cycle through the d-subsets of the five columns in lexicographic
// order.
std::vector<size_t> ColumnSet(size_t d, size_t i) {
  std::vector<std::vector<size_t>> subsets;
  for (unsigned mask = 0; mask < 32; ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) != d) continue;
    std::vector<size_t> set;
    for (size_t c = 0; c < 5; ++c) {
      if (mask & (1u << c)) set.push_back(c);
    }
    subsets.push_back(std::move(set));
  }
  std::sort(subsets.begin(), subsets.end());
  return subsets[i % subsets.size()];
}

// Position of ACQ i's k-th quantile in [0, 1): stratified over the pool
// (one stratum per ACQ), with a golden-ratio shift per predicate so the
// predicates of one ACQ do not all sit at the same quantile.
double Stratum(size_t i, size_t k, size_t pool) {
  const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(pool) +
                   0.6180339887498949 * static_cast<double>(k);
  return u - std::floor(u);
}

// The largest result size of a grid query on `layer` (sum of its per-axis
// steps). `need` holds, per admissible row, the steps each of the d axes
// must be refined by to admit it (each at most `layer`). A query admits a
// row iff it refines every axis at least that far, so its result size is a
// d-dimensional prefix sum of the rows' histogram over `need`.
size_t LayerMax(size_t d, size_t layer, const std::vector<uint32_t>& need) {
  const size_t side = layer + 1;
  size_t cells = 1;
  for (size_t k = 0; k < d; ++k) cells *= side;
  std::vector<uint32_t> count(cells, 0);
  for (size_t row = 0; row < need.size(); row += d) {
    size_t cell = 0;
    for (size_t k = 0; k < d; ++k) cell = cell * side + need[row + k];
    ++count[cell];
  }
  for (size_t k = 0, stride = 1; k < d; ++k, stride *= side) {
    for (size_t cell = 0; cell < cells; ++cell) {
      if ((cell / stride) % side > 0) count[cell] += count[cell - stride];
    }
  }
  // Walk the queries on the layer: the compositions of `layer` into d parts.
  size_t best = 0;
  std::vector<size_t> parts;
  auto walk = [&](auto&& self, size_t left) -> void {
    if (parts.size() + 1 == d) {
      size_t cell = 0;
      for (size_t u : parts) cell = cell * side + u;
      best = std::max<size_t>(best, count[cell * side + left]);
      return;
    }
    for (size_t u = 0; u <= left; ++u) {
      parts.push_back(u);
      self(self, left - u);
      parts.pop_back();
    }
  };
  walk(walk, layer);
  return best;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string AppendLine(const RowBatch& rows) {
  std::string line = R"({"cmd":"APPEND","table":"lineitem","rows":[)";
  for (size_t r = 0; r < rows.size(); ++r) {
    line += r == 0 ? "[" : ",[";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) line += ",";
      const Value& v = rows[r][c];
      line += v.is_int64() ? std::to_string(v.int64())
                           : FormatDouble(v.dbl());
    }
    line += "]";
  }
  return line + "]}";
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<acquire::Catalog> GenerateCatalog(const WorkloadSpec& spec,
                                                  uint64_t seed) {
  auto catalog = std::make_unique<acquire::Catalog>();
  acquire::TpchOptions options;
  options.lineitems = spec.rows;
  options.seed = seed;
  const acquire::Status status = acquire::GenerateTpch(options, catalog.get());
  if (!status.ok()) return nullptr;
  WarmColumnStats(*catalog);
  return catalog;
}

void WarmColumnStats(const acquire::Catalog& catalog) {
  const acquire::TablePtr table = *catalog.GetTable("lineitem");
  table->Stats(0);
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed,
                   const acquire::Catalog& catalog)
    : spec_(spec), seed_(seed), table_rows_(spec.rows) {
  const acquire::TablePtr table = *catalog.GetTable("lineitem");
  for (size_t i = 0; i < spec_.pool; ++i) {
    acqs_.push_back(MakeAcq(*table, i));
  }
  if (spec_.zipf) {
    zipf_ = std::make_unique<acquire::ZipfDistribution>(spec_.pool, 1.0);
  }
}

std::string OpStream::MakeAcq(const acquire::Table& table, size_t i) const {
  Rng rng(Mix(seed_, 1000 + i));
  const size_t d = spec_.dims[i % spec_.dims.size()];
  const std::vector<size_t> columns = ColumnSet(d, i);
  std::string where;
  std::vector<std::pair<const double*, double>> predicates;
  for (size_t k = 0; k < d; ++k) {
    // The bound is the column's value at quantile p of a sorted sample.
    const std::vector<double>& values =
        table.column(columns[k] + 1).double_data();
    std::vector<double> sample(kSampleRows);
    for (double& v : sample) v = values[rng.NextBounded(table_rows_)];
    std::sort(sample.begin(), sample.end());
    const double p = spec_.quantile_lo + (spec_.quantile_hi -
                                          spec_.quantile_lo) *
                                             Stratum(i, k, spec_.pool);
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%.6g",
                  sample[static_cast<size_t>(p * (kSampleRows - 1))]);
    where += std::string(k == 0 ? "" : " AND ") + kColumns[columns[k]] +
             " <= " + bound;
    predicates.emplace_back(values.data(), std::strtod(bound, nullptr));
  }
  // Every ACQ asks for the same search depth and has one answer. A grid
  // query's per-axis PScore is u_k * step, and PScore k is relative to
  // predicate k's interval [column min, bound], so a query on layer `layer`
  // = sum(u_k) multiplies an ACQ's result by about `growth` (the balanced
  // one by exactly that on uniform data) whatever its bounds. The target is
  // the largest exact result size on that layer, and with delta = 0 only
  // the query that attains it (or an exact tie) meets it. Every query on the
  // layer before admits a subset of the rows of one on `layer`, so the
  // search stops on `layer`. With a ceil(original * growth) target, or a 5%
  // delta, the sampling noise of the data would pick the layer an ACQ stops
  // on (each extra layer adds ~10% coordinates) and how many of the
  // thousands of nearly equal queries on it it returns (the reply size,
  // which sets the cost of a cache hit) from seed to seed.
  const double step = spec_.gamma / static_cast<double>(d);
  const size_t layer = static_cast<size_t>(std::ceil(
      static_cast<double>(d) * 100.0 *
      (std::pow(spec_.growth, 1.0 / static_cast<double>(d)) - 1.0) / step));
  std::vector<double> width(d);
  for (size_t k = 0; k < d; ++k) {
    const auto& [values, bound] = predicates[k];
    width[k] = bound - *std::min_element(values, values + table_rows_);
  }
  // d entries for each row that some query on `layer` admits.
  std::vector<uint32_t> need;
  std::vector<uint32_t> row_need(d);
  for (size_t row = 0; row < table_rows_; ++row) {
    size_t total = 0;
    for (size_t k = 0; k < d && total <= layer; ++k) {
      const auto& [values, bound] = predicates[k];
      const double excess = values[row] - bound;
      const double steps =
          excess <= 0.0 ? 0.0 : std::ceil(excess / width[k] * 100.0 / step);
      row_need[k] = static_cast<uint32_t>(
          std::min(steps, static_cast<double>(layer + 1)));
      total += row_need[k];
    }
    if (total <= layer) {
      need.insert(need.end(), row_need.begin(), row_need.end());
    }
  }
  const size_t target = LayerMax(d, layer, need);
  char head[96];
  std::snprintf(head, sizeof(head),
                "SELECT * FROM lineitem CONSTRAINT COUNT(*) >= %zu WHERE ",
                std::max<size_t>(target, 1));
  return head + where;
}

RowBatch OpStream::MakeRows(uint64_t salt) const {
  Rng rng(Mix(seed_, salt));
  RowBatch rows;
  for (size_t r = 0; r < kAppendRows; ++r) {
    rows.push_back({Value(static_cast<int64_t>(table_rows_ / 4 + 1 + r)),
                    Value(rng.NextDouble(1.0, 50.0)),
                    Value(rng.NextDouble(900.0, 104950.0)),
                    Value(rng.NextDouble(0.0, 0.10)),
                    Value(rng.NextDouble(0.0, 0.08)),
                    Value(rng.NextDouble(1.0, 2557.0))});
  }
  return rows;
}

const Op& OpStream::Get(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  while (ops_.size() <= i) {
    const size_t n = ops_.size();
    Op op;
    if (spec_.append_every > 0 && (n + 1) % spec_.append_every == 0) {
      op.kind = Op::Kind::kAppend;
      batches_.push_back(std::make_unique<RowBatch>(MakeRows(2'000'000 + n)));
      op.rows = batches_.back().get();
      op.line = AppendLine(*op.rows);
    } else {
      if (zipf_ != nullptr) {
        Rng rng(Mix(seed_, 3'000'000 + n));
        op.acq = zipf_->Sample(&rng) - 1;
      } else {
        op.acq = n % spec_.pool;
      }
      char knobs[64];
      std::snprintf(knobs, sizeof(knobs), R"("gamma":%g,"delta":%g)",
                    spec_.gamma, kDelta);
      op.line = R"({"cmd":"SUBMIT","sql":")" + acqs_[op.acq] + R"(",)" +
                knobs + R"(,"wait":true})";
    }
    ops_.push_back(std::move(op));
  }
  return ops_[i];
}

Op OpStream::ProbeAppend(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::Kind::kAppend;
  batches_.push_back(std::make_unique<RowBatch>(MakeRows(4'000'000 + i)));
  op.rows = batches_.back().get();
  op.line = AppendLine(*op.rows);
  return op;
}

}  // namespace perfbench
