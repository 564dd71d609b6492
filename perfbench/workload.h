// Workload definitions and the seeded op generator of the end-to-end
// benchmark. The engine only ever sees what this file produces: a generated
// `lineitem` catalog, ACQ SQL text and APPEND rows.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/zipf.h"
#include "storage/catalog.h"

namespace perfbench {

/// Run slots of every mix (ServerOptions::max_running), and rows per
/// APPEND batch.
constexpr size_t kRunSlots = 2;
constexpr size_t kAppendRows = 8;
/// Aggregate error threshold sent with every SUBMIT (and used by the
/// reference): a hit must reach the COUNT target itself, so a search stops
/// on the grid layer its target was taken from (see OpStream::MakeAcq).
constexpr double kDelta = 0.0;

/// One traffic mix. Every mix is a closed loop: each client sends its next
/// request only after the previous reply arrived.
struct WorkloadSpec {
  const char* name;
  /// One-line reason the mix exists (which layer it stresses).
  const char* why;
  size_t rows;               // generated lineitem rows
  std::vector<size_t> dims;  // refinable predicates per ACQ, cycled
  double gamma;              // refinement threshold sent with every SUBMIT
  /// Each predicate is `col <= q(p)` with p in [quantile_lo, quantile_hi];
  /// the COUNT target is the exact result size of a near-balanced
  /// refinement that grows the original result about `growth`-fold, so every
  /// ACQ of a given d stops on the same grid layer with one answer.
  double quantile_lo;
  double quantile_hi;
  double growth;
  size_t clients;
  uint64_t cache_bytes;  // result cache; 0 = off
  bool wal;              // write-ahead log (fsync=batch) on
  /// Distinct ACQs of the run, generated before the first op. SUBMITs take
  /// them round-robin, or by Zipf(1.0) rank when `zipf` is set.
  size_t pool;
  bool zipf;
  /// Every append_every-th op is an APPEND; 0 = none inside the timed
  /// window. Requires one client, so each op's data state is its position
  /// in the stream. Every mix also times APPENDs on the idle server after
  /// the window.
  size_t append_every;
  /// The probe's APPENDs are spread evenly over at least this long; 0 sends
  /// them back to back. Back to back, the probe's APPENDs to a small table
  /// take a few milliseconds, and their quantiles then read the host at a
  /// single instant. Spread out, APPENDs to a table that falls out of cache
  /// between them read memory bandwidth instead, so only small tables are
  /// paced.
  double probe_seconds;
};

/// The benchmark's workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The lineitem catalog (TPC-H subset generator, uniform values) for a
/// workload and seed. Deterministic in (rows, seed).
std::unique_ptr<acquire::Catalog> GenerateCatalog(const WorkloadSpec& spec,
                                                  uint64_t seed);

/// Computes lineitem's lazily cached column statistics now. Table::Stats
/// fills that cache without synchronization, so two plans racing on a
/// fresh or just-appended table can corrupt it; the benchmark fills it
/// before any concurrent planning (and again after each reference APPEND).
void WarmColumnStats(const acquire::Catalog& catalog);

/// One APPEND batch: lineitem rows as engine values.
using RowBatch = std::vector<std::vector<acquire::Value>>;

struct Op {
  enum class Kind { kSubmit, kAppend };
  Kind kind = Kind::kSubmit;
  size_t acq = 0;            // pool index (OpStream::sql) for SUBMITs
  const RowBatch* rows = nullptr;  // for APPENDs (owned by the stream)
  std::string line;          // the request line handed to the server
};

/// The seeded op stream of one run. Op i is a pure function of (spec,
/// seed, i) and of the catalog's data at construction.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed,
           const acquire::Catalog& catalog);

  /// Op `i`; ops are generated on first use. Thread-safe, and the
  /// reference stays valid for the stream's lifetime.
  const Op& Get(size_t i);

  /// SQL text of pool entry `acq`.
  const std::string& sql(size_t acq) const { return acqs_[acq]; }

  /// A standalone APPEND (the post-window probe), numbered apart from the
  /// timed ops.
  Op ProbeAppend(size_t i);

 private:
  std::string MakeAcq(const acquire::Table& table, size_t i) const;
  RowBatch MakeRows(uint64_t salt) const;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const size_t table_rows_;
  std::unique_ptr<acquire::ZipfDistribution> zipf_;
  std::vector<std::string> acqs_;
  std::mutex mu_;
  std::deque<Op> ops_;  // under mu_
  std::vector<std::unique_ptr<RowBatch>> batches_;  // under mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
