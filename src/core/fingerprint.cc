#include "core/fingerprint.h"

#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/backend.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace acquire {

namespace {

// splitmix64 finalizer: avalanches an FNV lane so near-identical keys land
// far apart in both halves.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t Fnv1a(const std::string& s, uint64_t basis) {
  uint64_t h = basis;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

const char* SearchOrderName(SearchOrder order) {
  switch (order) {
    case SearchOrder::kAuto:
      return "auto";
    case SearchOrder::kBfs:
      return "bfs";
    case SearchOrder::kShell:
      return "shell";
    case SearchOrder::kBestFirst:
      return "best_first";
  }
  return "?";
}

const char* NormKindName(NormKind kind) {
  switch (kind) {
    case NormKind::kL1:
      return "l1";
    case NormKind::kL2:
      return "l2";
    case NormKind::kLp:
      return "lp";
    case NormKind::kLInf:
      return "linf";
  }
  return "?";
}

// Exact round-trippable double spelling, so 0.1 vs 0.1+ulp flip the key.
std::string Num(double v) { return StringFormat("%.17g", v); }

std::string OptNum(const std::optional<double>& v) {
  return v.has_value() ? Num(*v) : std::string("-");
}

}  // namespace

std::string TaskFingerprint::ToHex() const {
  return StringFormat("%016llx%016llx", static_cast<unsigned long long>(hi),
                      static_cast<unsigned long long>(lo));
}

Result<std::string> CanonicalTaskKey(const Catalog& catalog,
                                     const QuerySpec& spec,
                                     const AcquireOptions& options) {
  if (options.error_fn) {
    return Status::NotImplemented(
        "task fingerprint: custom error functions have no canonical form");
  }
  if (spec.agg_kind == AggregateKind::kUda) {
    return Status::NotImplemented(
        "task fingerprint: UDA aggregates have no canonical form");
  }

  std::string key = "acq-fp-v1";

  // --- catalog identity ---
  key += StringFormat("|catalog{gen=%llu;load=%s}",
                      static_cast<unsigned long long>(catalog.generation()),
                      catalog.load_params().c_str());
  for (const std::string& name : spec.tables) {
    ACQ_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(name));
    key += StringFormat("|table{%s;rows=%zu;%s}", name.c_str(),
                        table->num_rows(),
                        table->schema().ToString().c_str());
  }

  // --- bound plan ---
  for (const JoinClauseSpec& j : spec.joins) {
    key += StringFormat("|join{%s=%s;ref=%d;cap=%s;w=%s}",
                        j.left_column.c_str(), j.right_column.c_str(),
                        j.refinable ? 1 : 0, Num(j.band_cap).c_str(),
                        Num(j.weight).c_str());
  }
  for (const ExprJoinClauseSpec& j : spec.expr_joins) {
    key += StringFormat("|exprjoin{%s %s %s;ref=%d;cap=%s;w=%s}",
                        j.left_function->ToString().c_str(),
                        CompareOpToString(j.op),
                        j.right_function->ToString().c_str(),
                        j.refinable ? 1 : 0, Num(j.band_cap).c_str(),
                        Num(j.weight).c_str());
  }
  for (const SelectPredicateSpec& p : spec.predicates) {
    key += StringFormat("|pred{%s %s %s;ref=%d;w=%s;max=%s}",
                        p.column.c_str(), CompareOpToString(p.op),
                        Num(p.bound).c_str(), p.refinable ? 1 : 0,
                        Num(p.weight).c_str(),
                        OptNum(p.max_refinement).c_str());
  }
  for (const ExprPredicateSpec& p : spec.expr_predicates) {
    key += StringFormat("|exprpred{%s %s %s;ref=%d;w=%s;max=%s}",
                        p.function->ToString().c_str(),
                        CompareOpToString(p.op), Num(p.bound).c_str(),
                        p.refinable ? 1 : 0, Num(p.weight).c_str(),
                        OptNum(p.max_refinement).c_str());
  }
  for (const CategoricalPredicateSpec& p : spec.categorical_predicates) {
    // Identify the ontology by address: trees are long-lived registry
    // objects, and the catalog generation already invalidates reloads.
    key += StringFormat("|catpred{%s in [%s];ont=%p;w=%s;roll=%s}",
                        p.column.c_str(), Join(p.categories, ",").c_str(),
                        static_cast<const void*>(p.ontology),
                        Num(p.weight).c_str(),
                        Num(p.pscore_per_rollup).c_str());
  }
  for (const ExprPtr& f : spec.fixed_filters) {
    key += StringFormat("|filter{%s}", f->ToString().c_str());
  }
  key += StringFormat("|agg{%s;col=%s}|cons{%s %s}",
                      AggregateKindToString(spec.agg_kind),
                      spec.agg_column.c_str(),
                      ConstraintOpToString(spec.constraint_op),
                      Num(spec.target).c_str());

  // --- result-affecting options, with kAuto resolved ---
  const EvalBackend backend = spec.eval_backend == EvalBackend::kAuto
                                  ? EvalBackend::kCellSorted
                                  : spec.eval_backend;
  SearchOrder order = options.order;
  if (order == SearchOrder::kAuto) {
    order = options.norm.kind() == NormKind::kLInf ? SearchOrder::kShell
                                                   : SearchOrder::kBfs;
  }
  // Mirrors RunAcquire's kAuto resolution: every order batches by default.
  const bool batched = options.batch_explore != BatchExplore::kOff;
  key += StringFormat(
      "|opts{backend=%s;gamma=%s;delta=%s;norm=%s/%s;order=%s;batch=%d;"
      "repart=%d;collect=%d;incr=%d;maxexp=%llu;dpat=%d;stall=%llu}",
      EvalBackendToString(backend), Num(options.gamma).c_str(),
      Num(options.delta).c_str(), NormKindName(options.norm.kind()),
      Num(options.norm.p()).c_str(), SearchOrderName(order), batched ? 1 : 0,
      options.repartition_iters, options.collect_within_gamma ? 1 : 0,
      options.use_incremental ? 1 : 0,
      static_cast<unsigned long long>(options.max_explored),
      options.divergence_patience,
      static_cast<unsigned long long>(options.stall_limit));
  // Deliberately absent: options.memory_budget_bytes, options.run_ctx
  // (deadline/cancellation) and failpoint state — they decide whether a run
  // completes, never what a completed run returns.
  return key;
}

Result<TaskFingerprint> FingerprintTask(const Catalog& catalog,
                                        const QuerySpec& spec,
                                        const AcquireOptions& options) {
  ACQ_ASSIGN_OR_RETURN(std::string key,
                       CanonicalTaskKey(catalog, spec, options));
  TaskFingerprint fp;
  fp.hi = Mix(Fnv1a(key, 1469598103934665603ULL));
  fp.lo = Mix(Fnv1a(key, 0x6c62272e07bb0142ULL) ^ (key.size() * 0x9e3779b97f4a7c15ULL));
  return fp;
}

}  // namespace acquire
