// Empirical check of Definition 1(b) via Theorem 1: the QScore of
// ACQUIRE's best answer is within gamma of the optimum. The optimum is
// approximated by brute force over a grid 8x finer than ACQUIRE's, which
// by the same theorem is itself within gamma/8 of the true optimum.

#include <gtest/gtest.h>
#include <cmath>

#include "core/acquire.h"
#include "exec/parallel_evaluation.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

struct GuaranteeParam {
  size_t d;
  double ratio;
  uint64_t seed;
};

class TheoremGuaranteeTest : public ::testing::TestWithParam<GuaranteeParam> {};

TEST_P(TheoremGuaranteeTest, AnswerWithinGammaOfBruteForceOptimum) {
  const GuaranteeParam param = GetParam();
  SyntheticOptions options;
  options.d = param.d;
  options.rows = 1200;
  options.seed = param.seed;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  AcqTask& task = fixture->task;
  DirectEvaluationLayer probe(&task);
  double base =
      probe.EvaluateQueryValue(std::vector<double>(param.d, 0.0)).value();
  ASSERT_GT(base, 0.0);
  task.constraint.target = base / param.ratio;

  AcquireOptions acq;
  acq.gamma = 20.0;
  acq.delta = 0.05;
  ParallelEvaluationLayer layer(&task, /*pool=*/nullptr);
  auto result = RunAcquire(task, &layer, acq);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  const double acquire_qscore = result->queries.front().qscore;

  // Brute force over an 8x finer grid: minimum L1 QScore whose refined
  // query satisfies the constraint within delta.
  const double fine_step = acq.gamma / static_cast<double>(param.d) / 8.0;
  ParallelEvaluationLayer fine_layer(&task, /*pool=*/nullptr);
  double best = std::numeric_limits<double>::infinity();
  std::vector<int32_t> caps(param.d);
  for (size_t i = 0; i < param.d; ++i) {
    caps[i] = static_cast<int32_t>(
        std::ceil(task.dims[i]->MaxPScore() / fine_step));
  }
  std::vector<int32_t> u(param.d, 0);
  std::vector<double> pscores(param.d);
  for (;;) {
    double qscore = 0.0;
    for (size_t i = 0; i < param.d; ++i) {
      pscores[i] =
          std::min(u[i] * fine_step, task.dims[i]->MaxPScore());
      qscore += pscores[i];
    }
    if (qscore < best) {  // pruning: only cheaper points matter
      double value = fine_layer.EvaluateQueryValue(pscores).value();
      if (DefaultAggregateError(task.constraint, value) <= acq.delta) {
        best = qscore;
      }
    }
    // Odometer.
    size_t pos = 0;
    while (pos < param.d && ++u[pos] > caps[pos]) {
      u[pos] = 0;
      ++pos;
    }
    if (pos == param.d) break;
  }
  ASSERT_TRUE(std::isfinite(best));
  // Definition 1(b): ||QScore - QScore_opt|| <= gamma (the brute-force
  // optimum may itself be gamma/8 above the continuous optimum, hence the
  // small slack).
  EXPECT_LE(acquire_qscore, best + acq.gamma + acq.gamma / 8.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TheoremGuaranteeTest,
    ::testing::Values(GuaranteeParam{1, 0.5, 3}, GuaranteeParam{1, 0.3, 4},
                      GuaranteeParam{2, 0.5, 5}, GuaranteeParam{2, 0.35, 6},
                      GuaranteeParam{2, 0.7, 7}),
    [](const auto& info) {
      return "d" + std::to_string(info.param.d) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace acquire
