// Exact-oracle regret harness (the ground truth behind ROBUSTNESS.json).
//
// Two layers on top of the possible-world machinery:
//
//  * MonteCarloExpectedRevenueWithCI — the counter-based Monte-Carlo
//    estimator of possible_worlds.h extended with a confidence-interval
//    stopping rule, so mid-size instances (hundreds of tasks, where the 2^n
//    exact enumeration is hopeless) get an oracle score with a KNOWN error
//    bar. Worlds are consumed in fixed-size batches; after each batch the
//    normal-approximation half width z * stddev / sqrt(n) is compared
//    against the tolerance. Both the batch schedule and the per-batch
//    (sum, sum_squares) folds are pure functions of (seed, options), never
//    of the thread count, so the estimate — including WHEN it stops — is
//    bit-identical at 1, 2, or 8 threads.
//
//  * EvaluatePeriodRegret — scores one period's posted prices against the
//    best fixed ladder pricing in hindsight. Three oracle regimes, picked
//    per instance:
//      kExactPerGrid:  <= 25 tasks and a feasible combination space — the
//                      full OracleSearch odometer, exact per-grid optimum.
//      kExactUniform:  <= 25 tasks but too many busy grids — the best
//                      UNIFORM ladder price, each candidate scored exactly.
//      kMcUniform:     > 25 tasks — best uniform ladder price, every
//                      candidate (and the posted prices) scored by the
//                      CI-bounded Monte Carlo above.
//    The uniform fallback is a LOWER bound on the per-grid optimum, so
//    regret against it can be negative for strategies that exploit per-grid
//    differentiation; the report says which regime produced the number.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/possible_worlds.h"
#include "market/demand_oracle.h"
#include "market/market_state.h"
#include "stats/price_ladder.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace maps {

/// \brief Stopping rule for the CI-bounded Monte-Carlo oracle. The estimate
/// stops at the first multiple of `batch_worlds` where the half width falls
/// below max(rel_half_width * |mean|, abs_half_width), or at `max_worlds`.
struct McCiOptions {
  /// Seed family: world w draws from CounterRng stream (seed, w).
  uint64_t seed = 0x6f7263636949ULL;  // "orcciI"
  /// Worlds added between two half-width checks. Part of the determinism
  /// contract: the sampled world sequence is identical for any thread count
  /// because batch boundaries are a function of this constant only.
  int batch_worlds = 1024;
  /// Hard cap on sampled worlds (the estimate reports converged = false
  /// when it stops here).
  int64_t max_worlds = 1 << 17;
  /// Two-sided normal quantile of the interval (default: 99%).
  double z = 2.5758293035489004;
  /// Relative tolerance: stop when half_width <= rel_half_width * |mean|.
  double rel_half_width = 0.02;
  /// Absolute floor so a near-zero mean (empty-ish markets) still stops.
  double abs_half_width = 1e-3;
};

/// \brief A Monte-Carlo estimate with its half width.
struct McCiEstimate {
  double mean = 0.0;
  /// z * sample-stddev / sqrt(worlds); 0 when worlds < 2.
  double half_width = 0.0;
  int64_t worlds = 0;
  /// True when the stopping rule was satisfied before max_worlds.
  bool converged = false;
};

/// \brief CI-bounded Monte-Carlo expected revenue of priced tasks.
/// Bit-identical — mean, half width, world count, convergence flag — for
/// any thread count, including `pool == nullptr`.
McCiEstimate MonteCarloExpectedRevenueWithCI(
    const BipartiteGraph& graph, const std::vector<PricedTask>& tasks,
    const McCiOptions& options, ThreadPool* pool,
    std::vector<PossibleWorldsWorkspace>* workspaces);

/// \brief Convenience overload: scores the snapshot's graph with priced
/// tasks built from the true demand and a per-grid price vector.
McCiEstimate MonteCarloRevenueOfPricesWithCI(
    const MarketSnapshot& snapshot, const DemandOracle& truth,
    const std::vector<double>& grid_prices, const McCiOptions& options,
    ThreadPool* pool = nullptr);

/// \brief Which oracle regime scored the hindsight optimum.
enum class OracleMode {
  kExactPerGrid,  ///< full OracleSearch odometer, exact per-grid optimum
  kExactUniform,  ///< best uniform ladder price, candidates scored exactly
  kMcUniform,     ///< best uniform ladder price, candidates scored by MC-CI
};

const char* OracleModeName(OracleMode mode);

/// \brief Knobs for EvaluatePeriodRegret.
struct RegretOptions {
  /// Stopping rule shared by every MC-scored quantity of the evaluation.
  McCiOptions mc;
  /// Beyond this many tasks the 2^n exact enumeration is off the table.
  int max_exact_tasks = 25;
  /// Beyond this many ladder combinations the per-grid odometer is off the
  /// table (matches the OracleSearch guard).
  double max_exact_combinations = 2e6;
  /// Optional pool; results are bit-identical with or without it.
  ThreadPool* pool = nullptr;
};

/// \brief One period's regret versus the hindsight oracle.
struct PeriodRegret {
  OracleMode oracle_mode = OracleMode::kExactPerGrid;
  /// True when BOTH sides were scored by exact enumeration (half widths 0).
  bool exact = false;
  /// Expected revenue of the oracle's prices (and its error bar).
  double oracle_value = 0.0;
  double oracle_half_width = 0.0;
  /// Expected revenue of the strategy's posted prices (and its error bar).
  double posted_value = 0.0;
  double posted_half_width = 0.0;
  /// oracle_value - posted_value. May be negative in the uniform regimes.
  double regret = 0.0;
  /// Total Monte-Carlo worlds sampled across both sides (0 when exact).
  int64_t mc_worlds = 0;
  /// The oracle's full per-grid price vector.
  std::vector<double> oracle_prices;
};

/// \brief Scores `posted_prices` for the period in `snapshot` against the
/// best fixed ladder pricing in hindsight under the TRUE demand. The
/// snapshot must carry the period's tasks and available workers;
/// `posted_prices` must have one entry per grid cell. Deterministic and
/// bit-identical for any thread count.
Result<PeriodRegret> EvaluatePeriodRegret(
    const MarketSnapshot& snapshot, const DemandOracle& truth,
    const PriceLadder& ladder, const std::vector<double>& posted_prices,
    const RegretOptions& options = {});

}  // namespace maps
