// PricingStrategy: the interface every pricing scheme implements.
//
// Information flow mirrors the real platform:
//   1. Warmup(): the strategy may probe historical requesters (offer a price,
//      observe accept/reject) before the evaluation horizon starts.
//   2. PriceRound(): each time period, given the issued tasks and available
//      workers (never the valuations), emit one unit price per grid.
//   3. ObserveFeedback(): after requesters decide, the strategy sees which
//      tasks accepted — the only demand signal available online.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "market/demand_oracle.h"
#include "market/market_state.h"
#include "stats/price_ladder.h"
#include "util/serial.h"
#include "util/status.h"

namespace maps {

class ThreadPool;

/// \brief Shared pricing knobs (Algorithm 1 parameters; Example 4 defaults).
struct PricingConfig {
  double p_min = 1.0;   ///< lower bound of candidate prices
  double p_max = 5.0;   ///< upper bound of candidate prices
  double alpha = 0.5;   ///< ladder multiplier: successive prices differ by (1+alpha)
  double eps = 0.2;     ///< Hoeffding accuracy target of Algorithm 1
  double delta = 0.01;  ///< Hoeffding failure probability of Algorithm 1

  /// Optional explicit candidate set overriding the geometric ladder
  /// (the paper's running example prices at {1, 2, 3}). When non-empty it
  /// must be strictly ascending; p_min/p_max are taken from its endpoints.
  std::vector<double> explicit_ladder;
};

/// \brief Builds the candidate ladder a config describes (explicit set when
/// given, geometric otherwise).
inline Result<PriceLadder> MakeLadderFromConfig(const PricingConfig& config) {
  if (!config.explicit_ladder.empty()) {
    return PriceLadder::FromPrices(config.explicit_ladder);
  }
  return PriceLadder::Make(config.p_min, config.p_max, config.alpha);
}

/// \brief Abstract pricing strategy.
class PricingStrategy {
 public:
  virtual ~PricingStrategy() = default;

  /// Display name used in benchmark tables ("MAPS", "BaseP", ...).
  virtual std::string name() const = 0;

  /// One-off training against historical demand. `history` yields fresh
  /// accept/reject probes; implementations must not assume anything else
  /// about it. Default: no warm-up.
  virtual Status Warmup(const GridPartition& grid, DemandOracle* history) {
    (void)grid;
    (void)history;
    return Status::OK();
  }

  /// Lends a thread pool for the strategy's internal parallelism (the
  /// Algorithm-1 warm-up probe schedule). Non-owning: the pool must
  /// outlive its use by the strategy — lending nullptr clears a previously
  /// lent pool, which callers reusing a strategy across pool lifetimes
  /// must do. A lent pool must never change results — strategies shard
  /// work per the DESIGN.md §8/§9 determinism policy, so output is
  /// bit-identical with or without one. Lending a pool whose workers run
  /// this strategy is safe: the strategy's ParallelFor then runs inline on
  /// that worker (DESIGN.md §8). Default: ignore.
  virtual void LendPool(ThreadPool* pool) { (void)pool; }

  /// Computes the unit price for every grid for this period.
  /// \param[out] grid_prices resized to snapshot.num_grids()
  virtual Status PriceRound(const MarketSnapshot& snapshot,
                            std::vector<double>* grid_prices) = 0;

  /// Reports requester decisions: accepted[i] corresponds to
  /// snapshot.tasks()[i]. Default: ignore.
  virtual void ObserveFeedback(const MarketSnapshot& snapshot,
                               const std::vector<double>& grid_prices,
                               const std::vector<bool>& accepted) {
    (void)snapshot;
    (void)grid_prices;
    (void)accepted;
  }

  /// Current live footprint of the strategy's internal state, for the
  /// paper's memory plots. Default 0 (stateless).
  virtual size_t MemoryFootprintBytes() const { return 0; }

  /// Serializes the strategy's learned state for checkpointing (DESIGN.md
  /// §12). Configuration (the ladder, tuning options) is NOT serialized —
  /// the restoring process reconstructs the strategy from the same config,
  /// and LoadState cross-checks cheap fingerprints (ladder size/prices)
  /// where available. Every payload starts with a strategy-private u32
  /// version so formats can evolve independently. The default covers
  /// stateless strategies: a version tag and nothing else.
  virtual Status SaveState(StateWriter* w) const {
    w->PutU32(1);
    return Status::OK();
  }

  /// Restores state written by SaveState on an identically configured
  /// strategy. All-or-nothing: on any failure the strategy is left
  /// unchanged.
  virtual Status LoadState(StateReader* r) {
    uint32_t version = 0;
    MAPS_RETURN_NOT_OK(r->GetU32(&version, "strategy state version"));
    if (version != 1) {
      return Status::InvalidArgument(
          "unsupported stateless strategy state version " +
          std::to_string(version));
    }
    return Status::OK();
  }
};

}  // namespace maps
