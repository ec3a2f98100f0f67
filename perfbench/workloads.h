// The three replay workloads of the end-to-end benchmark, their seeded log
// generator (Table-3 synthetic shape -> sim/replay_export JSONL, plus the
// churn splicer for sharded_k4), and the FNV-1a digest used to pin both the
// generated log bytes and the replayed outputs. See README.md in this
// directory for why each workload exists.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "util/status.h"

namespace perfbench {

/// \brief One benchmark workload: how its log is generated and how the
/// engine that replays it is configured.
struct WorkloadSpec {
  const char* name = "";
  int tasks = 0;
  int workers = 0;
  int periods = 0;
  int grid = 8;
  double radius = 15.0;
  /// Worker lifecycle: single-use (paper's synthetic setting) or turnaround.
  bool single_use = true;
  /// Stddev of task and worker arrival periods, as a fraction of T.
  double temporal_sigma = 0.2;
  /// Replay regions K (1 = MarketEngine, >1 = ShardedMarketEngine).
  int regions = 1;
  /// Pool threads lent to the engine (0 = no pool), capped at the core count.
  int threads = 0;
  /// SaveCheckpoint (blob only) after every N-th close; 0 = never.
  int checkpoint_every = 0;
  /// Generator shaping for multi-region logs (sim/synthetic.h).
  int sharded_regions = 1;
  double region_skew = 0.0;
  double boundary_worker_frac = 0.0;
  /// Splice seeded worker removals and acceptance observations into the log.
  bool churn = false;
};

/// \brief The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief Comma-separated workload names, for usage messages.
std::string WorkloadNames();

/// \brief `spec` with task and worker counts multiplied by `scale` (at least
/// one of each); the period count and every other knob are unchanged, so a
/// tiny-scale ingest_k1 still has 2,000 closes.
WorkloadSpec Scaled(const WorkloadSpec& spec, double scale);

/// \brief Generates the workload's event log for `seed` into `out`: the
/// synthetic generator writes it through WriteReplayLog, then, for churn
/// workloads, SpliceChurn adds removals and acceptance observations.
maps::Status WriteWorkloadLog(const WorkloadSpec& spec, uint64_t seed,
                              std::ostream& out);

/// \brief Copies the JSONL log `in` to `out`, adding seeded churn:
///   * about 5% of admitted workers get a remove_worker at the start of a
///     later period inside the middle half of the horizon [T/4, 3T/4);
///   * about 10% of tasks get an observe_acceptance (a seeded coin) just
///     before their own period's close_period.
/// A removal only names a worker added in an earlier period and is emitted
/// once; an observation only names a task submitted earlier in the same
/// period. So no spliced event can be rejected by the engine, and the
/// expected failed-operation count stays exactly 0.
maps::Status SpliceChurn(const std::string& in, int periods, uint64_t seed,
                         std::ostream& out);

/// \brief 64-bit FNV-1a, folded incrementally.
class Fnv64 {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// \brief Lowercase 16-digit hex of a digest.
std::string Hex(uint64_t v);

}  // namespace perfbench
