#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/replay_export.h"
#include "sim/synthetic.h"

namespace perfbench {

namespace {

// Sizes were chosen on a 4-core host so that one Release replay takes
// 1-2 s; README.md records why each shape stresses the layer it does.
// dense_k1 and sharded_k4 flatten the arrival curve (sigma 0.3 T, not the
// default 0.2 T). With the default one, dense_k1's peak period, and so its
// peak RSS, swung by 16% from seed to seed, and sharded_k4's median close
// sat on the steep middle of its period-size curve, moving 19% per seed.
const WorkloadSpec kWorkloads[] = {
    {.name = "ingest_k1",
     .tasks = 200000,
     .workers = 50000,
     .periods = 2000,
     .grid = 8,
     .radius = 15.0,
     .single_use = true},
    {.name = "dense_k1",
     .tasks = 40000,
     .workers = 20000,
     .periods = 100,
     .grid = 8,
     .radius = 30.0,
     .single_use = false,
     .temporal_sigma = 0.3},
    {.name = "sharded_k4",
     .tasks = 80000,
     .workers = 20000,
     .periods = 200,
     .grid = 8,
     .radius = 20.0,
     .single_use = false,
     .temporal_sigma = 0.3,
     .regions = 4,
     .threads = 4,
     .checkpoint_every = 10,
     .sharded_regions = 4,
     .region_skew = 0.5,
     .boundary_worker_frac = 0.2,
     .churn = true},
};

constexpr double kRemoveShare = 0.05;
constexpr double kObserveShare = 0.10;

/// Uniform double in [0, 1) from the top 53 bits: unlike
/// std::uniform_real_distribution, the same on every standard library.
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// The "id" of a flat JSON event line, or -1.
int64_t IdOf(std::string_view line) {
  constexpr std::string_view kKey = "\"id\":";
  const size_t at = line.find(kKey);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(line.data() + at + kKey.size(), nullptr, 10);
}

/// `kind` is the quoted event name, e.g. "\"close_period\"".
bool HasKind(std::string_view line, std::string_view kind) {
  return line.find(kind) != std::string_view::npos;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ",";
    out += w.name;
  }
  return out;
}

WorkloadSpec Scaled(const WorkloadSpec& spec, double scale) {
  WorkloadSpec out = spec;
  out.tasks = std::max(1, static_cast<int>(std::lround(spec.tasks * scale)));
  out.workers =
      std::max(1, static_cast<int>(std::lround(spec.workers * scale)));
  return out;
}

maps::Status WriteWorkloadLog(const WorkloadSpec& spec, uint64_t seed,
                              std::ostream& out) {
  maps::SyntheticConfig cfg;
  cfg.num_tasks = spec.tasks;
  cfg.num_workers = spec.workers;
  cfg.num_periods = spec.periods;
  cfg.grid_rows = spec.grid;
  cfg.grid_cols = spec.grid;
  cfg.worker_radius = spec.radius;
  cfg.temporal_sigma = spec.temporal_sigma;
  // Every cell gets the same demand curve. With the generator's per-cell
  // jitter, the few hot central cells drew a different market per seed, and
  // revenue alone moved 4-6% between seeds; now a seed resamples tasks,
  // workers and valuations of one market.
  cfg.grid_mu_jitter = 0.0;
  cfg.sharded_regions = spec.sharded_regions;
  cfg.region_skew = spec.region_skew;
  cfg.boundary_worker_frac = spec.boundary_worker_frac;
  cfg.seed = seed;
  auto workload = maps::GenerateSynthetic(cfg);
  if (!workload.ok()) return workload.status();
  if (!spec.churn) return maps::WriteReplayLog(workload.ValueOrDie(), out);
  std::ostringstream plain;
  MAPS_RETURN_NOT_OK(maps::WriteReplayLog(workload.ValueOrDie(), plain));
  return SpliceChurn(plain.str(), spec.periods,
                     seed * 0x9e3779b97f4a7c15ULL + 1, out);
}

maps::Status SpliceChurn(const std::string& in, int periods, uint64_t seed,
                         std::ostream& out) {
  std::mt19937_64 rng(seed);
  const int window_lo = periods / 4;
  const int window_hi = 3 * periods / 4;  // exclusive
  std::map<int, std::vector<int64_t>> removals;  // period -> worker ids
  std::vector<std::pair<int64_t, bool>> observations;
  int period = 0;
  size_t pos = 0;
  while (pos < in.size()) {
    size_t end = in.find('\n', pos);
    if (end == std::string::npos) end = in.size();
    const std::string_view line(in.data() + pos, end - pos);
    pos = end + 1;
    if (HasKind(line, "\"add_worker\"")) {
      const int64_t id = IdOf(line);
      if (id < 0) {
        return maps::Status::InvalidArgument("add_worker without id");
      }
      const int lo = std::max(period + 1, window_lo);
      if (Uniform(rng) < kRemoveShare && lo < window_hi) {
        const int at = lo + static_cast<int>(rng() % (window_hi - lo));
        removals[at].push_back(id);
      }
    } else if (HasKind(line, "\"submit_task\"")) {
      const int64_t id = IdOf(line);
      if (id < 0) {
        return maps::Status::InvalidArgument("submit_task without id");
      }
      if (Uniform(rng) < kObserveShare) {
        observations.emplace_back(id, Uniform(rng) < 0.5);
      }
    } else if (HasKind(line, "\"close_period\"")) {
      for (const auto& [task, accepted] : observations) {
        out << "{\"event\":\"observe_acceptance\",\"task\":" << task
            << ",\"accepted\":" << (accepted ? "true" : "false") << "}\n";
      }
      observations.clear();
      out << line << '\n';
      ++period;
      if (auto it = removals.find(period); it != removals.end()) {
        for (int64_t id : it->second) {
          out << "{\"event\":\"remove_worker\",\"id\":" << id << "}\n";
        }
        removals.erase(it);
      }
      continue;
    }
    out << line << '\n';
  }
  if (!observations.empty() || !removals.empty()) {
    return maps::Status::InvalidArgument(
        "log ended before its last close_period; churn left unspliced");
  }
  if (!out) return maps::Status::Internal("spliced log write failed");
  return maps::Status::OK();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
