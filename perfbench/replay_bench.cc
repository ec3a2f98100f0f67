// replay_bench: the end-to-end replay benchmark's program (run it through
// run.py, which builds it, generates the log, and calls it twice).
//
//   replay_bench gen --workload W --seed S [--scale X] --out LOG
//       writes the workload's seeded JSONL event log.
//   replay_bench run --workload W --seed S --log LOG --seconds N --trace 0|1
//                    [--scale X] [--pins FILE] [--trace-out FILE]
//       replays LOG repeatedly for N seconds and prints one JSON result as
//       the last line of stdout.
//
// Load model: one client in one process, closed loop — the next event is
// applied only after the previous call returned. The only parallelism is
// the engine's own pool (sharded_k4: 4 threads, capped at the core count).
//
// --trace 0 measures the end-to-end metrics through the real path,
// ReplayEventsThroughEngine -> MarketEngine / ShardedMarketEngine, with no
// telemetry attached. --trace 1 alternates those untraced replays with
// traced ones: the benchmark's own copy of the replay loop records spans
// around every call into a layer and attaches an obs::MetricsRegistry, and
// the per-layer metrics come from both. Every replay folds its outcomes into
// a digest; all digests of one run must agree, and for pinned (workload,
// seed, scale) triples both the log digest and the output digest must
// equal the pins. Any check failure prints "correct": false and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/region_partition.h"
#include "line_feed.h"
#include "market/demand_model.h"
#include "market/demand_oracle.h"
#include "obs/metrics.h"
#include "pricing/strategy.h"
#include "service/market_engine.h"
#include "service/outcome_invariants.h"
#include "service/replay_driver.h"
#include "service/replay_log.h"
#include "service/sharded_engine.h"
#include "sim/metrics.h"
#include "spans.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

using maps::MarketEngine;
using maps::PeriodOutcome;
using maps::ReplayEvent;
using maps::ShardedMarketEngine;
using maps::Status;

/// Events the traced loop reads per ingest span (a batch also ends at a
/// close_period, so most ingest_k1 periods are one batch).
constexpr size_t kIngestBatch = 256;
/// setup_s is the median of at least this many set-ups per run.
constexpr size_t kMinSetups = 5;
/// close_p99_ms needs ten samples beyond it, so 1,000 closes per replay.
constexpr int64_t kP99MinCloses = 1000;
constexpr size_t kMaxReps = 1000;
/// The replay deployment's configuration, as `maps_cli replay` defaults it.
constexpr double kDemandMu = 2.0;
constexpr double kDemandSigma = 1.0;
constexpr uint64_t kOracleSeed = 17;

struct Args {
  std::string mode;
  std::string workload;
  std::string log;
  std::string out;
  std::string pins;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
};

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (`p` in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

/// Shortest round-trip spelling: every digit as measured.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints every metric as a `metric` line; the final JSON carries only the
/// Json() ones, exactly the names BENCHMARK.json lists for the mode.
class Report {
 public:
  void Json(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    json_.push_back({name, value, unit});
    Text(name, value, unit, note);
  }
  void Text(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    std::cout << "metric " << name << " " << Num(value) << " " << unit;
    if (!note.empty()) std::cout << " (" << note << ")";
    std::cout << "\n";
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (size_t i = 0; i < json_.size(); ++i) {
      const Metric& m = json_[i];
      std::cout << (i ? ", " : "") << "\"" << m.name
                << "\": {\"value\": " << Num(m.value) << ", \"unit\": \""
                << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<Metric> json_;
};

// ---------------------------------------------------------------------------
// Deployment: everything one replay needs, built fresh per replay
// ---------------------------------------------------------------------------

/// Fixed for the whole process.
struct Setting {
  WorkloadSpec spec;
  const maps::GridPartition* grid = nullptr;
  const maps::RegionPartition* partition = nullptr;  // regions > 1 only
  maps::PricingConfig pricing;
  maps::StrategyFactory factory;
  int threads = 0;
  std::string log_path;
};

struct Deployment {
  // Members are destroyed in reverse order: the engines first, then the
  // pool they submit to, then the strategies they drive.
  std::optional<maps::DemandOracle> oracle;
  std::vector<std::unique_ptr<maps::PricingStrategy>> strategies;
  std::unique_ptr<maps::ThreadPool> pool;
  std::unique_ptr<MarketEngine> mono;
  std::unique_ptr<ShardedMarketEngine> sharded;

  template <typename F>
  Status Visit(F&& f) {
    return mono != nullptr ? f(mono.get()) : f(sharded.get());
  }
};

struct SetupTiming {
  double setup_s = 0.0;
  std::vector<double> warmup_s;  // one per region
};

/// Strategy construction + pool + engine construction + K x Warmup, the
/// order `maps_cli replay` uses. `warm=false` builds the target of a
/// checkpoint restore. Spans (when given) are roots with request -1.
Status BuildDeployment(const Setting& s, int threads,
                       maps::obs::MetricsRegistry* registry, bool warm,
                       SpanRecorder* spans, Deployment* d,
                       SetupTiming* timing) {
  const int64_t t0 = NowNs();
  const int32_t setup_span =
      spans != nullptr ? spans->Begin("setup", -1, -1, t0) : -1;
  maps::TruncatedNormalDemand proto(kDemandMu, kDemandSigma, s.pricing.p_min,
                                    s.pricing.p_max);
  auto oracle = maps::DemandOracle::Make(
      maps::ReplicateDemand(proto, s.grid->num_cells()), kOracleSeed);
  if (!oracle.ok()) return oracle.status();
  d->oracle.emplace(std::move(oracle).ValueOrDie());
  for (int k = 0; k < s.spec.regions; ++k) {
    d->strategies.push_back(s.factory.make());
  }
  maps::EngineOptions options;
  options.lifecycle.single_use = s.spec.single_use;
  options.metrics = registry;
  if (threads > 0) {
    d->pool = std::make_unique<maps::ThreadPool>(threads);
    d->pool->AttachMetrics(registry);
    options.pool = d->pool.get();
  }
  if (s.spec.regions == 1) {
    d->mono = std::make_unique<MarketEngine>(
        s.grid, d->strategies[0].get(), options);
  } else {
    std::vector<maps::PricingStrategy*> regions;
    for (const auto& st : d->strategies) regions.push_back(st.get());
    d->sharded = std::make_unique<ShardedMarketEngine>(
        s.grid, s.partition, std::move(regions), options);
  }
  if (warm) {
    for (const auto& st : d->strategies) {
      const int64_t w0 = NowNs();
      MAPS_RETURN_NOT_OK(st->Warmup(*s.grid, &*d->oracle));
      const int64_t w1 = NowNs();
      if (spans != nullptr) spans->Add("warmup", setup_span, -1, w0, w1);
      if (timing != nullptr) timing->warmup_s.push_back((w1 - w0) * 1e-9);
    }
  }
  const int64_t t1 = NowNs();
  if (spans != nullptr) spans->End(setup_span, t1);
  if (timing != nullptr) timing->setup_s = (t1 - t0) * 1e-9;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared accounting
// ---------------------------------------------------------------------------

/// Folds everything a close produced — prices, accepted ids, matches,
/// revenue — bit for bit.
void FoldOutcome(const PeriodOutcome& o, Fnv64* d) {
  d->AddValue(o.period);
  d->AddValue(static_cast<uint8_t>(o.skipped));
  d->AddValue(o.num_tasks);
  d->AddValue(o.num_available_workers);
  d->AddValue(o.prices.size());
  d->Add(o.prices.data(), o.prices.size() * sizeof(double));
  d->AddValue(o.accepted.size());
  d->Add(o.accepted.data(), o.accepted.size() * sizeof(maps::TaskId));
  d->AddValue(o.matches.size());
  for (const maps::MatchRecord& m : o.matches) {
    d->AddValue(m.task);
    d->AddValue(m.worker);
    d->AddValue(m.revenue);
  }
  d->AddValue(o.revenue);
}

/// Events the engine took but counted as rejected. Honored busy-worker
/// removals are not failures.
int64_t RejectedOps(const maps::EngineRejectionCounters& r) {
  return r.duplicate_tasks + r.unknown_worker_removals + r.orphan_acceptances +
         r.deferred_tasks;
}

struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Saves `engine`, restores the blob into a fresh, unwarmed deployment and
/// saves that again: the two blobs must be byte-identical. Records the
/// final save and the restore as spans (request = final period) when
/// traced.
template <typename Engine>
Status CheckpointRoundTrip(const Setting& s, Engine* engine,
                           SpanRecorder* spans, Ops* ops,
                           std::string* final_blob, double* save_s,
                           double* restore_s) {
  const int64_t request = engine->current_period();
  ++ops->attempted;
  int64_t t0 = NowNs();
  Status st = engine->SaveCheckpoint(final_blob);
  int64_t t1 = NowNs();
  if (!st.ok()) {
    ++ops->failed;
    return st;
  }
  if (spans != nullptr) {
    spans->Add("checkpoint.save", -1, request, t0, t1);
  }
  *save_s = (t1 - t0) * 1e-9;
  Deployment fresh;
  MAPS_RETURN_NOT_OK(BuildDeployment(s, 0, nullptr, /*warm=*/false, nullptr,
                                     &fresh, nullptr));
  std::string again;
  ++ops->attempted;
  t0 = NowNs();
  st = fresh.Visit(
      [&](auto* e) { return e->RestoreFromCheckpoint(*final_blob); });
  t1 = NowNs();
  if (st.ok()) {
    ++ops->attempted;
    st = fresh.Visit([&](auto* e) { return e->SaveCheckpoint(&again); });
  }
  if (!st.ok()) {
    ++ops->failed;
    return st;
  }
  if (spans != nullptr) {
    spans->Add("checkpoint.restore", -1, request, t0, t1);
  }
  *restore_s = (t1 - t0) * 1e-9;
  if (again != *final_blob) {
    return Status::Internal(
        "checkpoint round trip: the restored engine saves different bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Untraced replay: the real ReplayEventsThroughEngine path
// ---------------------------------------------------------------------------

struct UntracedRep {
  SetupTiming setup;
  double rss_mb = 0.0;  // process peak RSS right after this replay
  double wall_s = 0.0;  // first Next -> return of the last close (+ save)
  int64_t events = 0;
  std::vector<double> close_ms;
  double revenue = 0.0;
  uint64_t digest = 0;
  Ops ops;
};

template <typename Engine>
Status ReplayUntraced(const Setting& s, Engine* engine, UntracedRep* rep) {
  LineFeedBuf buf;
  MAPS_RETURN_NOT_OK(buf.Open(s.log_path));
  std::istream in(&buf);
  maps::ReplayEventStream stream(in);
  Fnv64 digest;
  int64_t bench_ns = 0;  // digest folding inside the timed window
  int64_t last_return = 0;
  maps::ReplayStreamOptions options;
  options.on_close = [&](const PeriodOutcome& outcome) -> Status {
    const int64_t end = NowNs();
    // The stream must not have read past this close_period line yet, or
    // the line-read stamp would not mark the start of this close.
    if (buf.closes_read() != static_cast<int64_t>(rep->close_ms.size()) + 1 ||
        buf.last_close_read_ns() < last_return) {
      return Status::FailedPrecondition(
          "the event stream read ahead of the close being served; close "
          "latency can no longer be measured from line reads");
    }
    rep->close_ms.push_back((end - buf.last_close_read_ns()) * 1e-6);
    const int every = s.spec.checkpoint_every;
    if (every > 0 && engine->current_period() % every == 0) {
      std::string blob;  // blob only: no file, no fsync (README.md)
      ++rep->ops.attempted;
      if (Status st = engine->SaveCheckpoint(&blob); !st.ok()) {
        ++rep->ops.failed;
        return st;
      }
    }
    const int64_t f0 = NowNs();
    FoldOutcome(outcome, &digest);
    last_return = NowNs();
    bench_ns += last_return - f0;
    return Status::OK();
  };
  const int64_t t0 = NowNs();
  auto summary = maps::ReplayEventsThroughEngine(&stream, *s.grid, engine,
                                                 options);
  if (!summary.ok()) {
    ++rep->ops.attempted;
    ++rep->ops.failed;
    return summary.status();
  }
  rep->wall_s = (last_return - t0 - bench_ns) * 1e-9;
  rep->events = summary.ValueOrDie().events_applied;
  rep->revenue = summary.ValueOrDie().total_revenue;
  rep->digest = digest.value();
  rep->ops.attempted += rep->events;
  rep->ops.failed += RejectedOps(engine->rejections());
  return Status::OK();
}

Status RunUntracedRep(const Setting& s, bool round_trip, UntracedRep* rep) {
  Deployment d;
  MAPS_RETURN_NOT_OK(BuildDeployment(s, s.threads, nullptr, /*warm=*/true,
                                     nullptr, &d, &rep->setup));
  return d.Visit([&](auto* engine) -> Status {
    MAPS_RETURN_NOT_OK(ReplayUntraced(s, engine, rep));
    rep->rss_mb = PeakRssMb();
    if (!round_trip) return Status::OK();
    std::string blob;
    double save_s = 0.0;
    double restore_s = 0.0;
    return CheckpointRoundTrip(s, engine, nullptr, &rep->ops, &blob, &save_s,
                               &restore_s);
  });
}

// ---------------------------------------------------------------------------
// Traced replay: the benchmark's own copy of the replay loop
// ---------------------------------------------------------------------------

struct TracedRep {
  SpanRecorder spans;
  SetupTiming setup;
  std::map<std::string, double> self_s;  // per span name
  double wall_s = 0.0;  // replay span minus bench-only checks
  int64_t events = 0;
  int64_t bytes = 0;
  int64_t calls = 0;
  int64_t call_failures = 0;
  int64_t closes = 0;
  int64_t tasks = 0;
  int64_t accepted = 0;
  int64_t matched = 0;
  int64_t skipped = 0;
  std::vector<double> save_ms;
  int64_t checkpoint_bytes = 0;
  double restore_ms = 0.0;
  uint64_t digest = 0;
  Ops ops;
  // Read from the attached registry after the replay.
  double prebuild_s = 0.0;
  double price_round_s = 0.0;
  double matching_s = 0.0;
  double region_close_s = 0.0;
  double merge_s = 0.0;
  double stitch_s = 0.0;
  double repatriate_s = 0.0;
  int64_t stitch_matches = 0;
  int64_t repatriations = 0;
  int64_t pool_tasks = 0;
  double pool_task_run_s = 0.0;
};

/// Applies one non-close event exactly as ReplayEventsThroughEngine does.
template <typename Engine>
Status ApplyEvent(Engine* engine, const maps::GridPartition& grid,
                  const ReplayEvent& ev, std::vector<maps::Task>* tasks) {
  switch (ev.kind) {
    case ReplayEvent::Kind::kSubmitTask: {
      maps::Task task = ev.task;
      task.grid = grid.CellOf(task.origin);
      task.period = engine->current_period();
      if (task.distance <= 0.0) {
        task.distance = maps::EuclideanDistance(task.origin, task.destination);
      }
      tasks->push_back(task);
      return engine->SubmitTask(
          task, ev.has_valuation ? ev.valuation : MarketEngine::kNoValuation);
    }
    case ReplayEvent::Kind::kAddWorker: {
      maps::Worker worker = ev.worker;
      worker.grid = grid.CellOf(worker.location);
      worker.period = engine->current_period();
      return engine->AddWorker(worker);
    }
    case ReplayEvent::Kind::kRemoveWorker:
      return engine->RemoveWorker(ev.id);
    case ReplayEvent::Kind::kObserveAcceptance:
      return engine->ObserveAcceptance(ev.id, ev.accepted);
    case ReplayEvent::Kind::kClosePeriod:
      break;
  }
  return Status::Internal("close_period reached ApplyEvent");
}

/// Span tree per period p (request p): period -> {ingest*, submit*, close,
/// checkpoint.save?, check}; every period hangs off one "replay" root.
/// "check" (invariants + digest) is the benchmark's own work and is taken
/// out of the traced wall time.
template <typename Engine>
Status ReplayTraced(const Setting& s, Engine* engine,
                    maps::obs::MetricsRegistry* registry, TracedRep* rep) {
  LineFeedBuf buf;
  MAPS_RETURN_NOT_OK(buf.Open(s.log_path));
  std::istream in(&buf);
  maps::ReplayEventStream stream(in);
  stream.AttachMetrics(registry);
  SpanRecorder& spans = rep->spans;
  std::vector<ReplayEvent> batch(kIngestBatch);
  std::vector<maps::Task> period_tasks;
  maps::EngineRejectionCounters previous;
  PeriodOutcome outcome;
  Fnv64 digest;
  const int64_t t0 = NowNs();
  const int32_t replay = spans.Begin("replay", -1, -1, t0);
  int32_t period = -1;
  int64_t request = -1;
  int64_t last_end = t0;
  while (true) {
    int64_t start = NowNs();
    size_t n = 0;
    bool close = false;
    bool eof = false;
    while (n < kIngestBatch) {
      auto more = stream.Next(&batch[n]);
      MAPS_RETURN_NOT_OK(more.status());
      if (!more.ValueOrDie()) {
        eof = true;
        break;
      }
      if (batch[n].kind == ReplayEvent::Kind::kClosePeriod) {
        close = true;
        break;
      }
      ++n;
    }
    int64_t end = NowNs();
    if (n == 0 && !close) break;  // end of log
    if (period < 0) {
      request = engine->current_period();
      period = spans.Begin("period", replay, request, start);
    }
    spans.Add("ingest", period, request, start, end);
    rep->events += static_cast<int64_t>(n) + (close ? 1 : 0);
    if (n > 0) {
      start = end;
      for (size_t i = 0; i < n; ++i) {
        ++rep->calls;
        if (Status st = ApplyEvent(engine, *s.grid, batch[i], &period_tasks);
            !st.ok()) {
          ++rep->call_failures;
          return Status(st.code(), "near line " +
                                       std::to_string(stream.line_number()) +
                                       ": " + st.message());
        }
      }
      end = NowNs();
      spans.Add("submit", period, request, start, end);
    }
    if (close) {
      start = end;
      const Status st = engine->ClosePeriod(&outcome);
      end = NowNs();
      spans.Add("close", period, request, start, end);
      if (!st.ok()) {
        ++rep->call_failures;
        return st;
      }
      ++rep->closes;
      const int every = s.spec.checkpoint_every;
      if (every > 0 && engine->current_period() % every == 0) {
        std::string blob;  // blob only: no file, no fsync (README.md)
        start = end;
        const Status save = engine->SaveCheckpoint(&blob);
        end = NowNs();
        spans.Add("checkpoint.save", period, request, start, end);
        ++rep->ops.attempted;
        if (!save.ok()) {
          ++rep->ops.failed;
          return save;
        }
        rep->save_ms.push_back((end - start) * 1e-6);
        rep->checkpoint_bytes += static_cast<int64_t>(blob.size());
      }
      start = end;
      maps::InvariantContext context;
      context.period_tasks = &period_tasks;
      context.previous_rejections = &previous;
      const Status inv = maps::CheckPeriodOutcomeInvariants(outcome, context);
      if (!inv.ok()) {
        return Status(inv.code(), "period " + std::to_string(outcome.period) +
                                      " outcome invariant: " + inv.message());
      }
      FoldOutcome(outcome, &digest);
      previous = outcome.rejections;
      period_tasks.clear();
      rep->tasks += outcome.num_tasks;
      rep->accepted += static_cast<int64_t>(outcome.accepted.size());
      rep->matched += static_cast<int64_t>(outcome.matches.size());
      rep->skipped += outcome.skipped ? 1 : 0;
      end = NowNs();
      spans.Add("check", period, request, start, end);
      spans.End(period, end);
      period = -1;
      last_end = end;
    }
    if (eof) break;
  }
  if (period >= 0) spans.End(period, last_end = NowNs());
  spans.End(replay, last_end);
  rep->digest = digest.value();
  rep->ops.attempted += rep->events;
  rep->ops.failed += RejectedOps(engine->rejections());
  rep->call_failures += engine->rejections().duplicate_tasks +
                        engine->rejections().unknown_worker_removals +
                        engine->rejections().orphan_acceptances;

  auto hist_s = [&](const char* name) {
    return registry->GetHistogram(name)->sum() * 1e-9;
  };
  rep->prebuild_s = hist_s("engine.close.prebuild_ns");
  rep->price_round_s = hist_s("engine.close.price_round_ns");
  rep->matching_s = hist_s("engine.close.matching_ns");
  rep->region_close_s = hist_s("sharded.region_close_ns");
  rep->merge_s = hist_s("sharded.merge_ns");
  rep->stitch_s = hist_s("sharded.stitch_ns");
  rep->repatriate_s = hist_s("sharded.repatriate_ns");
  rep->pool_task_run_s = hist_s("pool.task_run_ns");
  rep->stitch_matches = registry->GetCounter("sharded.stitch_matches")->value();
  rep->repatriations = registry->GetCounter("sharded.repatriations")->value();
  rep->pool_tasks = registry->GetCounter("pool.tasks_submitted")->value();
  rep->bytes = registry->GetCounter("ingest.bytes")->value();
  const int64_t parsed = registry->GetCounter("ingest.events")->value();
  if (parsed != rep->events) {
    return Status::Internal("ingest.events counter " + std::to_string(parsed) +
                            " != events driven " +
                            std::to_string(rep->events));
  }
  return Status::OK();
}

Status RunTracedRep(const Setting& s, int threads, TracedRep* rep) {
  maps::obs::MetricsRegistry registry;  // outlives the deployment
  Deployment d;
  MAPS_RETURN_NOT_OK(BuildDeployment(s, threads, &registry, /*warm=*/true,
                                     &rep->spans, &d, &rep->setup));
  return d.Visit([&](auto* engine) -> Status {
    MAPS_RETURN_NOT_OK(ReplayTraced(s, engine, &registry, rep));
    rep->self_s = rep->spans.SelfSeconds();
    const auto& spans = rep->spans.spans();
    for (const Span& sp : spans) {
      if (std::string(sp.name) == "replay") {
        rep->wall_s = (sp.end_ns - sp.start_ns) * 1e-9 - rep->self_s["check"];
      }
    }
    std::string blob;
    double save_s = 0.0;
    double restore_s = 0.0;
    MAPS_RETURN_NOT_OK(CheckpointRoundTrip(s, engine, &rep->spans, &rep->ops,
                                           &blob, &save_s, &restore_s));
    rep->save_ms.push_back(save_s * 1e3);
    rep->checkpoint_bytes += static_cast<int64_t>(blob.size());
    rep->restore_ms = restore_s * 1e3;
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Checks shared by both modes
// ---------------------------------------------------------------------------

struct Checks {
  bool ok = true;
  void Fail(const std::string& what) {
    ok = false;
    std::cerr << "replay_bench: FAILED: " << what << "\n";
  }
  void Digest(const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      Fail(std::string("output digest of the ") + what + " " + Hex(got) +
           " != " + Hex(want));
    }
  }
};

uint64_t HashFile(const std::string& path, int64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  Fnv64 h;
  std::vector<char> chunk(size_t{1} << 20);
  *bytes = 0;
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    h.Add(chunk.data(), static_cast<size_t>(in.gcount()));
    *bytes += in.gcount();
  }
  return h.value();
}

/// Pins: lines "workload seed scale log_digest output_digest"; '#' starts a
/// comment. Returns false when the triple is not pinned.
bool FindPin(const std::string& path, const Args& a, std::string* log_pin,
             std::string* out_pin) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    double scale = 0.0;
    std::string log_digest;
    std::string out_digest;
    if (!(fields >> workload >> seed >> scale >> log_digest >> out_digest)) {
      continue;
    }
    if (workload == a.workload && seed == a.seed && scale == a.scale) {
      *log_pin = log_digest;
      *out_pin = out_digest;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

void ReportLayers(const std::vector<TracedRep>& traced,
                  const std::vector<TracedRep>& serial, double untraced_wall,
                  const WorkloadSpec& spec, Report* r) {
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const TracedRep& t : traced) v.push_back(f(t));
    return Median(v);
  };
  auto self = [](const TracedRep& t, const char* name) {
    auto it = t.self_s.find(name);
    return it == t.self_s.end() ? 0.0 : it->second;
  };
  const TracedRep& first = traced.front();
  const double ingest_s = med([&](const TracedRep& t) {
    return self(t, "ingest");
  });
  const double submit_s = med([&](const TracedRep& t) {
    return self(t, "submit");
  });
  const double close_s = med([&](const TracedRep& t) {
    return self(t, "close");
  });
  const double closes = static_cast<double>(first.closes);

  r->Json("ingest.ns_per_event", med([&](const TracedRep& t) {
            return Ratio(self(t, "ingest") * 1e9, t.events);
          }), "ns");
  r->Json("ingest.busy_s", ingest_s, "s");
  r->Json("ingest.events", static_cast<double>(first.events), "count");
  r->Json("ingest.bytes", static_cast<double>(first.bytes), "B");
  r->Json("ingest.mb_per_s", med([&](const TracedRep& t) {
            return Ratio(t.bytes * 1e-6, self(t, "ingest"));
          }), "MB/s");
  r->Json("submit.ns_per_call", med([&](const TracedRep& t) {
            return Ratio(self(t, "submit") * 1e9, t.calls);
          }), "ns");
  r->Json("submit.busy_s", submit_s, "s");
  r->Json("submit.calls", static_cast<double>(first.calls), "count");
  r->Json("submit.failed", static_cast<double>(first.call_failures), "count");
  r->Json("close.busy_s", close_s, "s");
  r->Json("close.calls", closes, "count");
  r->Json("close.prebuild_s", med([](const TracedRep& t) {
            return t.prebuild_s;
          }), "s");
  r->Json("close.price_round_s", med([](const TracedRep& t) {
            return t.price_round_s;
          }), "s");
  r->Json("close.matching_s", med([](const TracedRep& t) {
            return t.matching_s;
          }), "s");
  r->Json("close.other_s", med([&](const TracedRep& t) {
            return self(t, "close") - t.prebuild_s - t.price_round_s -
                   t.matching_s;
          }), "s",
          spec.regions > 1 ? "stages summed over concurrent regions" : "");
  r->Json("close.tasks", static_cast<double>(first.tasks), "count");
  r->Json("close.accepted", static_cast<double>(first.accepted), "count");
  r->Json("close.matched", static_cast<double>(first.matched), "count");
  r->Json("close.skipped_periods", static_cast<double>(first.skipped),
          "count");
  r->Json("close.match_yield", Ratio(first.matched, first.accepted), "ratio");
  r->Json("close.accept_yield", Ratio(first.accepted, first.tasks), "ratio");
  r->Json("warmup.s_per_region", med([](const TracedRep& t) {
            return Median(t.setup.warmup_s);
          }), "s");
  r->Json("warmup.regions", static_cast<double>(first.setup.warmup_s.size()),
          "count");
  r->Json("checkpoint.saves", static_cast<double>(first.save_ms.size()),
          "count");
  r->Json("checkpoint.save_ms_p50", med([](const TracedRep& t) {
            return Median(t.save_ms);
          }), "ms");
  r->Json("checkpoint.bytes", static_cast<double>(first.checkpoint_bytes),
          "B");
  r->Json("checkpoint.restore_ms", med([](const TracedRep& t) {
            return t.restore_ms;
          }), "ms");
  const double traced_wall = med([](const TracedRep& t) { return t.wall_s; });
  // Replay time no layer span covers: the self time of the replay and
  // period spans ("check" is a child of period, so it is not in it).
  const double unattributed = med([&](const TracedRep& t) {
    return self(t, "replay") + self(t, "period");
  });
  r->Json("unattributed_s", unattributed, "s",
          "share " + Num(Ratio(unattributed, traced_wall)));
  r->Json("trace_overhead_ratio", Ratio(traced_wall, untraced_wall), "ratio",
          "traced " + Num(traced_wall) + " s / untraced " +
              Num(untraced_wall) + " s");

  if (spec.regions > 1) {
    r->Text("sharded.region_close_s",
            med([](const TracedRep& t) { return t.region_close_s; }), "s");
    r->Text("sharded.merge_s",
            med([](const TracedRep& t) { return t.merge_s; }), "s");
    r->Text("sharded.stitch_s",
            med([](const TracedRep& t) { return t.stitch_s; }), "s");
    r->Text("sharded.repatriate_s",
            med([](const TracedRep& t) { return t.repatriate_s; }), "s");
    r->Text("sharded.stitch_matches", static_cast<double>(first.stitch_matches),
            "count");
    r->Text("sharded.repatriations", static_cast<double>(first.repatriations),
            "count");
  }
  if (spec.threads > 0) {
    r->Text("pool.tasks_submitted", static_cast<double>(first.pool_tasks),
            "count");
    r->Text("pool.tasks_per_close", Ratio(first.pool_tasks, closes), "count");
    r->Text("pool.task_run_s",
            med([](const TracedRep& t) { return t.pool_task_run_s; }), "s");
    if (!serial.empty()) {
      r->Text("pool.close_speedup", Ratio(self(serial.front(), "close"),
                                          close_s),
              "ratio", "threads=0 close busy / pooled close busy");
    }
  }
}

int RunMode(const Args& a) {
  const WorkloadSpec* base = FindWorkload(a.workload);
  if (base == nullptr) {
    std::cerr << "replay_bench: unknown workload '" << a.workload
              << "' (expected one of " << WorkloadNames() << ")\n";
    return 2;
  }
  Setting s;
  s.spec = Scaled(*base, a.scale);
  s.log_path = a.log;
  s.pricing.alpha = 0.25;  // maps_cli's default ladder
  for (maps::StrategyFactory& f : maps::DefaultStrategies(s.pricing)) {
    if (f.name == "MAPS") s.factory = std::move(f);
  }
  const int cores = std::max(1u, std::thread::hardware_concurrency());
  s.threads = std::min(s.spec.threads, cores);
  auto grid = maps::GridPartition::Make(maps::Rect{0, 0, 100, 100},
                                        s.spec.grid, s.spec.grid);
  if (!grid.ok()) {
    std::cerr << "replay_bench: " << grid.status().ToString() << "\n";
    return 2;
  }
  s.grid = &grid.ValueOrDie();
  std::optional<maps::RegionPartition> partition;
  if (s.spec.regions > 1) {
    auto p = maps::RegionPartition::Make(*s.grid, s.spec.regions);
    if (!p.ok()) {
      std::cerr << "replay_bench: " << p.status().ToString() << "\n";
      return 2;
    }
    partition.emplace(std::move(p).ValueOrDie());
    s.partition = &*partition;
  }

  Checks checks;
  // Hashing the log also leaves its pages in the page cache.
  int64_t log_bytes = 0;
  const uint64_t log_digest = HashFile(a.log, &log_bytes);
  if (log_bytes == 0) checks.Fail("empty or unreadable log " + a.log);
  std::string log_pin;
  std::string out_pin;
  const bool pinned =
      !a.pins.empty() && FindPin(a.pins, a, &log_pin, &out_pin);
  if (pinned && Hex(log_digest) != log_pin) {
    checks.Fail("workload changed: log digest " + Hex(log_digest) +
                " != pinned " + log_pin +
                " (sim/synthetic or sim/replay_export output moved)");
  }
  std::cout << "workload " << a.workload << " seed " << a.seed << " scale "
            << Num(a.scale) << " trace " << a.trace << " threads "
            << s.threads << " log_bytes " << log_bytes << " log_digest "
            << Hex(log_digest) << "\n";

  Report report;
  Ops ops;
  std::vector<UntracedRep> untraced;
  std::vector<TracedRep> traced;
  std::vector<TracedRep> serial;
  auto fail_rep = [&](const char* what, const Status& st) {
    checks.Fail(std::string(what) + " replay: " + st.ToString());
  };
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  while (checks.ok && untraced.size() < kMaxReps) {
    UntracedRep rep;
    const Status st = RunUntracedRep(s, untraced.empty(), &rep);
    ops.attempted += rep.ops.attempted;
    ops.failed += rep.ops.failed;
    if (!st.ok()) {
      fail_rep("untraced", st);
      break;
    }
    untraced.push_back(std::move(rep));
    if (a.trace == 1) {
      TracedRep t;
      const Status tst = RunTracedRep(s, s.threads, &t);
      ops.attempted += t.ops.attempted;
      ops.failed += t.ops.failed;
      if (!tst.ok()) {
        fail_rep("traced", tst);
        break;
      }
      traced.push_back(std::move(t));
    }
    if (NowNs() >= deadline) break;
  }
  if (checks.ok && a.trace == 1 && s.threads > 0) {
    TracedRep t;
    const Status st = RunTracedRep(s, 0, &t);
    ops.attempted += t.ops.attempted;
    ops.failed += t.ops.failed;
    if (st.ok()) {
      serial.push_back(std::move(t));
    } else {
      fail_rep("threads=0 traced", st);
    }
  }
  std::vector<double> setups;
  for (const UntracedRep& r : untraced) setups.push_back(r.setup.setup_s);
  while (checks.ok && a.trace == 0 && setups.size() < kMinSetups) {
    Deployment d;
    SetupTiming timing;
    const Status st =
        BuildDeployment(s, s.threads, nullptr, true, nullptr, &d, &timing);
    if (!st.ok()) {
      checks.Fail("setup: " + st.ToString());
      break;
    }
    setups.push_back(timing.setup_s);
  }

  if (checks.ok) {
    const uint64_t want = untraced.front().digest;
    for (const UntracedRep& r : untraced) {
      checks.Digest("untraced run", r.digest, want);
    }
    for (const TracedRep& r : traced) {
      checks.Digest("traced run", r.digest, want);
    }
    for (const TracedRep& r : serial) {
      checks.Digest("threads=0 run", r.digest, want);
    }
    if (pinned && Hex(want) != out_pin) {
      checks.Fail("output digest " + Hex(want) + " != pinned " + out_pin);
    }
    std::cout << "output_digest " << Hex(want) << " replays "
              << untraced.size() << " traced " << traced.size()
              << " threads0 " << serial.size() << " pinned "
              << (pinned ? "yes" : "no") << "\n";
  }
  if (ops.failed != 0) {
    checks.Fail(std::to_string(ops.failed) + " of " +
                std::to_string(ops.attempted) + " operations failed");
  }
  if (checks.ok && a.trace == 0) {
    std::vector<double> rate;
    std::vector<double> close_ms;
    for (const UntracedRep& r : untraced) {
      rate.push_back(Ratio(r.events, r.wall_s));
      close_ms.insert(close_ms.end(), r.close_ms.begin(), r.close_ms.end());
    }
    const int64_t closes =
        static_cast<int64_t>(untraced.front().close_ms.size());
    const std::string samples =
        "samples " + std::to_string(close_ms.size()) + " = " +
        std::to_string(closes) + " closes x " +
        std::to_string(untraced.size()) + " replays";
    report.Json("events_per_s", Median(rate), "1/s");
    report.Json("close_p50_ms", Percentile(close_ms, 0.50), "ms", samples);
    report.Json("close_p90_ms", Percentile(close_ms, 0.90), "ms", samples);
    // Only when one replay has 1,000 closes: otherwise the tail would be
    // the same few periods repeated across replays.
    if (closes >= kP99MinCloses) {
      report.Text("close_p99_ms", Percentile(close_ms, 0.99), "ms", samples);
    }
    report.Json("setup_s", Median(setups), "s",
                "samples " + std::to_string(setups.size()));
    // The first replay's own footprint: later replays reuse freed heap.
    report.Json("peak_rss_mb", untraced.front().rss_mb, "MB",
                "after the first replay");
    report.Json("revenue", untraced.front().revenue, "units");
    report.Text("failed_op_ratio", Ratio(ops.failed, ops.attempted), "ratio",
                std::to_string(ops.failed) + " of " +
                    std::to_string(ops.attempted) + " operations");
  }
  if (checks.ok && a.trace == 1) {
    std::vector<double> walls;
    for (const UntracedRep& r : untraced) walls.push_back(r.wall_s);
    ReportLayers(traced, serial, Median(walls), s.spec, &report);
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out);
      traced.back().spans.WriteJsonl(out);
      if (!out) checks.Fail("cannot write spans to " + a.trace_out);
    }
  }
  report.Print(checks.ok, std::max<int64_t>(ops.attempted, 1), ops.failed);
  return checks.ok ? 0 : 1;
}

int GenMode(const Args& a) {
  const WorkloadSpec* base = FindWorkload(a.workload);
  if (base == nullptr || a.out.empty()) {
    std::cerr << "replay_bench gen: need --workload (" << WorkloadNames()
              << ") and --out\n";
    return 2;
  }
  std::ofstream out(a.out, std::ios::binary);
  Status st = out ? WriteWorkloadLog(Scaled(*base, a.scale), a.seed, out)
                  : Status::NotFound("cannot open " + a.out);
  out.close();
  if (st.ok() && !out) st = Status::Internal("write failed: " + a.out);
  if (!st.ok()) {
    std::cerr << "replay_bench gen: " << st.ToString() << "\n";
    return 1;
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a->workload = value;
      } else if (key == "--seed") {
        a->seed = std::stoull(value);
      } else if (key == "--seconds") {
        a->seconds = std::stod(value);
      } else if (key == "--trace") {
        a->trace = std::stoi(value);
      } else if (key == "--scale") {
        a->scale = std::stod(value);
      } else if (key == "--log") {
        a->log = value;
      } else if (key == "--out") {
        a->out = value;
      } else if (key == "--pins") {
        a->pins = value;
      } else if (key == "--trace-out") {
        a->trace_out = value;
      } else {
        std::cerr << "replay_bench: unknown flag " << key << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "replay_bench: bad value for " << key << ": " << value
                << "\n";
      return false;
    }
  }
  if ((argc - 2) % 2 != 0) return false;
  return a->scale > 0.0 && a->seconds >= 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: replay_bench gen|run --workload W --seed S "
                 "[--scale X] (gen: --out LOG | run: --log LOG --seconds N "
                 "--trace 0|1 [--pins FILE] [--trace-out FILE])\n";
    return 2;
  }
  if (args.mode == "gen") return perfbench::GenMode(args);
  if (args.mode == "run") return perfbench::RunMode(args);
  std::cerr << "replay_bench: unknown mode " << args.mode << "\n";
  return 2;
}
