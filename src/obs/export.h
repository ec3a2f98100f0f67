// Export surface of the observability subsystem (DESIGN.md §16,
// docs/observability.md): a versioned METRICS.json (schema "obs/v1"), a
// human-readable text dump, and the trace ring as JSONL.
//
// METRICS.json separates the two determinism classes:
//   * "deterministic" — counters, gauges, and histograms registered as
//     Determinism::kDeterministic, plus the trace append totals. Rendered
//     by RenderDeterministicSlice and embedded verbatim, so two runs over
//     the same event log produce a BYTE-IDENTICAL deterministic slice at
//     any thread count (the Obs determinism suite and the CI replay smoke
//     both compare the raw strings).
//   * "wall_clock" — latency histograms (with export-time p50/p90/p99),
//     queue-depth gauges: honest measurements that differ run to run.
// Every numeric field is an int64 rendered in decimal — no float
// formatting is involved anywhere in the deterministic slice.

#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"

namespace maps {
namespace obs {

/// \brief Schema tag written into METRICS.json.
inline constexpr char kMetricsSchema[] = "obs/v1";

/// \brief The deterministic slice alone, as the exact byte string embedded
/// under "deterministic" in RenderMetricsJson. `trace` may be null (the
/// slice then reports "trace":null).
std::string RenderDeterministicSlice(const MetricsRegistry& registry,
                                     const TraceLog* trace);

/// \brief Full obs/v1 document: schema tag, deterministic slice,
/// wall-clock section.
std::string RenderMetricsJson(const MetricsRegistry& registry,
                              const TraceLog* trace);

/// \brief One JSON object per retained trace event, oldest first.
void WriteTraceJsonl(const TraceLog& trace, std::ostream& out);

/// \brief Writes RenderMetricsJson to `path` (plain write, not atomic —
/// telemetry files are not recovery state).
Status WriteMetricsJsonFile(const std::string& path,
                            const MetricsRegistry& registry,
                            const TraceLog* trace);

/// \brief Writes the trace ring as JSONL to `path`.
Status WriteTraceJsonlFile(const std::string& path, const TraceLog& trace);

}  // namespace obs
}  // namespace maps
