// Unit tests for the export surface (src/obs/export.h): the deterministic
// slice carries only Determinism::kDeterministic metrics and is BYTE
// identical for identically-populated registries, the full document embeds
// it verbatim under "obs/v1", and the trace JSONL lines are well-formed.

#include "obs/export.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace maps {
namespace obs {
namespace {

/// Populates `r` with a fixed mixed-class metric set; `t` with two events.
void Populate(MetricsRegistry* r, TraceLog* t) {
  r->GetCounter("det.count", Determinism::kDeterministic)->Add(11);
  r->GetCounter("wall.count", Determinism::kWallClock)->Add(5);
  r->GetGauge("det.level", Determinism::kDeterministic)->Set(3);
  r->GetGauge("wall.depth", Determinism::kWallClock)->Set(9);
  Histogram* det_h =
      r->GetHistogram("det.bytes", Determinism::kDeterministic);
  det_h->Record(100);
  det_h->Record(5000);
  r->GetHistogram("wall.lat_ns", Determinism::kWallClock)->Record(1234);
  t->Emit(TraceEvent::Kind::kPeriodClosed, 0, -1, 2, "");
  t->Emit(TraceEvent::Kind::kRegionHealth, 0, 1, 0, "normal");
}

TEST(ObsExportTest, DeterministicSliceExcludesWallClockMetrics) {
  MetricsRegistry r;
  TraceLog t;
  Populate(&r, &t);
  const std::string slice = RenderDeterministicSlice(r, &t);
  EXPECT_NE(slice.find("\"det.count\":11"), std::string::npos);
  EXPECT_NE(slice.find("\"det.level\""), std::string::npos);
  EXPECT_NE(slice.find("\"det.bytes\""), std::string::npos);
  EXPECT_NE(slice.find("\"trace\":{\"appended\":2,\"dropped\":0}"),
            std::string::npos);
  EXPECT_EQ(slice.find("wall."), std::string::npos);
  EXPECT_EQ(slice.find("p50"), std::string::npos);  // no percentiles
}

TEST(ObsExportTest, IdenticallyPopulatedRegistriesRenderByteIdentically) {
  MetricsRegistry r1, r2;
  TraceLog t1, t2;
  Populate(&r1, &t1);
  Populate(&r2, &t2);
  EXPECT_EQ(RenderDeterministicSlice(r1, &t1),
            RenderDeterministicSlice(r2, &t2));
  // Registration order must not leak into the export: same metrics created
  // in a different order render the same bytes (std::map sorts by name).
  MetricsRegistry r3;
  TraceLog t3;
  r3.GetHistogram("det.bytes", Determinism::kDeterministic);
  r3.GetGauge("det.level", Determinism::kDeterministic)->Set(3);
  r3.GetCounter("det.count", Determinism::kDeterministic)->Add(11);
  r3.GetHistogram("det.bytes", Determinism::kDeterministic)->Record(100);
  r3.GetHistogram("det.bytes", Determinism::kDeterministic)->Record(5000);
  r3.GetCounter("wall.count", Determinism::kWallClock)->Add(5);
  r3.GetGauge("wall.depth", Determinism::kWallClock)->Set(9);
  r3.GetHistogram("wall.lat_ns", Determinism::kWallClock)->Record(1234);
  t3.Emit(TraceEvent::Kind::kPeriodClosed, 0, -1, 2, "");
  t3.Emit(TraceEvent::Kind::kRegionHealth, 0, 1, 0, "normal");
  EXPECT_EQ(RenderDeterministicSlice(r1, &t1),
            RenderDeterministicSlice(r3, &t3));
}

TEST(ObsExportTest, NullTraceRendersAsNull) {
  MetricsRegistry r;
  const std::string slice = RenderDeterministicSlice(r, nullptr);
  EXPECT_NE(slice.find("\"trace\":null"), std::string::npos);
}

TEST(ObsExportTest, FullDocumentEmbedsSliceVerbatimUnderSchemaTag) {
  MetricsRegistry r;
  TraceLog t;
  Populate(&r, &t);
  const std::string doc = RenderMetricsJson(r, &t);
  EXPECT_NE(doc.find("\"schema\":\"obs/v1\""), std::string::npos);
  // The deterministic slice is embedded byte-for-byte, so downstream
  // comparisons can extract and diff the raw substring.
  EXPECT_NE(doc.find(RenderDeterministicSlice(r, &t)), std::string::npos);
  // Wall-clock histograms carry export-time percentiles.
  EXPECT_NE(doc.find("\"wall.lat_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"p50\""), std::string::npos);
}

TEST(ObsExportTest, TraceJsonlHasOneObjectPerEvent) {
  TraceLog t;
  t.Emit(TraceEvent::Kind::kFaultFired, 3, 1, 0, "close_fail");
  t.Emit(TraceEvent::Kind::kCheckpointWritten, 4, -1, 512, "");
  std::ostringstream out;
  WriteTraceJsonl(t, out);
  EXPECT_EQ(out.str(),
            "{\"seq\":0,\"kind\":\"fault_fired\",\"period\":3,\"region\":1,"
            "\"value\":0,\"detail\":\"close_fail\"}\n"
            "{\"seq\":1,\"kind\":\"checkpoint_written\",\"period\":4,"
            "\"region\":-1,\"value\":512,\"detail\":\"\"}\n");
}

TEST(ObsExportTest, QuoteEscapesControlCharacters) {
  MetricsRegistry r;
  r.GetCounter("na\"me\\with\nescapes", Determinism::kDeterministic)->Add(1);
  const std::string slice = RenderDeterministicSlice(r, nullptr);
  EXPECT_NE(slice.find("\"na\\\"me\\\\with\\nescapes\":1"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace maps
