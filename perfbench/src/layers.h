#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "common/watchdog.h"

namespace perfbench {

/// A per-layer metric the traced run reports, with its unit. Every traced
/// run reports all of them; a layer a workload's path does not exercise
/// (the WAL in process, the router on the served path) reads 0.
struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};
const std::vector<LayerMetricInfo>& LayerMetricTable();

/// Joiner, scheduler, index, columnar and memory layers from the merged
/// stats Finish() returned.
void AddEngineLayers(const oij::EngineStats& stats, double ingest_s,
                     uint32_t joiners, uint64_t tuples, LayerMetrics* out);

/// Ring occupancy and allocator gauges from live progress samples.
/// A ring counts as full once a staged batch no longer fits.
void AddProgressLayers(const std::vector<oij::WatchdogSample>& samples,
                       size_t ring_capacity, size_t batch,
                       LayerMetrics* out);

/// Adds every table metric `out` lacks, as 0.
void FillMissingLayers(LayerMetrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
