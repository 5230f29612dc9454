// The four benchmark workloads and the metric names they report.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kit.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;  ///< Block files, manifests and span dumps.
};

struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool valid = true;      ///< False when an open-loop generator fell behind.
  std::string info;       ///< JSON object: sizes, sample counts, notes.
};

/// Metric name -> unit, in report order.
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& end_to_end_metrics();
const MetricList& per_layer_metrics();

const std::vector<std::string>& workload_names();
Outcome run_workload(const Options& opt);

}  // namespace perfbench
