#pragma once

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its spans
};

/// True for read_mostly and write_churn.
bool IsServingWorkload(const std::string& name);

/// Runs one serving workload: set-up (population + converge, repeated),
/// the timed stage, the correctness pass. With args.trace the per-layer
/// metrics are reported instead of the end-to-end ones.
void RunServing(const RunArgs& args, Report* report);

}  // namespace perfbench
