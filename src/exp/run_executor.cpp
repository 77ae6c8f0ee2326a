#include "exp/run_executor.hpp"

#include <cstdio>

#include "exp/sharded_run.hpp"

namespace topfull::exp {

RunResult RunExecutor::RunOne(const RunSpec& spec,
                              const std::string& telemetry_name) {
  ShardedRunResult sharded =
      RunShardedSpec(spec, ShardedRunOptions{}, telemetry_name);
  RunResult result;
  result.label = std::move(sharded.label);
  result.app = sharded.app->ReleaseSingle();
  result.fault_log = std::move(sharded.fault_log);
  result.pool_outcomes = std::move(sharded.pool_outcomes);
  return result;
}

std::vector<RunResult> RunExecutor::Execute(const std::vector<RunSpec>& specs) const {
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Global();
  return pool.ParallelMap(specs.size(), [&specs](std::size_t i) {
    // Telemetry file names carry the spec index so sweeps with duplicate
    // labels never collide, and the naming is pool-size independent.
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "%03zu_", i);
    return RunOne(specs[i], prefix + SanitizeFileName(specs[i].label));
  });
}

}  // namespace topfull::exp
