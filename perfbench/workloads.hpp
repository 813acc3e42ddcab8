#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

// The three workloads: the deployments and engines each one stands up,
// and the request stream generated from the seed. The system under test
// receives only the generated requests; nothing here depends on it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "util/units.hpp"

namespace perfbench {

using namespace distmcu;

enum class Workload { decode_batch, slo_mixed, fleet_burst };

[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& s);

/// Registry names shared by every workload, so per-model metric names
/// are the same everywhere.
inline constexpr const char* kDecoder = "decoder";
inline constexpr const char* kEncoder = "encoder";

/// One serving node: its deployments (registered in order, so the
/// decoder is ModelId 0), the engine options, and its link to the
/// router (unused when the workload drives one engine directly).
struct NodeSpec {
  std::string name;
  std::vector<runtime::DeploymentSpec> deployments;
  runtime::BatchedEngine::MultiOptions options;
  fleet::LinkModel link;
};

/// One generated request. `due` is its arrival on the global simulated
/// clock; `deadline` is relative to `due` (runtime::kNoDeadline = none).
struct Request {
  int index = 0;
  std::string model;
  std::vector<int> prompt;
  int new_tokens = 0;
  Cycles due = 0;
  Cycles deadline = runtime::kNoDeadline;
  int priority = 0;
  /// System prompt the request opens with; -1 when unshared.
  int shared_group = -1;
};

struct WorkloadSpec {
  Workload workload = Workload::decode_batch;
  /// true: one global stream through fleet::Router over all nodes;
  /// false: the single node's engine is driven directly.
  bool routed = false;
  std::vector<NodeSpec> nodes;
  /// Prompt-chunk size whose GEMM shapes the kernel probes time.
  int probe_chunk = 1;
};

[[nodiscard]] WorkloadSpec make_spec(Workload w);

/// The request stream of `w` for `seed`, in due order. Equal seeds give
/// equal streams.
[[nodiscard]] std::vector<Request> make_requests(Workload w,
                                                 std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
