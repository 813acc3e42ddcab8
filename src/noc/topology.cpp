#include "noc/topology.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::noc {

Topology::Topology(int n_chips, int group_size, std::vector<Stage> stages)
    : num_chips_(n_chips),
      group_size_(group_size),
      reduce_stages_(std::move(stages)),
      broadcast_stages_(reduce_stages_.rbegin(), reduce_stages_.rend()) {
  for (auto& stage : broadcast_stages_) {
    for (auto& t : stage) std::swap(t.src, t.dst);
  }
}

Topology Topology::hierarchical(int n_chips, int group_size) {
  DISTMCU_CHECK(n_chips >= 1, "Topology requires at least one chip");
  DISTMCU_CHECK(group_size >= 2, "Topology group size must be >= 2");

  std::vector<Stage> stages;
  std::vector<int> level;
  level.reserve(static_cast<std::size_t>(n_chips));
  for (int i = 0; i < n_chips; ++i) level.push_back(i);

  while (level.size() > 1) {
    Stage stage;
    std::vector<int> next;
    for (std::size_t g = 0; g < level.size(); g += static_cast<std::size_t>(group_size)) {
      const int leader = level[g];
      next.push_back(leader);
      const std::size_t end =
          std::min(level.size(), g + static_cast<std::size_t>(group_size));
      for (std::size_t m = g + 1; m < end; ++m) {
        stage.push_back(Transfer{level[m], leader});
      }
    }
    if (!stage.empty()) stages.push_back(std::move(stage));
    level = std::move(next);
  }
  return Topology(n_chips, group_size, std::move(stages));
}

Topology Topology::flat(int n_chips) {
  DISTMCU_CHECK(n_chips >= 1, "Topology requires at least one chip");
  std::vector<Stage> stages;
  if (n_chips > 1) {
    Stage stage;
    for (int i = 1; i < n_chips; ++i) stage.push_back(Transfer{i, 0});
    stages.push_back(std::move(stage));
  }
  return Topology(n_chips, n_chips, std::move(stages));
}

std::size_t Topology::hops_per_reduce() const {
  std::size_t hops = 0;
  for (const auto& stage : reduce_stages_) hops += stage.size();
  return hops;
}

}  // namespace distmcu::noc
