#include "src/fleet/call_graph.h"

#include <algorithm>
#include <deque>

#include "src/common/check.h"

namespace rpcscope {

CallGraphModel::CallGraphModel(const MethodCatalog* methods, const CallGraphOptions& options)
    : methods_(methods), options_(options), rng_(options.seed) {
  RPCSCOPE_CHECK(methods != nullptr);
  tier_dists_.resize(4);
  tier_members_.resize(4);
  for (int t = 0; t < 4; ++t) {
    std::vector<double> weights;
    for (const MethodModel& m : methods_->methods()) {
      if (m.tier >= t) {
        tier_members_[static_cast<size_t>(t)].push_back(m.method_id);
        weights.push_back(m.popularity_weight + 1e-9);
      }
    }
    if (!weights.empty()) {
      tier_dists_[static_cast<size_t>(t)] = std::make_unique<DiscreteDist>(weights);
    }
  }
  std::vector<double> root_weights;
  for (const MethodModel& m : methods_->methods()) {
    if (m.tier <= 1) {
      root_members_.push_back(m.method_id);
      root_weights.push_back(m.popularity_weight + 1e-9);
    }
  }
  root_dist_ = std::make_unique<DiscreteDist>(root_weights);
}

int32_t CallGraphModel::SampleChildMethod(int parent_tier) {
  // Children live at the parent's tier or deeper; bias one tier down so
  // computation flows toward storage.
  int tier = std::min(parent_tier + (rng_.NextBool(0.6) ? 1 : 0), 3);
  while (tier > 0 && tier_members_[static_cast<size_t>(tier)].empty()) {
    --tier;
  }
  const auto& members = tier_members_[static_cast<size_t>(tier)];
  const auto& dist = tier_dists_[static_cast<size_t>(tier)];
  return members[static_cast<size_t>(dist->Sample(rng_))];
}

CallTree CallGraphModel::SampleTree() {
  const int32_t root =
      root_members_[static_cast<size_t>(root_dist_->Sample(rng_))];
  return SampleTree(root);
}

CallTree CallGraphModel::SampleTree(int32_t root_method) {
  CallTree tree;
  tree.nodes.push_back({root_method, -1, 0});
  std::deque<int32_t> frontier;
  frontier.push_back(0);
  while (!frontier.empty() && static_cast<int>(tree.nodes.size()) < options_.max_nodes) {
    const int32_t idx = frontier.front();
    frontier.pop_front();
    const CallTreeNode node = tree.nodes[static_cast<size_t>(idx)];
    if (node.depth >= options_.max_depth) {
      continue;
    }
    const MethodModel& m = methods_->method(node.method_id);
    // Deep nodes are increasingly likely to stop: trees end up wide, not deep.
    const double leaf_prob = std::min(
        1.0, m.leaf_prob + options_.depth_leaf_ramp *
                               std::max(0, node.depth - options_.ramp_start_depth));
    int children = 0;
    const double roll = rng_.NextDouble();
    if (node.depth <= options_.burst_max_depth && roll < m.burst_prob) {
      children = m.burst_min +
                 static_cast<int>(rng_.NextBounded(
                     static_cast<uint64_t>(m.burst_max - m.burst_min + 1)));
    } else if (roll >= leaf_prob) {
      children = 1 + static_cast<int>(rng_.NextPoisson(std::max(m.branch_mean - 1.0, 0.0)));
    }
    for (int c = 0; c < children && static_cast<int>(tree.nodes.size()) < options_.max_nodes;
         ++c) {
      const int32_t child_method = SampleChildMethod(m.tier);
      tree.nodes.push_back({child_method, idx, node.depth + 1});
      frontier.push_back(static_cast<int32_t>(tree.nodes.size()) - 1);
    }
  }
  return tree;
}

}  // namespace rpcscope
