#include "rofl/zero_id.hpp"

#include <algorithm>
#include <cassert>

namespace rofl::intra {

ZeroIdProtocol::ZeroIdProtocol(const graph::Graph* g) : graph_(g) {
  assert(g != nullptr);
  local_.resize(g->node_count());
  beliefs_.resize(g->node_count());
}

void ZeroIdProtocol::set_local_min(graph::NodeIndex router,
                                   const std::optional<NodeId>& smallest) {
  local_[router] = smallest;
  // Reset this router's belief to its own knowledge; neighbors re-learn.
  beliefs_[router] = Belief{smallest, {router}};
}

std::size_t ZeroIdProtocol::step() {
  std::size_t changes = 0;
  std::vector<Belief> next(beliefs_.size());
  for (graph::NodeIndex r = 0; r < beliefs_.size(); ++r) {
    if (!graph_->node_up(r)) {
      next[r] = Belief{};
      continue;
    }
    // Start from local knowledge (beliefs can only shrink toward the true
    // minimum; re-deriving each round flushes state whose origin died).
    Belief best{local_[r], {r}};
    for (const graph::Edge& e : graph_->neighbors(r)) {
      if (!e.up || !graph_->node_up(e.to)) continue;
      const Belief& offer = beliefs_[e.to];
      if (!offer.id.has_value()) continue;
      // Path-vector check: reject offers that already flowed through us.
      if (std::find(offer.path.begin(), offer.path.end(), r) !=
          offer.path.end()) {
        continue;
      }
      if (!best.id.has_value() || *offer.id < *best.id) {
        best.id = offer.id;
        best.path.assign(1, r);
        best.path.insert(best.path.end(), offer.path.begin(),
                         offer.path.end());
      }
    }
    if (best.id != beliefs_[r].id) ++changes;
    next[r] = std::move(best);
  }
  beliefs_ = std::move(next);
  return changes;
}

ZeroIdProtocol::Convergence ZeroIdProtocol::run_to_convergence(
    std::size_t max_rounds) {
  Convergence conv;
  std::uint64_t per_round = 0;
  for (graph::NodeIndex r = 0; r < beliefs_.size(); ++r) {
    per_round += graph_->live_degree(r);
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    ++conv.rounds;
    conv.messages += per_round;
    if (step() == 0) break;
  }
  return conv;
}

std::optional<NodeId> ZeroIdProtocol::belief(graph::NodeIndex router) const {
  return beliefs_[router].id;
}

const std::vector<graph::NodeIndex>& ZeroIdProtocol::belief_path(
    graph::NodeIndex router) const {
  return beliefs_[router].path;
}

bool ZeroIdProtocol::verify_consistent() const {
  const auto comp = graph_->components();
  std::map<graph::NodeIndex, std::optional<NodeId>> truth;
  for (graph::NodeIndex r = 0; r < beliefs_.size(); ++r) {
    if (!graph_->node_up(r) || !local_[r].has_value()) continue;
    auto& t = truth[comp[r]];
    if (!t.has_value() || *local_[r] < *t) t = local_[r];
  }
  for (graph::NodeIndex r = 0; r < beliefs_.size(); ++r) {
    if (!graph_->node_up(r)) continue;
    // A component with no local id expects no belief.
    const auto it = truth.find(comp[r]);
    const bool agrees = it == truth.end() ? !beliefs_[r].id.has_value()
                                          : beliefs_[r].id == it->second;
    if (!agrees) return false;
  }
  return true;
}

}  // namespace rofl::intra
