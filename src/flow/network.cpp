#include "flow/network.hpp"

#include "util/check.hpp"

namespace rwc::flow {

ResidualNetwork::ResidualNetwork(std::size_t node_count)
    : adjacency_(node_count) {}

int ResidualNetwork::add_arc(int src, int dst, double capacity, double cost) {
  RWC_EXPECTS(src >= 0 && static_cast<std::size_t>(src) < node_count());
  RWC_EXPECTS(dst >= 0 && static_cast<std::size_t>(dst) < node_count());
  RWC_EXPECTS(capacity >= 0.0);
  const int forward = static_cast<int>(targets_.size());
  targets_.push_back(dst);
  residuals_.push_back(capacity);
  initial_.push_back(capacity);
  costs_.push_back(cost);
  targets_.push_back(src);
  residuals_.push_back(0.0);
  initial_.push_back(0.0);
  costs_.push_back(-cost);
  adjacency_[static_cast<std::size_t>(src)].push_back(forward);
  adjacency_[static_cast<std::size_t>(dst)].push_back(forward + 1);
  return forward;
}

void ResidualNetwork::set_capacities(std::span<const double> capacities) {
  RWC_EXPECTS(capacities.size() * 2 == targets_.size());
  for (std::size_t pair = 0; pair < capacities.size(); ++pair) {
    const double capacity = capacities[pair];
    RWC_EXPECTS(capacity >= 0.0);
    residuals_[2 * pair] = initial_[2 * pair] = capacity;
    residuals_[2 * pair + 1] = initial_[2 * pair + 1] = 0.0;
  }
}

void ResidualNetwork::push(int arc, double amount) {
  auto& fwd = residuals_[static_cast<std::size_t>(arc)];
  auto& rev = residuals_[static_cast<std::size_t>(arc ^ 1)];
  RWC_EXPECTS(amount <= fwd + kFlowEps);
  fwd -= amount;
  if (fwd < 0.0) fwd = 0.0;
  rev += amount;
}

void ResidualNetwork::reset() { residuals_ = initial_; }

double ResidualNetwork::total_cost() const {
  double total = 0.0;
  for (std::size_t arc = 0; arc < targets_.size(); arc += 2) {
    const double f = initial_[arc] - residuals_[arc];
    if (f > kFlowEps) total += f * costs_[arc];
  }
  return total;
}

double ResidualNetwork::net_outflow(int node) const {
  double net = 0.0;
  for (int arc : arcs_from(node)) {
    if (is_forward(arc))
      net += flow(arc);
    else
      net -= flow(arc ^ 1);
  }
  return net;
}

}  // namespace rwc::flow
