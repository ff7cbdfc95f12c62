#include "core/optimizer.h"

#include <limits>
#include <sstream>

namespace pathix {

namespace {

/// Builds the configuration made of the given block boundaries, each block
/// taking its row-minimal organization.
IndexConfiguration ConfigFromBlocks(const CostMatrix& m,
                                    const std::vector<Subpath>& blocks) {
  std::vector<IndexedSubpath> parts;
  parts.reserve(blocks.size());
  for (const Subpath& sp : blocks) {
    parts.push_back(IndexedSubpath{sp, m.MinOrg(sp)});
  }
  return IndexConfiguration(std::move(parts));
}

double BlocksCost(const CostMatrix& m, const std::vector<Subpath>& blocks) {
  double cost = 0;
  for (const Subpath& sp : blocks) cost += m.MinCost(sp);
  return cost;
}

}  // namespace

std::string OptimizerTraceEvent::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kInitial:
      os << "initial  ";
      break;
    case Kind::kEvaluated:
      os << "evaluate ";
      break;
    case Kind::kImproved:
      os << "improve  ";
      break;
    case Kind::kPruned:
      os << "prune    ";
      break;
  }
  os << config.ToString() << "  cost=" << cost;
  return os.str();
}

OptimizeResult SelectExhaustive(const CostMatrix& matrix) {
  const int n = matrix.path_length();
  OptimizeResult result;
  // An empty path has exactly one (empty) configuration of cost 0; the
  // shift below would be UB for n <= 0.
  if (n <= 0) return result;
  // The 2^(n-1) mask enumeration overflows std::uint64_t beyond 64 levels
  // (and is intractable long before); hand such paths to the O(n^2) DP,
  // which returns the same optimal cost.
  if (n > 63) return SelectDP(matrix);
  result.cost = std::numeric_limits<double>::infinity();
  // Each bit of `mask` decides whether to split after level i+1.
  const std::uint64_t combos = std::uint64_t{1} << (n - 1);
  for (std::uint64_t mask = 0; mask < combos; ++mask) {
    std::vector<Subpath> blocks;
    blocks.reserve(static_cast<std::size_t>(n));
    int start = 1;
    for (int i = 1; i < n; ++i) {
      if (mask & (std::uint64_t{1} << (i - 1))) {
        blocks.push_back(Subpath{start, i});
        start = i + 1;
      }
    }
    blocks.push_back(Subpath{start, n});
    const double cost = BlocksCost(matrix, blocks);
    ++result.evaluated;
    if (cost < result.cost) {
      result.cost = cost;
      result.config = ConfigFromBlocks(matrix, blocks);
    }
  }
  return result;
}

namespace {

/// Recursive exploration of the tail [s, n]: first-block end runs from n-1
/// down to s (the paper's order). `prefix` holds the already-fixed blocks
/// covering [1, s-1] with accumulated cost `prefix_cost`.
class BranchAndBound {
 public:
  BranchAndBound(const CostMatrix& m, bool capture_trace)
      : m_(m), n_(m.path_length()), capture_trace_(capture_trace) {}

  OptimizeResult Run() {
    // Degree-1 configuration seeds PC_min (there is exactly one).
    const Subpath whole{1, n_};
    best_cost_ = m_.MinCost(whole);
    best_blocks_ = {whole};
    result_.evaluated = 1;
    Trace(OptimizerTraceEvent::Kind::kInitial, {whole}, best_cost_);

    std::vector<Subpath> prefix;
    Explore(1, 0.0, &prefix);

    result_.cost = best_cost_;
    result_.config = ConfigFromBlocks(m_, best_blocks_);
    return std::move(result_);
  }

 private:
  void Explore(int s, double prefix_cost, std::vector<Subpath>* prefix) {
    for (int e = n_ - 1; e >= s; --e) {
      const Subpath head{s, e};
      const double head_cost = m_.MinCost(head);
      prefix->push_back(head);
      if (prefix_cost + head_cost >= best_cost_) {
        // No configuration containing this prefix can beat PC_min.
        ++result_.pruned;
        Trace(OptimizerTraceEvent::Kind::kPruned, *prefix,
              prefix_cost + head_cost);
        prefix->pop_back();
        continue;
      }
      // Candidate: close the configuration with the tail as one block.
      const Subpath tail{e + 1, n_};
      prefix->push_back(tail);
      const double cand_cost = prefix_cost + head_cost + m_.MinCost(tail);
      ++result_.evaluated;
      Trace(OptimizerTraceEvent::Kind::kEvaluated, *prefix, cand_cost);
      if (cand_cost < best_cost_) {
        best_cost_ = cand_cost;
        best_blocks_ = *prefix;
        Trace(OptimizerTraceEvent::Kind::kImproved, *prefix, cand_cost);
      }
      prefix->pop_back();
      // Recurse: split the tail further (it has length >= 1; splittable
      // only when longer than one level).
      if (tail.length() > 1) {
        Explore(e + 1, prefix_cost + head_cost, prefix);
      }
      prefix->pop_back();
    }
  }

  void Trace(OptimizerTraceEvent::Kind kind,
             const std::vector<Subpath>& blocks, double cost) {
    if (!capture_trace_) return;
    OptimizerTraceEvent ev;
    ev.kind = kind;
    ev.config = ConfigFromBlocks(m_, blocks);
    ev.cost = cost;
    result_.trace.push_back(std::move(ev));
  }

  const CostMatrix& m_;
  const int n_;
  const bool capture_trace_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  std::vector<Subpath> best_blocks_;
  OptimizeResult result_;
};

}  // namespace

OptimizeResult SelectBranchAndBound(const CostMatrix& matrix,
                                    bool capture_trace) {
  return BranchAndBound(matrix, capture_trace).Run();
}

OptimizeResult SelectDP(const CostMatrix& matrix) {
  const int n = matrix.path_length();
  // best[s] = cheapest cover of levels [s, n]; split[s] = end of its first
  // block. best[n+1] = 0.
  std::vector<double> best(n + 2, 0.0);
  std::vector<int> split(n + 2, 0);
  OptimizeResult result;
  for (int s = n; s >= 1; --s) {
    best[s] = std::numeric_limits<double>::infinity();
    for (int e = s; e <= n; ++e) {
      const double cost = matrix.MinCost(Subpath{s, e}) + best[e + 1];
      ++result.evaluated;  // counts DP cell evaluations, not configurations
      if (cost < best[s]) {
        best[s] = cost;
        split[s] = e;
      }
    }
  }
  std::vector<Subpath> blocks;
  blocks.reserve(static_cast<std::size_t>(n));
  for (int s = 1; s <= n; s = split[s] + 1) {
    blocks.push_back(Subpath{s, split[s]});
  }
  result.cost = best[1];
  result.config = ConfigFromBlocks(matrix, blocks);
  return result;
}

}  // namespace pathix
