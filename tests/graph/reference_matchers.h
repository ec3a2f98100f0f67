// Reference matchers the library's matching code is property-tested
// against. Both are textbook and deliberately simple; neither is used by
// the engine.
//
//   * KuhnMatching: Kuhn's augmenting-path algorithm for maximum-cardinality
//     bipartite matching, O(V * E).
//   * HungarianMaxWeight: the Hungarian algorithm (Jonker-Volgenant
//     potentials variant) for maximum-weight bipartite matching with
//     ARBITRARY edge weights over a dense matrix, O(n^2 * m). The matching
//     does not have to be perfect: missing edges carry weight -infinity and
//     a dummy "stay unmatched" option carries weight 0.

#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/matching.h"
#include "util/logging.h"

namespace maps {
namespace testing_util {

namespace detail {

inline bool KuhnTryAugment(const BipartiteGraph& g, int l,
                           std::vector<int>& visited, int stamp,
                           Matching& m) {
  for (int r : g.Neighbors(l)) {
    if (visited[r] == stamp) continue;
    visited[r] = stamp;
    if (m.match_right[r] == Matching::kUnmatched ||
        KuhnTryAugment(g, m.match_right[r], visited, stamp, m)) {
      m.match_left[l] = r;
      m.match_right[r] = l;
      return true;
    }
  }
  return false;
}

}  // namespace detail

/// \brief A maximum-cardinality matching via one augmenting-path search
/// from each left vertex.
inline Matching KuhnMatching(const BipartiteGraph& graph) {
  Matching m;
  m.match_left.assign(graph.num_left(), Matching::kUnmatched);
  m.match_right.assign(graph.num_right(), Matching::kUnmatched);
  std::vector<int> visited(graph.num_right(), -1);
  for (int l = 0; l < graph.num_left(); ++l) {
    if (detail::KuhnTryAugment(graph, l, visited, l, m)) ++m.size;
  }
  return m;
}

struct DenseWeightedMatchingResult {
  std::vector<int> match_left;  // -1 = unmatched
  double total_weight = 0.0;
};

/// \brief Exact max-weight (not necessarily perfect, not necessarily
/// maximum cardinality) bipartite matching on a dense weight matrix.
/// weight[l][r] is the gain of matching l to r; non-positive or non-finite
/// entries mean "no edge". Unmatched vertices contribute 0.
inline DenseWeightedMatchingResult HungarianMaxWeight(
    const std::vector<std::vector<double>>& weight) {
  const int n = static_cast<int>(weight.size());
  DenseWeightedMatchingResult out;
  out.match_left.assign(n, -1);
  if (n == 0) return out;
  const int nr = static_cast<int>(weight[0].size());
  for (const auto& row : weight) {
    MAPS_CHECK_EQ(static_cast<int>(row.size()), nr);
  }

  // Min-cost rectangular assignment with n dummy columns of cost 0 so each
  // left vertex may stay unmatched for free. cost = -weight, and a missing
  // or non-positive-gain edge costs more than any dummy. The big cost must
  // dwarf any legitimate weight yet stay far from double overflow when
  // mixed with potentials.
  constexpr double kBigCost = 1e12;
  const int m = nr + n;
  auto cost = [&](int i, int j) -> double {
    if (j >= nr) return 0.0;  // dummy column
    const double w = weight[i][j];
    if (!std::isfinite(w) || w <= 0.0) return kBigCost;
    return -w;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // e-maxx Hungarian with row/column potentials, 1-indexed.
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0), way(m + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<char> used(m + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      MAPS_CHECK_GE(j1, 0);
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (int j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    const int i = p[j] - 1;
    if (j - 1 < nr) {
      const double w = weight[i][j - 1];
      if (std::isfinite(w) && w > 0.0) {
        out.match_left[i] = j - 1;
        out.total_weight += w;
      }
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace maps
