#include "assignment/assignment_reference.h"

#include <cstddef>
#include <limits>

namespace ems {
namespace testing {

std::vector<int> PaddedMaxWeightAssignment(
    const std::vector<std::vector<double>>& weights) {
  const size_t rows = weights.size();
  if (rows == 0) return {};
  const size_t cols = weights[0].size();
  if (cols == 0) return std::vector<int>(rows, -1);

  // Square cost matrix: cost = -weight (minimization), padded with zeros
  // to (rows + cols) so every row can route to a padding column and every
  // column can be covered by a padding row.
  const size_t n = rows + cols;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) cost[i][j] = -weights[i][j];
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<size_t> p(n + 1, 0);
  std::vector<size_t> way(n + 1, 0);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= n; ++j) {
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
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> assignment(rows, -1);
  for (size_t j = 1; j <= n; ++j) {
    size_t i = p[j];
    if (i >= 1 && i <= rows && j <= cols) {
      assignment[i - 1] = static_cast<int>(j - 1);
    }
  }
  return assignment;
}

}  // namespace testing
}  // namespace ems
