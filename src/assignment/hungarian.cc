#include "assignment/hungarian.h"

#include <algorithm>
#include <limits>

#include "util/status.h"

namespace ems {

std::vector<int> MaxWeightAssignment(
    const std::vector<std::vector<double>>& weights) {
  const size_t rows = weights.size();
  if (rows == 0) return {};
  const size_t cols = weights[0].size();
#ifndef NDEBUG
  for (const auto& row : weights) EMS_DCHECK(row.size() == cols);
#endif
  if (cols == 0) return std::vector<int>(rows, -1);

  // The minimization this solves is the (rows + cols)^2 zero-padded one:
  // cost = -weight on real pairs, 0 on every padding row and column, so a
  // row left on a padding column is unassigned and no negative-weight
  // pair is ever forced. The padded matrix is never built:
  //  * padding-row phases come last and never move a real row (every
  //    reduced cost they meet is >= 0 and free columns have v = 0, so
  //    each one ends at a free column straight from its own row); only
  //    the `rows` real-row phases run;
  //  * free padding columns all have v = 0 and cost 0, so they receive
  //    identical minv/way updates and the strict `<` below always picks
  //    the lowest of them: padding columns are matched in index order.
  // A phase therefore scans the real columns, the matched padding prefix
  // and the lowest free padding column — the same comparisons on the
  // same doubles as the padded solve, in the same column order
  // (docs/PERFORMANCE.md, "Selection").
  //
  // Jonker-Volgenant style shortest augmenting path with potentials,
  // 1-indexed internal arrays (classic formulation). Columns 1..cols are
  // real, cols+1.. padding.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t max_cols = cols + rows;  // at most one padding column a phase
  std::vector<double> u(rows + 1, 0.0), v(max_cols + 1, 0.0);
  std::vector<double> minv(max_cols + 1);
  std::vector<size_t> p(max_cols + 1, 0);    // p[j] = row matched to column j
  std::vector<size_t> way(max_cols + 1, 0);  // back-pointers along the path
  std::vector<size_t> unused;   // this phase's unused columns, in index order
  std::vector<size_t> visited;  // this phase's used columns
  unused.reserve(max_cols);
  visited.reserve(max_cols + 1);
  size_t padded = 0;  // padding columns matched so far

  for (size_t i = 1; i <= rows; ++i) {
    const size_t scan = cols + padded + 1;  // last column this phase scans
    unused.clear();
    for (size_t j = 1; j <= scan; ++j) {
      unused.push_back(j);
      minv[j] = kInf;
    }
    visited.clear();
    p[0] = i;
    size_t j0 = 0;
    // Each step ends by subtracting its delta from every unused minv. The
    // subtraction is deferred into the next step's scan, which reads each
    // minv once anyway: the same operation on the same operands.
    double pending = 0.0;
    do {
      visited.push_back(j0);
      const size_t i0 = p[j0];
      const std::vector<double>& row = weights[i0 - 1];
      const double ui = u[i0];
      double delta = kInf;
      size_t pos1 = 0;  // position of j1 in `unused`
      for (size_t k = 0; k < unused.size(); ++k) {
        const size_t j = unused[k];
        const double cost = j <= cols ? -row[j - 1] : 0.0;
        double m = minv[j] - pending;
        double cur = cost - ui - v[j];
        if (cur < m) {
          m = cur;
          way[j] = j0;
        }
        minv[j] = m;
        if (m < delta) {
          delta = m;
          pos1 = k;
        }
      }
      for (size_t j : visited) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      pending = delta;
      j0 = unused[pos1];
      unused.erase(unused.begin() + static_cast<ptrdiff_t>(pos1));
    } while (p[j0] != 0);
    if (j0 > cols) ++padded;  // the lowest free padding column was taken
    // Augment along the path.
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> assignment(rows, -1);
  for (size_t j = 1; j <= cols; ++j) {
    if (p[j] != 0) assignment[p[j] - 1] = static_cast<int>(j - 1);
  }
  return assignment;
}

double AssignmentWeight(const std::vector<std::vector<double>>& weights,
                        const std::vector<int>& assignment) {
  double total = 0.0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= 0) {
      total += weights[i][static_cast<size_t>(assignment[i])];
    }
  }
  return total;
}

}  // namespace ems
