// Maximum-weight bipartite assignment (Munkres/Hungarian [17]) — the
// paper's "maximum total similarity selection method" for turning a
// pair-wise similarity matrix into 1:1 event correspondences.
#pragma once

#include <vector>

namespace ems {

/// \brief Solves max-weight assignment on a rectangular weight matrix.
///
/// `weights[i][j]` is the benefit of assigning row i to column j (weights
/// may be any finite doubles). The result is that of the zero-padded
/// square problem: leaving an entity unassigned has benefit 0, so
/// negative-weight pairs are never forced. The padding is implicit: only
/// the r real rows run a shortest-augmenting-path phase (Jonker-Volgenant
/// formulation with potentials), each over the c real columns plus the k
/// padding columns already taken and one free one. That costs
/// O(r^2 * (c + k)) time and O(r + c) extra memory, where k is the number
/// of rows left unassigned, and returns exactly the assignment, ties
/// included, that the (r+c)^2 padded solve returns.
///
/// Returns assignment[i] = column of row i, or -1 if row i is unassigned
/// (possible when columns are scarcer or only negative weights remain).
std::vector<int> MaxWeightAssignment(
    const std::vector<std::vector<double>>& weights);

/// Total weight of an assignment returned by MaxWeightAssignment.
double AssignmentWeight(const std::vector<std::vector<double>>& weights,
                        const std::vector<int>& assignment);

}  // namespace ems
