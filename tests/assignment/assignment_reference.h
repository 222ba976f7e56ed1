// The zero-padded Hungarian solve MaxWeightAssignment ran before it
// padded lazily (src/assignment/hungarian.h): it builds the full
// (rows + cols)^2 cost matrix and runs one shortest-augmenting-path phase
// per padded row. It is the lazy solve's equivalence reference: the same
// assignment vector on every matrix, ties included. Test and benchmark
// code only; nothing in src/ links it.
#pragma once

#include <vector>

namespace ems {
namespace testing {

/// Reference MaxWeightAssignment.
std::vector<int> PaddedMaxWeightAssignment(
    const std::vector<std::vector<double>>& weights);

}  // namespace testing
}  // namespace ems
