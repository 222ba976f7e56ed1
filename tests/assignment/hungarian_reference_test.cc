// Pins MaxWeightAssignment's lazily padded solve to the (rows + cols)^2
// zero-padded reference (assignment_reference.h): the same assignment
// vector, not just the same weight, on seeded matrices up to 40x40 with
// more rows than columns, more columns than rows, and square. The value
// families are chosen to stress tie-breaks: ties on a quarter grid with
// zeros, all-equal weights and {-1, 0, 1} let the column scan order
// decide the result, so a solve that scanned padding columns before real
// ones would differ. (Which free padding column a row rests on is never
// read, so no matrix tells apart solves that differ only in that.)
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assignment/assignment_reference.h"
#include "assignment/hungarian.h"

namespace ems {
namespace {

using Matrix = std::vector<std::vector<double>>;

enum class Family { kUniform, kQuarterGrid, kMixedSigns, kAllEqual, kTernary };

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kQuarterGrid: return "quarter-grid";
    case Family::kMixedSigns: return "mixed-signs";
    case Family::kAllEqual: return "all-equal";
    case Family::kTernary: return "ternary";
  }
  return "?";
}

Matrix RandomMatrix(Family family, size_t rows, size_t cols,
                    std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> signed_unit(-1.0, 1.0);
  std::uniform_int_distribution<int> grid(0, 4);
  std::uniform_int_distribution<int> ternary(-1, 1);
  const double constant = static_cast<double>(grid(rng)) * 0.5 - 0.5;
  Matrix w(rows, std::vector<double>(cols));
  for (auto& row : w) {
    for (double& x : row) {
      switch (family) {
        case Family::kUniform: x = unit(rng); break;
        case Family::kQuarterGrid: x = 0.25 * grid(rng); break;
        case Family::kMixedSigns: x = signed_unit(rng); break;
        case Family::kAllEqual: x = constant; break;
        case Family::kTernary: x = static_cast<double>(ternary(rng)); break;
      }
    }
  }
  return w;
}

std::string Describe(const Matrix& w) {
  std::string out;
  for (const auto& row : w) {
    for (double x : row) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g ", x);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// Runs `count` matrices of one family with sizes drawn from [1, max_dim]
// (rows and columns independently, so all three shapes occur), and
// returns how many differed from the reference.
int CompareFamily(Family family, int count, size_t max_dim, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> dim(1, max_dim);
  int mismatches = 0;
  for (int k = 0; k < count; ++k) {
    const size_t rows = dim(rng);
    const size_t cols = dim(rng);
    const Matrix w = RandomMatrix(family, rows, cols, rng);
    const std::vector<int> got = MaxWeightAssignment(w);
    const std::vector<int> want = testing::PaddedMaxWeightAssignment(w);
    if (got == want) continue;
    if (++mismatches <= 3) {
      ADD_FAILURE() << FamilyName(family) << " " << rows << "x" << cols
                    << " (matrix " << k << ") differs from the padded "
                    << "reference:\n"
                    << (rows * cols <= 64 ? Describe(w) : std::string());
    }
  }
  return mismatches;
}

class HungarianReferenceTest : public ::testing::TestWithParam<Family> {};

TEST_P(HungarianReferenceTest, SmallMatricesMatchPaddedReference) {
  EXPECT_EQ(CompareFamily(GetParam(), 3400, 6, 101), 0);
}

TEST_P(HungarianReferenceTest, MatricesUpTo40MatchPaddedReference) {
  EXPECT_EQ(CompareFamily(GetParam(), 600, 40, 202), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, HungarianReferenceTest,
    ::testing::Values(Family::kUniform, Family::kQuarterGrid,
                      Family::kMixedSigns, Family::kAllEqual,
                      Family::kTernary),
    [](const ::testing::TestParamInfo<Family>& info) {
      std::string name = FamilyName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The shape selection meets in the 100-activity pair: one more column
// than rows and the transpose, on continuous similarities.
TEST(HungarianReferenceTest, NearSquare100MatchesPaddedReference) {
  std::mt19937_64 rng(303);
  for (auto [rows, cols] : {std::pair<size_t, size_t>{100, 99},
                            std::pair<size_t, size_t>{99, 100}}) {
    const Matrix w = RandomMatrix(Family::kUniform, rows, cols, rng);
    EXPECT_EQ(MaxWeightAssignment(w), testing::PaddedMaxWeightAssignment(w))
        << rows << "x" << cols;
  }
}

}  // namespace
}  // namespace ems
