#include "core/ems_similarity.h"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/context.h"

namespace ems {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define EMS_NOINLINE __attribute__((noinline))
#else
#define EMS_NOINLINE
#endif

// The edge-similarity coefficient C of Definition 2. Single definition
// shared by EdgeCoefficient and the table builder, so both evaluate the
// exact same expression.
inline double EdgeCoeff(double c, double fa, double fb) {
  return c * (1.0 - std::fabs(fa - fb) / (fa + fb));
}

// The final blend of formula (1), deliberately kept out of line: one
// instruction sequence rules out call-site-dependent floating-point
// contraction breaking bit-identity with the test reference
// (tests/core/ems_reference.cc), which evaluates the same expression.
EMS_NOINLINE double BlendPair(double alpha, double s12, double s21,
                              double label) {
  return alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * label;
}

// dirty[v] = OR of changed[a] over v's neighbors a — the reverse-adjacency
// marking of the delta propagation, expressed as a forward CSR scan.
void DeriveDirty(const CsrAdjacency& adj, const std::vector<uint8_t>& changed,
                 std::vector<uint8_t>* dirty) {
  const size_t n = adj.offsets.size() - 1;
  for (size_t v = 0; v < n; ++v) {
    uint8_t d = 0;
    for (int32_t k = adj.offsets[v]; k < adj.offsets[v + 1]; ++k) {
      d |= changed[static_cast<size_t>(adj.neighbors[static_cast<size_t>(k)])];
    }
    (*dirty)[v] = d;
  }
}

#if defined(__SSE2__)
// Horizontal max of the two lanes.
inline double MaxLane(__m128d v) {
  return std::max(_mm_cvtsd_f64(v), _mm_cvtsd_f64(_mm_unpackhi_pd(v, v)));
}
#endif

// One row of the fused scan: returns max_j crow[j] * prow[j] and updates
// cb[j] = max(cb[j], crow[j] * prow[j]) elementwise; kFirst sets cb[j] to
// the product, which is what folding it into a zero gives. Two-wide under
// SSE2: multiply and max are exact elementwise operations, max is
// associative and commutative, and every product here is a non-negative
// +0.0-signed double — so lane split and horizontal-max order cannot
// change a bit.
template <bool kFirst>
inline double MulMaxRow(const double* crow, const double* prow, double* cb,
                        int32_t d2) {
  double best = 0.0;
  int32_t j = 0;
#if defined(__SSE2__)
  __m128d vbest = _mm_setzero_pd();
  for (; j + 2 <= d2; j += 2) {
    const __m128d p =
        _mm_mul_pd(_mm_loadu_pd(crow + j), _mm_loadu_pd(prow + j));
    vbest = _mm_max_pd(vbest, p);
    _mm_storeu_pd(cb + j, kFirst ? p : _mm_max_pd(_mm_loadu_pd(cb + j), p));
  }
  best = MaxLane(vbest);
#endif
  for (; j < d2; ++j) {
    const double p = crow[j] * prow[j];
    best = std::max(best, p);
    cb[j] = kFirst ? p : std::max(cb[j], p);
  }
  return best;
}

// Two rows of the fused scan in one pass: sets *best0 and *best1 to the
// two row maxima and folds both rows' products into cb with one load,
// max and store per column. The bits equal two MulMaxRow calls: the
// products are the same non-negative +0.0-signed doubles, and their
// column maxima do not depend on the order they are taken in.
template <bool kFirst>
inline void MulMaxRowPair(const double* crow0, const double* prow0,
                          const double* crow1, const double* prow1,
                          double* cb, int32_t d2, double* best0,
                          double* best1) {
  double b0 = 0.0;
  double b1 = 0.0;
  int32_t j = 0;
#if defined(__SSE2__)
  __m128d v0 = _mm_setzero_pd();
  __m128d v1 = _mm_setzero_pd();
  for (; j + 2 <= d2; j += 2) {
    const __m128d p0 =
        _mm_mul_pd(_mm_loadu_pd(crow0 + j), _mm_loadu_pd(prow0 + j));
    const __m128d p1 =
        _mm_mul_pd(_mm_loadu_pd(crow1 + j), _mm_loadu_pd(prow1 + j));
    v0 = _mm_max_pd(v0, p0);
    v1 = _mm_max_pd(v1, p1);
    const __m128d p = _mm_max_pd(p0, p1);
    _mm_storeu_pd(cb + j, kFirst ? p : _mm_max_pd(_mm_loadu_pd(cb + j), p));
  }
  b0 = MaxLane(v0);
  b1 = MaxLane(v1);
#endif
  for (; j < d2; ++j) {
    const double p0 = crow0[j] * prow0[j];
    const double p1 = crow1[j] * prow1[j];
    b0 = std::max(b0, p0);
    b1 = std::max(b1, p1);
    const double p = std::max(p0, p1);
    cb[j] = kFirst ? p : std::max(cb[j], p);
  }
  *best0 = b0;
  *best1 = b1;
}

struct RowRangeResult {
  double max_delta = 0.0;
  uint64_t evaluations = 0;
  uint64_t pruned = 0;
  uint64_t skipped = 0;
  // Column-changed flags of this chunk's rows (delta tracking); merged by
  // OR after the join — order-independent, so still deterministic.
  std::vector<uint8_t> col_changed;
};

}  // namespace

// Iteration-invariant per-direction state of the kernel: both graphs'
// adjacency for that direction flattened to CSR, and C(fa, fb)
// precomputed per frequency class. C depends only on the two edge
// frequencies, and g1's real neighbor-list entries carry few distinct
// ones (each is a trace count over the trace total), so `coeff` holds one
// row per distinct g1 frequency, shaped like a panel row: entry k is C
// against the k-th real g2 neighbor slot. Entry i of v1's list scans row
// class1[offsets[v1] + i] from col_base[v2], beside the panel row of its
// neighbor.
struct EmsSimilarity::DirectionTables {
  CsrAdjacency a1;  // g1 neighbors (pre-sets forward, post-sets backward)
  CsrAdjacency a2;  // g2 neighbors
  int32_t max_degree1 = 0;
  int32_t max_degree2 = 0;
  int32_t art2_entries = 0;  // neighbor-list entries of g2's artificial node
  size_t panel_stride = 0;   // real g2 neighbor-list entries (panel row width)
  std::vector<double> coeff;     // distinct g1 frequencies x panel_stride
  std::vector<int32_t> class1;   // aligned with a1.neighbors: row of coeff
  std::vector<size_t> col_base;  // per g2 node: real entries before it
};

// Changed/dirty bitmaps of one RunDirection (delta-driven recomputation):
// row_changed/col_changed describe the previous iteration, dirty1/dirty2
// are the marks for the current one, next_* collect the running
// iteration's changes.
struct EmsSimilarity::DeltaState {
  // True once panel_ holds the previous iteration's gathers for this
  // direction; rows whose row_changed bit is clear are then re-usable.
  bool panel_primed = false;
  std::vector<uint8_t> row_changed, col_changed;
  std::vector<uint8_t> dirty1, dirty2;
  std::vector<uint8_t> next_row_changed, next_col_changed;
};

EmsSimilarity::EmsSimilarity(
    const DependencyGraph& g1, const DependencyGraph& g2,
    const EmsOptions& options,
    const std::vector<std::vector<double>>* label_similarity)
    : g1_(g1), g2_(g2), options_(options) {
  EMS_DCHECK(g1.has_artificial() && g2.has_artificial());
  EMS_DCHECK(options.alpha >= 0.0 && options.alpha <= 1.0);
  EMS_DCHECK(options.c > 0.0 && options.c < 1.0);
  if (label_similarity != nullptr) {
    EMS_DCHECK(label_similarity->size() == g1.NumNodes());
    has_labels_ = true;
    label_flat_.reserve(g1.NumNodes() * g2.NumNodes());
    for (const auto& row : *label_similarity) {
      EMS_DCHECK(row.size() == g2.NumNodes());
      label_flat_.insert(label_flat_.end(), row.begin(), row.end());
    }
  }
}

EmsSimilarity::~EmsSimilarity() = default;

double EmsSimilarity::EdgeCoefficient(double fa, double fb) const {
  EMS_DCHECK(fa > 0.0 || fb > 0.0);
  return EdgeCoeff(options_.c, fa, fb);
}

double EmsSimilarity::LabelAt(NodeId v1, NodeId v2) const {
  if (!has_labels_) return 0.0;
  return label_flat_[static_cast<size_t>(v1) * g2_.NumNodes() +
                     static_cast<size_t>(v2)];
}

int EmsSimilarity::ConvergenceHorizon(Direction direction, NodeId v1,
                                      NodeId v2) const {
  EMS_DCHECK(direction != Direction::kBoth);
  const std::vector<int>& l1 = direction == Direction::kForward
                                   ? g1_.LongestDistancesFromArtificial()
                                   : g1_.LongestDistancesToArtificial();
  const std::vector<int>& l2 = direction == Direction::kForward
                                   ? g2_.LongestDistancesFromArtificial()
                                   : g2_.LongestDistancesToArtificial();
  return std::min(l1[static_cast<size_t>(v1)], l2[static_cast<size_t>(v2)]);
}

SimilarityMatrix EmsSimilarity::InitialMatrix() const {
  // S^0(v1^X, v2^X) = 1; every other pair starts at 0 (Section 3.2).
  SimilarityMatrix s(g1_.NumNodes(), g2_.NumNodes(), 0.0);
  s.set(g1_.artificial_node(), g2_.artificial_node(), 1.0);
  return s;
}

const EmsSimilarity::DirectionTables& EmsSimilarity::TablesFor(
    Direction direction) {
  EMS_DCHECK(direction != Direction::kBoth);
  std::unique_ptr<DirectionTables>& slot = direction == Direction::kForward
                                               ? forward_tables_
                                               : backward_tables_;
  if (slot != nullptr) return *slot;
  auto t = std::make_unique<DirectionTables>();
  if (direction == Direction::kForward) {
    t->a1 = g1_.ExportPredecessorCsr();
    t->a2 = g2_.ExportPredecessorCsr();
  } else {
    t->a1 = g1_.ExportSuccessorCsr();
    t->a2 = g2_.ExportSuccessorCsr();
  }
  const NodeId n1 = static_cast<NodeId>(g1_.NumNodes());
  for (NodeId v1 = 0; v1 < n1; ++v1) {
    t->max_degree1 = std::max(t->max_degree1, t->a1.Degree(v1));
  }
  const NodeId n2 = static_cast<NodeId>(g2_.NumNodes());
  for (NodeId v2 = 0; v2 < n2; ++v2) {
    t->max_degree2 = std::max(t->max_degree2, t->a2.Degree(v2));
  }
  t->art2_entries = g2_.has_artificial() ? t->a2.Degree(0) : 0;
  t->panel_stride =
      static_cast<size_t>(t->a2.RealEntries(g2_.has_artificial()));
  t->col_base.assign(static_cast<size_t>(n2), 0);
  for (NodeId v2 = 1; v2 < n2; ++v2) {
    t->col_base[static_cast<size_t>(v2)] = static_cast<size_t>(
        t->a2.offsets[static_cast<size_t>(v2)] - t->art2_entries);
  }
  // Frequency classes of g1's real entries, keyed by exact double
  // equality: every class row is built from the very doubles it stands
  // for, so the coefficients match a per-entry evaluation bit for bit.
  const std::vector<double>& f1 = t->a1.frequencies;
  const size_t first1 =
      f1.size() - static_cast<size_t>(t->a1.RealEntries(g1_.has_artificial()));
  std::vector<double> classes(f1.data() + first1, f1.data() + f1.size());
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  t->class1.assign(f1.size(), 0);
  for (size_t k = first1; k < f1.size(); ++k) {
    t->class1[k] = static_cast<int32_t>(
        std::lower_bound(classes.begin(), classes.end(), f1[k]) -
        classes.begin());
  }
  const double* f2 = t->a2.frequencies.data() + t->art2_entries;
  t->coeff.reserve(classes.size() * t->panel_stride);
  for (double fa : classes) {
    for (size_t k = 0; k < t->panel_stride; ++k) {
      t->coeff.push_back(EdgeCoeff(options_.c, fa, f2[k]));
    }
  }
  slot = std::move(t);
  return *slot;
}

size_t EmsSimilarity::coefficient_table_bytes() const {
  size_t total = 0;
  for (const auto* t : {forward_tables_.get(), backward_tables_.get()}) {
    if (t != nullptr) total += t->coeff.size() * sizeof(double);
  }
  return total;
}

double EmsSimilarity::Iterate(Direction direction, int iteration,
                              const SimilarityMatrix& prev,
                              SimilarityMatrix* next,
                              const std::vector<bool>* frozen_rows,
                              const std::vector<bool>* frozen_cols,
                              DeltaState* delta) {
  const NodeId rows = static_cast<NodeId>(g1_.NumNodes());
  const NodeId cols = static_cast<NodeId>(g2_.NumNodes());
  const DirectionTables& t = TablesFor(direction);

  const int* l1 = nullptr;
  const int* l2 = nullptr;
  if (options_.prune_converged) {
    // The graphs memoize their longest-distance vectors lazily in a
    // const accessor; first-touch them here, on the coordinating
    // thread, so concurrent chunks only read.
    l1 = (direction == Direction::kForward
              ? g1_.LongestDistancesFromArtificial()
              : g1_.LongestDistancesToArtificial())
             .data();
    l2 = (direction == Direction::kForward
              ? g2_.LongestDistancesFromArtificial()
              : g2_.LongestDistancesToArtificial())
             .data();
  }

  const uint8_t* dirty1 = delta->dirty1.data();
  const uint8_t* dirty2 = delta->dirty2.data();
  uint8_t* next_row_changed = delta->next_row_changed.data();

  const double* prev_data = prev.data().data();
  double* next_data = next->mutable_data();
  const double alpha = options_.alpha;
  const size_t stride = t.panel_stride;

  // Gather S^{n-1} into the panel: panel row r holds prev(r, n2[k]) for
  // every real-node neighbor slot k of g2, so the fused scan below reads
  // coefficients and similarities as two contiguous streams. Pure copies
  // of prev values — bit-identity is unaffected. Once primed, rows whose
  // row_changed bit is clear are bit-identical to the previous
  // iteration's prev, so their gathers are still valid.
  panel_.resize(static_cast<size_t>(rows) * stride);
  const NodeId* slots = t.a2.neighbors.data() + t.art2_entries;
  for (NodeId r = 0; r < rows; ++r) {
    if (delta->panel_primed &&
        delta->row_changed[static_cast<size_t>(r)] == 0) {
      continue;
    }
    const double* pr = prev_data + static_cast<size_t>(r) * cols;
    double* dst = panel_.data() + static_cast<size_t>(r) * stride;
    for (size_t k = 0; k < stride; ++k) dst[k] = pr[slots[k]];
  }
  delta->panel_primed = true;
  const double* panel_data = panel_.data();

  auto run_rows = [&](NodeId row_begin, NodeId row_end,
                      RowRangeResult* result) {
    // Scratch for the fused scan's per-column maxima and for v1's row
    // bases; one allocation each per chunk, reused across its pairs.
    std::vector<double> col_best(
        static_cast<size_t>(std::max<int32_t>(t.max_degree2, 1)));
    std::vector<const double*> crows(static_cast<size_t>(t.max_degree1));
    std::vector<const double*> prows(static_cast<size_t>(t.max_degree1));
    result->col_changed.assign(static_cast<size_t>(cols), 0);
    for (NodeId v1 = row_begin; v1 < row_end; ++v1) {
      if (g1_.IsArtificial(v1)) continue;
      const bool row_frozen =
          frozen_rows != nullptr && (*frozen_rows)[static_cast<size_t>(v1)];
      const bool row_dirty = dirty1[static_cast<size_t>(v1)] != 0;
      const size_t row_off = static_cast<size_t>(v1) * cols;
      const int32_t off1 = t.a1.offsets[static_cast<size_t>(v1)];
      const int32_t d1 = t.a1.Degree(v1);
      const NodeId* n1 = t.a1.neighbors.data() + off1;
      const int32_t* class1 = t.class1.data() + off1;
      // Entry i of N(v1) scans coefficient row crow[i] beside panel row
      // prow[i], both from column col_base[v2].
      const double** crow = crows.data();
      const double** prow = prows.data();
      for (int32_t i = 0; i < d1; ++i) {
        crow[i] = t.coeff.data() + static_cast<size_t>(class1[i]) * stride;
        prow[i] = panel_data + static_cast<size_t>(n1[i]) * stride;
      }
      for (NodeId v2 = 0; v2 < cols; ++v2) {
        if (g2_.IsArtificial(v2)) continue;
        const size_t idx = row_off + static_cast<size_t>(v2);
        if (row_frozen || (frozen_cols != nullptr &&
                           (*frozen_cols)[static_cast<size_t>(v2)])) {
          next_data[idx] = prev_data[idx];
          continue;
        }
        if (l1 != nullptr &&
            iteration > std::min(l1[v1], l2[v2])) {
          // Proposition 2: the value can no longer change; keep it.
          next_data[idx] = prev_data[idx];
          ++result->pruned;
          continue;
        }
        if (!(row_dirty && dirty2[static_cast<size_t>(v2)] != 0)) {
          // Neither input neighborhood changed last iteration: the
          // re-evaluation would reproduce the previous value bit for
          // bit, so copy it forward instead.
          next_data[idx] = prev_data[idx];
          ++result->skipped;
          continue;
        }
        // Fused forward/transposed pass over the deg(v1) x deg(v2)
        // neighbor pairs: one read of S^{n-1} per pair feeds both the
        // row maxima (s12) and the column maxima (s21), two rows of
        // N(v1) per pass. Sums run in neighbor-list order; maxima are
        // order-free.
        const int32_t d2 = t.a2.Degree(v2);
        double s12 = 0.0;
        double s21 = 0.0;
        if (d1 > 0 && d2 > 0) {
          const size_t cb_off = t.col_base[static_cast<size_t>(v2)];
          // The first pass stores the column maxima instead of folding
          // them into zeros: products are +0.0 or more, so the bits are
          // the same, and no store of a zero stalls the pass's loads.
          double* cb = col_best.data();
          double sum_rows = 0.0;
          double best0;
          double best1;
          int32_t i = 0;
          if (d1 >= 2) {
            MulMaxRowPair<true>(crow[0] + cb_off, prow[0] + cb_off,
                                crow[1] + cb_off, prow[1] + cb_off, cb, d2,
                                &best0, &best1);
            sum_rows += best0;
            sum_rows += best1;
            i = 2;
          } else {
            sum_rows += MulMaxRow<true>(crow[0] + cb_off, prow[0] + cb_off,
                                        cb, d2);
            i = 1;
          }
          for (; i + 2 <= d1; i += 2) {
            MulMaxRowPair<false>(crow[i] + cb_off, prow[i] + cb_off,
                                 crow[i + 1] + cb_off, prow[i + 1] + cb_off,
                                 cb, d2, &best0, &best1);
            sum_rows += best0;
            sum_rows += best1;
          }
          if (i < d1) {
            sum_rows +=
                MulMaxRow<false>(crow[i] + cb_off, prow[i] + cb_off, cb, d2);
          }
          s12 = sum_rows / static_cast<double>(d1);
          double sum_cols = 0.0;
          for (int32_t j = 0; j < d2; ++j) sum_cols += cb[j];
          s21 = sum_cols / static_cast<double>(d2);
        }
        const double value = BlendPair(alpha, s12, s21, LabelAt(v1, v2));
        ++result->evaluations;
        const double old = prev_data[idx];
        next_data[idx] = value;
        const double d = std::fabs(value - old);
        if (d > result->max_delta) result->max_delta = d;
        if (value != old) {
          next_row_changed[v1] = 1;
          result->col_changed[static_cast<size_t>(v2)] = 1;
        }
      }
    }
  };

  int threads = options_.pool != nullptr
                    ? options_.pool->num_threads()
                    : exec::ThreadPool::EffectiveThreads(options_.num_threads);
  threads = std::min<int>(threads, std::max<NodeId>(rows, 1));

  auto merge = [&](const RowRangeResult& r, double* max_delta) {
    *max_delta = std::max(*max_delta, r.max_delta);
    stats_.formula_evaluations += r.evaluations;
    stats_.pairs_pruned_converged += r.pruned;
    stats_.pairs_skipped_unchanged += r.skipped;
    for (size_t v2 = 0; v2 < r.col_changed.size(); ++v2) {
      delta->next_col_changed[v2] |= r.col_changed[v2];
    }
  };

  if (threads <= 1) {
    RowRangeResult result;
    run_rows(0, rows, &result);
    double max_delta = 0.0;
    merge(result, &max_delta);
    return max_delta;
  }

  // Each chunk writes a disjoint row range of `next` (and of the
  // row-changed bitmap) and reads only `prev`; no synchronization needed
  // beyond the join. Per-chunk results merge by sum/max/or, so the
  // outcome is independent of scheduling.
  std::vector<RowRangeResult> results(static_cast<size_t>(threads));
  exec::ParallelForChunks(
      IteratePool(threads), 0, static_cast<size_t>(rows), threads,
      [&](int chunk, size_t begin, size_t end) {
        run_rows(static_cast<NodeId>(begin), static_cast<NodeId>(end),
                 &results[static_cast<size_t>(chunk)]);
      });
  double max_delta = 0.0;
  for (const RowRangeResult& r : results) merge(r, &max_delta);
  return max_delta;
}

exec::ThreadPool* EmsSimilarity::IteratePool(int threads) {
  if (options_.pool != nullptr) return options_.pool;
  if (owned_pool_ == nullptr || owned_pool_->num_threads() < threads) {
    owned_pool_ = std::make_unique<exec::ThreadPool>(threads);
  }
  return owned_pool_.get();
}

SimilarityMatrix EmsSimilarity::RunDirection(Direction direction,
                                             int max_iterations,
                                             int* iterations_done,
                                             const RunControls* controls,
                                             const SimilarityMatrix* forward) {
  ScopedSpan span(options_.obs, direction == Direction::kForward
                                    ? "ems_forward"
                                    : "ems_backward");
  SimilarityMatrix prev = InitialMatrix();
  const SimilarityMatrix* seed_matrix = nullptr;
  if (options_.seed != nullptr) {
    seed_matrix = direction == Direction::kForward ? options_.seed->forward
                                                   : options_.seed->backward;
    if (seed_matrix != nullptr && seed_matrix->rows() == 0) {
      seed_matrix = nullptr;
    }
  }
  if (seed_matrix != nullptr) {
    // Warm start: overlay the seed's real block over S^0 (see EmsSeed in
    // the header for why any seed converges to the same fixpoint). The
    // artificial row/column keeps the S^0 boundary, and nodes beyond the
    // seed's dimensions (appended vocabulary) start cold at 0.
    const NodeId copy_rows = static_cast<NodeId>(
        std::min(g1_.NumNodes(), seed_matrix->rows()));
    const NodeId copy_cols = static_cast<NodeId>(
        std::min(g2_.NumNodes(), seed_matrix->cols()));
    for (NodeId v1 = 0; v1 < copy_rows; ++v1) {
      if (g1_.IsArtificial(v1)) continue;
      for (NodeId v2 = 0; v2 < copy_cols; ++v2) {
        if (g2_.IsArtificial(v2)) continue;
        prev.set(v1, v2, seed_matrix->at(v1, v2));
      }
    }
  }
  const std::vector<bool>* frozen_rows = nullptr;
  const std::vector<bool>* frozen_cols = nullptr;
  if (controls != nullptr &&
      (controls->frozen_rows != nullptr || controls->frozen_cols != nullptr)) {
    frozen_rows = controls->frozen_rows;
    frozen_cols = controls->frozen_cols;
    EMS_DCHECK(controls->frozen_values != nullptr);
    for (NodeId v1 = 0; v1 < static_cast<NodeId>(g1_.NumNodes()); ++v1) {
      if (g1_.IsArtificial(v1)) continue;
      bool rf = frozen_rows != nullptr &&
                (*frozen_rows)[static_cast<size_t>(v1)];
      for (NodeId v2 = 0; v2 < static_cast<NodeId>(g2_.NumNodes()); ++v2) {
        if (g2_.IsArtificial(v2)) continue;
        if (rf || (frozen_cols != nullptr &&
                   (*frozen_cols)[static_cast<size_t>(v2)])) {
          prev.set(v1, v2, controls->frozen_values->at(v1, v2));
        }
      }
    }
  }
  if (controls != nullptr && controls->aborted != nullptr) {
    *controls->aborted = false;
  }

  const size_t n1 = g1_.NumNodes();
  const size_t n2 = g2_.NumNodes();
  DeltaState delta;
  delta.row_changed.assign(n1, 0);
  delta.col_changed.assign(n2, 0);
  delta.next_row_changed.assign(n1, 0);
  delta.next_col_changed.assign(n2, 0);
  if (seed_matrix != nullptr) {
    // Prime the change bitmaps from the caller's hints so iteration 1
    // may copy pairs whose input neighborhoods are entirely clean
    // (EmsSeed documents when a clear bit is sound). Absent hints mean
    // everything changed; indices past a hint's length are new nodes.
    auto prime = [](std::vector<uint8_t>* bits,
                    const std::vector<uint8_t>* hint) {
      for (size_t i = 0; i < bits->size(); ++i) {
        (*bits)[i] = hint != nullptr && i < hint->size() ? (*hint)[i] : 1;
      }
    };
    prime(&delta.row_changed, options_.seed->changed_rows);
    prime(&delta.col_changed, options_.seed->changed_cols);
    delta.dirty1.resize(n1);
    delta.dirty2.resize(n2);
    const DirectionTables& t = TablesFor(direction);
    DeriveDirty(t.a1, delta.row_changed, &delta.dirty1);
    DeriveDirty(t.a2, delta.col_changed, &delta.dirty2);
  } else {
    // A cold start has no previous iteration: every pair is evaluated.
    delta.dirty1.assign(n1, 1);
    delta.dirty2.assign(n2, 1);
  }

  // With run_to_horizon, keep iterating at least through the largest
  // finite convergence horizon of this direction: every finite-horizon
  // pair then holds its seed-independent exact fixpoint bits on return
  // (warm == cold byte-identical on acyclic instances).
  int horizon_floor = 0;
  if (options_.run_to_horizon) {
    const std::vector<int>& h1 = direction == Direction::kForward
                                     ? g1_.LongestDistancesFromArtificial()
                                     : g1_.LongestDistancesToArtificial();
    const std::vector<int>& h2 = direction == Direction::kForward
                                     ? g2_.LongestDistancesFromArtificial()
                                     : g2_.LongestDistancesToArtificial();
    for (int d : h1) {
      if (d != kInfiniteDistance) horizon_floor = std::max(horizon_floor, d);
    }
    for (int d : h2) {
      if (d != kInfiniteDistance) horizon_floor = std::max(horizon_floor, d);
    }
  }

  SimilarityMatrix next = prev;
  int n = 0;
  while (n < max_iterations) {
    ++n;
    double delta_max =
        Iterate(direction, n, prev, &next, frozen_rows, frozen_cols, &delta);
    std::swap(prev, next);
    // Promote this iteration's changed-entry flags and derive the next
    // iteration's dirty marks: pair (v1, v2) must be re-evaluated only if
    // some input row in N(v1) changed AND some input column in N(v2)
    // changed (docs/PERFORMANCE.md explains why the conjunction is a
    // sound over-approximation).
    const DirectionTables& t = TablesFor(direction);
    delta.row_changed.swap(delta.next_row_changed);
    delta.col_changed.swap(delta.next_col_changed);
    std::fill(delta.next_row_changed.begin(), delta.next_row_changed.end(), 0);
    std::fill(delta.next_col_changed.begin(), delta.next_col_changed.end(), 0);
    DeriveDirty(t.a1, delta.row_changed, &delta.dirty1);
    DeriveDirty(t.a2, delta.col_changed, &delta.dirty2);
    if (controls != nullptr && controls->should_abort &&
        controls->should_abort(direction, n, prev, forward)) {
      if (controls->aborted != nullptr) *controls->aborted = true;
      break;
    }
    if (delta_max <= options_.epsilon && n >= horizon_floor) break;
  }
  if (iterations_done != nullptr) *iterations_done = n;
  return prev;
}

void EmsSimilarity::FlushStatsToObs(const RunControls* controls) const {
  ObsContext* obs = options_.obs;
  if (obs == nullptr) return;
  ObsIncrement(obs, "ems.runs");
  if (controls != nullptr && controls->aborted != nullptr &&
      *controls->aborted) {
    ObsIncrement(obs, "ems.aborted_runs");
  }
  ObsIncrement(obs, "ems.iterations",
               static_cast<uint64_t>(stats_.iterations));
  ObsIncrement(obs, "ems.formula_evaluations", stats_.formula_evaluations);
  ObsIncrement(obs, "ems.pairs_pruned_converged",
               stats_.pairs_pruned_converged);
  ObsIncrement(obs, "ems.pairs_skipped_unchanged",
               stats_.pairs_skipped_unchanged);
  ObsSetGauge(obs, "ems.coefficient_table_bytes",
              static_cast<double>(coefficient_table_bytes()));
  ObsObserveQuantile(obs, "ems.iterations_per_run",
                     static_cast<double>(stats_.iterations));
}

SimilarityMatrix EmsSimilarity::ComputeControlled(Direction direction,
                                                  const RunControls& controls) {
  EMS_DCHECK(direction != Direction::kBoth);
  stats_ = EmsStats{};
  int iters = 0;
  SimilarityMatrix result =
      RunDirection(direction, options_.max_iterations, &iters, &controls);
  stats_.iterations = iters;
  FlushStatsToObs(&controls);
  return result;
}

SimilarityMatrix EmsSimilarity::Compute(const RunControls* controls) {
  EMS_DCHECK(controls == nullptr || (controls->frozen_rows == nullptr &&
                                     controls->frozen_cols == nullptr));
  ScopedSpan span(options_.obs, "ems_fixpoint");
  stats_ = EmsStats{};
  forward_ = SimilarityMatrix();
  backward_ = SimilarityMatrix();
  const auto aborted = [controls] {
    return controls != nullptr && controls->aborted != nullptr &&
           *controls->aborted;
  };
  const bool both = options_.direction == Direction::kBoth;
  int fwd_iters = 0;
  int bwd_iters = 0;
  SimilarityMatrix first =
      RunDirection(both ? Direction::kForward : options_.direction,
                   options_.max_iterations, &fwd_iters, controls);
  if (!both || aborted()) {
    stats_.iterations = fwd_iters;
    FlushStatsToObs(controls);
    return first;
  }
  SimilarityMatrix backward = RunDirection(
      Direction::kBackward, options_.max_iterations, &bwd_iters, controls,
      &first);
  stats_.iterations = std::max(fwd_iters, bwd_iters);
  FlushStatsToObs(controls);
  if (aborted()) return backward;
  // Aggregate the two directions by average (Section 3.6): an
  // element-wise pass over the flat buffers, partitioned across the pool
  // when one is configured. Cells are independent, so the parallel pass
  // is bit-identical to the serial one.
  SimilarityMatrix combined(g1_.NumNodes(), g2_.NumNodes(), 0.0);
  const double* f = first.data().data();
  const double* b = backward.data().data();
  double* out = combined.mutable_data();
  const size_t cells = g1_.NumNodes() * g2_.NumNodes();
  int threads = options_.pool != nullptr
                    ? options_.pool->num_threads()
                    : exec::ThreadPool::EffectiveThreads(options_.num_threads);
  if (threads <= 1 || cells < 4096) {
    for (size_t i = 0; i < cells; ++i) out[i] = (f[i] + b[i]) / 2.0;
  } else {
    exec::ParallelForChunks(IteratePool(threads), 0, cells, threads,
                            [&](int, size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                out[i] = (f[i] + b[i]) / 2.0;
                              }
                            });
  }
  forward_ = std::move(first);
  backward_ = std::move(backward);
  return combined;
}

void EmsSimilarity::TakeDirectionMatrices(SimilarityMatrix* forward,
                                          SimilarityMatrix* backward) {
  *forward = std::exchange(forward_, SimilarityMatrix());
  *backward = std::exchange(backward_, SimilarityMatrix());
}

SimilarityMatrix EmsSimilarity::ComputePartial(Direction direction,
                                               int iterations) {
  EMS_DCHECK(direction != Direction::kBoth);
  stats_ = EmsStats{};
  int iters = 0;
  SimilarityMatrix result = RunDirection(direction, iterations, &iters);
  stats_.iterations = iters;
  FlushStatsToObs();
  return result;
}

}  // namespace ems
