// Sparse matrix support: triplet assembly and compressed-sparse-row storage
// with the products the ADMM QP solver needs: A*x, A^T*y, and the Gram
// matrix G = A^T A, built once per scaled constraint matrix so each inner
// CG step of the x-update is one SpMV with G instead of A followed by A^T
// (G has fewer nonzeros than 2*nnz(A) on every dose-map QP; diag(G) is the
// Jacobi preconditioner).
//
// Construction also builds the transpose (CSC-style) index so the A^T
// products run as per-column *gathers* instead of per-row scatters: every
// output element is owned by exactly one loop index, which lets all of the
// products fan out over the thread pool with bit-identical results at any
// thread count (the per-element accumulation order is fixed by the index,
// not by thread timing).  A product fans out only above kParallelMinFlops.
#pragma once

#include <cstdint>
#include <vector>

#include "la/dense.h"

namespace doseopt::la {

/// Triplet (coordinate-format) accumulator for building sparse matrices.
/// Duplicate entries are summed on conversion to CSR.
class TripletMatrix {
 public:
  TripletMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  /// Accumulate value v at (r, c). Bounds-checked.
  void add(std::size_t r, std::size_t c, double v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_indices() const { return row_; }
  const std::vector<std::size_t>& col_indices() const { return col_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_, cols_;
  std::vector<std::size_t> row_, col_;
  std::vector<double> values_;
};

/// CSR sparse matrix.  Existing entries are immutable; rows can be
/// *appended* in batches, which is what the incremental cutting-plane
/// assembly relies on (static rows built once, cut rows appended per
/// round).
class CsrMatrix {
 public:
  /// One fully-formed row for append_rows: (column, value) entries sorted
  /// by column with duplicates already merged.
  using Row = std::vector<std::pair<std::uint32_t, double>>;

  CsrMatrix() = default;

  /// Build from triplets; duplicates are summed, explicit zeros kept.
  explicit CsrMatrix(const TripletMatrix& t);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }

  /// y = A x.  `pool` selects the thread pool (nullptr = process pool).
  void multiply(const Vec& x, Vec& y, ThreadPool* pool = nullptr) const;

  /// y = A^T x.
  void multiply_transpose(const Vec& x, Vec& y,
                          ThreadPool* pool = nullptr) const;

  /// The Gram matrix A^T A (cols() x cols(), symmetric, columns sorted
  /// within each row).  Built serially; every entry sums its products in
  /// ascending row order of A, so diag(G)_c is bit-equal to the column sum
  /// of squares sum_r A[r][c]^2 taken in row order.  The structure is every
  /// (i, j) that share a row of A, explicit zeros included.
  CsrMatrix gram() const;

  /// Main diagonal (min(rows, cols) entries; absent entries read 0).
  Vec diagonal() const;

  /// The matrix with row r scaled by row_scale[r] and column c by
  /// col_scale[c] (entry v -> v * row_scale[r] * col_scale[c]) -- the Ruiz
  /// equilibration step of the QP solver, built directly on the CSR
  /// structure instead of a triplet round-trip.
  CsrMatrix scaled(const Vec& row_scale, const Vec& col_scale) const;

  /// Append a batch of rows (one transpose rebuild per call, so batch all
  /// of a round's rows into a single append).
  void append_rows(const std::vector<Row>& rows);

  /// Append rows [row_begin, src.rows()) of `src`, entry v ->
  /// v * row_scale_tail[r - row_begin] * col_scale[c] -- extends a Ruiz-
  /// scaled copy with freshly scaled appended rows without rescaling the
  /// existing block.  Column counts must match.
  void append_scaled_rows(const CsrMatrix& src, std::size_t row_begin,
                          const Vec& row_scale_tail, const Vec& col_scale);

  /// Dense row extraction for tests/debugging.
  Vec row_dense(std::size_t r) const;

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return val_; }

 private:
  void build_transpose();

  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> val_;

  // Transpose index (per-column entries, rows ascending -- the same order
  // the serial row-major scatter visited them, so gather results match the
  // historical serial values).
  std::vector<std::size_t> tr_ptr_;
  std::vector<std::uint32_t> tr_row_;
  std::vector<double> tr_val_;
};

}  // namespace doseopt::la
