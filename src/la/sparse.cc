#include "la/sparse.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/thread_pool.h"

namespace doseopt::la {

void TripletMatrix::add(std::size_t r, std::size_t c, double v) {
  DOSEOPT_CHECK(r < rows_ && c < cols_, "TripletMatrix::add: out of bounds");
  row_.push_back(r);
  col_.push_back(c);
  values_.push_back(v);
}

CsrMatrix::CsrMatrix(const TripletMatrix& t) : rows_(t.rows()), cols_(t.cols()) {
  DOSEOPT_CHECK(cols_ <= UINT32_MAX, "CsrMatrix: too many columns");
  const auto& tr = t.row_indices();
  const auto& tc = t.col_indices();
  const auto& tv = t.values();
  const std::size_t n = tv.size();

  // Counting sort by row.
  std::vector<std::size_t> count(rows_ + 1, 0);
  for (std::size_t k = 0; k < n; ++k) count[tr[k] + 1]++;
  std::partial_sum(count.begin(), count.end(), count.begin());
  row_ptr_ = count;

  std::vector<std::uint32_t> cols(n);
  std::vector<double> vals(n);
  {
    std::vector<std::size_t> next = row_ptr_;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t pos = next[tr[k]]++;
      cols[pos] = static_cast<std::uint32_t>(tc[k]);
      vals[pos] = tv[k];
    }
  }

  // Within each row: sort by column and merge duplicates.
  col_idx_.reserve(n);
  val_.reserve(n);
  std::vector<std::size_t> perm;
  std::vector<std::size_t> new_ptr(rows_ + 1, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t lo = row_ptr_[r], hi = row_ptr_[r + 1];
    perm.resize(hi - lo);
    std::iota(perm.begin(), perm.end(), lo);
    std::sort(perm.begin(), perm.end(), [&cols](std::size_t a, std::size_t b) {
      return cols[a] < cols[b];
    });
    for (std::size_t k : perm) {
      if (!col_idx_.empty() && val_.size() > new_ptr[r] &&
          col_idx_.back() == cols[k]) {
        val_.back() += vals[k];
      } else {
        col_idx_.push_back(cols[k]);
        val_.push_back(vals[k]);
      }
    }
    new_ptr[r + 1] = val_.size();
  }
  row_ptr_ = std::move(new_ptr);

  build_transpose();
}

void CsrMatrix::build_transpose() {
  const std::size_t n = val_.size();
  tr_ptr_.assign(cols_ + 1, 0);
  for (std::size_t k = 0; k < n; ++k) tr_ptr_[col_idx_[k] + 1]++;
  std::partial_sum(tr_ptr_.begin(), tr_ptr_.end(), tr_ptr_.begin());
  tr_row_.resize(n);
  tr_val_.resize(n);
  std::vector<std::size_t> next(tr_ptr_.begin(), tr_ptr_.end() - 1);
  // Row-major traversal => within each column, entries land in ascending
  // row order.
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t pos = next[col_idx_[k]]++;
      tr_row_[pos] = static_cast<std::uint32_t>(r);
      tr_val_[pos] = val_[k];
    }
  }
}

namespace {

/// y[r] = sum_k val[k] * x[idx[k]] over k in [ptr[r], ptr[r + 1]) for the
/// `n` compressed rows at `ptr`, each summed in ascending k.  Serially,
/// four rows are in flight at once: four independent add chains hide the
/// add latency, and every row still adds its own products in k order, so
/// each y[r] is bit-equal to a one-row-at-a-time loop.
void row_sums(const std::size_t* ptr, const std::uint32_t* idx,
              const double* val, const double* x, double* y, std::size_t n) {
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    std::size_t k0 = ptr[r], k1 = ptr[r + 1], k2 = ptr[r + 2],
                k3 = ptr[r + 3];
    const std::size_t e0 = k1, e1 = k2, e2 = k3, e3 = ptr[r + 4];
    const std::size_t common = std::min({e0 - k0, e1 - k1, e2 - k2, e3 - k3});
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t j = 0; j < common; ++j) {
      s0 += val[k0 + j] * x[idx[k0 + j]];
      s1 += val[k1 + j] * x[idx[k1 + j]];
      s2 += val[k2 + j] * x[idx[k2 + j]];
      s3 += val[k3 + j] * x[idx[k3 + j]];
    }
    for (k0 += common; k0 < e0; ++k0) s0 += val[k0] * x[idx[k0]];
    for (k1 += common; k1 < e1; ++k1) s1 += val[k1] * x[idx[k1]];
    for (k2 += common; k2 < e2; ++k2) s2 += val[k2] * x[idx[k2]];
    for (k3 += common; k3 < e3; ++k3) s3 += val[k3] * x[idx[k3]];
    y[r] = s0;
    y[r + 1] = s1;
    y[r + 2] = s2;
    y[r + 3] = s3;
  }
  for (; r < n; ++r) {
    double s = 0.0;
    for (std::size_t k = ptr[r]; k < ptr[r + 1]; ++k) s += val[k] * x[idx[k]];
    y[r] = s;
  }
}

}  // namespace

void CsrMatrix::multiply(const Vec& x, Vec& y, ThreadPool* pool) const {
  DOSEOPT_CHECK(x.size() == cols_, "multiply: x size mismatch");
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  y.assign(rows_, 0.0);
  if (use_pool(2 * val_.size(), tp)) {
    tp.parallel_for(rows_, [&](std::size_t r) {
      row_sums(&row_ptr_[r], col_idx_.data(), val_.data(), x.data(), &y[r],
               1);
    });
  } else {
    row_sums(row_ptr_.data(), col_idx_.data(), val_.data(), x.data(),
             y.data(), rows_);
  }
}

void CsrMatrix::multiply_transpose(const Vec& x, Vec& y,
                                   ThreadPool* pool) const {
  DOSEOPT_CHECK(x.size() == rows_, "multiply_transpose: x size mismatch");
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  y.assign(cols_, 0.0);
  if (use_pool(2 * val_.size(), tp)) {
    tp.parallel_for(cols_, [&](std::size_t c) {
      row_sums(&tr_ptr_[c], tr_row_.data(), tr_val_.data(), x.data(), &y[c],
               1);
    });
  } else {
    row_sums(tr_ptr_.data(), tr_row_.data(), tr_val_.data(), x.data(),
             y.data(), cols_);
  }
}

CsrMatrix CsrMatrix::gram() const {
  // Row c of G = sum over the rows r holding column c of A[r][c] * A[r][:],
  // gathered through the transpose index (rows ascending) into a dense
  // accumulator; the touched columns are then sorted.  Entry (c, c) adds
  // the squares in the same order as a per-column sum of squares.
  CsrMatrix g;
  g.rows_ = cols_;
  g.cols_ = cols_;
  g.row_ptr_.assign(cols_ + 1, 0);
  Vec acc(cols_, 0.0);
  std::vector<unsigned char> touched(cols_, 0);
  std::vector<std::uint32_t> pattern;
  for (std::size_t c = 0; c < cols_; ++c) {
    pattern.clear();
    for (std::size_t t = tr_ptr_[c]; t < tr_ptr_[c + 1]; ++t) {
      const std::size_t r = tr_row_[t];
      const double a = tr_val_[t];
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const std::uint32_t j = col_idx_[k];
        if (!touched[j]) {
          touched[j] = 1;
          pattern.push_back(j);
        }
        acc[j] += a * val_[k];
      }
    }
    std::sort(pattern.begin(), pattern.end());
    for (const std::uint32_t j : pattern) {
      g.col_idx_.push_back(j);
      g.val_.push_back(acc[j]);
      acc[j] = 0.0;
      touched[j] = 0;
    }
    g.row_ptr_[c + 1] = g.val_.size();
  }
  g.build_transpose();
  return g;
}

Vec CsrMatrix::diagonal() const {
  Vec d(std::min(rows_, cols_), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r) {
    const auto first = col_idx_.begin() + row_ptr_[r];
    const auto last = col_idx_.begin() + row_ptr_[r + 1];
    const auto it = std::lower_bound(first, last, r);
    if (it != last && *it == r) d[r] = val_[it - col_idx_.begin()];
  }
  return d;
}

void CsrMatrix::append_rows(const std::vector<Row>& rows) {
  if (row_ptr_.empty()) row_ptr_.push_back(0);  // default-constructed
  for (const Row& row : rows) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      DOSEOPT_CHECK(row[k].first < cols_, "append_rows: column out of range");
      DOSEOPT_CHECK(k == 0 || row[k - 1].first < row[k].first,
                    "append_rows: row entries must be sorted and merged");
      col_idx_.push_back(row[k].first);
      val_.push_back(row[k].second);
    }
    ++rows_;
    row_ptr_.push_back(val_.size());
  }
  build_transpose();
}

void CsrMatrix::append_scaled_rows(const CsrMatrix& src, std::size_t row_begin,
                                   const Vec& row_scale_tail,
                                   const Vec& col_scale) {
  DOSEOPT_CHECK(src.cols_ == cols_, "append_scaled_rows: column mismatch");
  DOSEOPT_CHECK(row_begin <= src.rows_ &&
                    src.rows_ - row_begin == row_scale_tail.size(),
                "append_scaled_rows: row range mismatch");
  DOSEOPT_CHECK(col_scale.size() == cols_,
                "append_scaled_rows: column scale mismatch");
  if (row_ptr_.empty()) row_ptr_.push_back(0);  // default-constructed
  for (std::size_t r = row_begin; r < src.rows_; ++r) {
    const double d = row_scale_tail[r - row_begin];
    for (std::size_t k = src.row_ptr_[r]; k < src.row_ptr_[r + 1]; ++k) {
      col_idx_.push_back(src.col_idx_[k]);
      val_.push_back(src.val_[k] * d * col_scale[src.col_idx_[k]]);
    }
    ++rows_;
    row_ptr_.push_back(val_.size());
  }
  build_transpose();
}

CsrMatrix CsrMatrix::scaled(const Vec& row_scale, const Vec& col_scale) const {
  DOSEOPT_CHECK(row_scale.size() == rows_ && col_scale.size() == cols_,
                "scaled: scale size mismatch");
  CsrMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_ = row_ptr_;
  out.col_idx_ = col_idx_;
  out.val_.resize(val_.size());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      out.val_[k] = val_[k] * row_scale[r] * col_scale[col_idx_[k]];
  out.build_transpose();
  return out;
}

Vec CsrMatrix::row_dense(std::size_t r) const {
  DOSEOPT_CHECK(r < rows_, "row_dense: out of range");
  Vec out(cols_, 0.0);
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
    out[col_idx_[k]] = val_[k];
  return out;
}

}  // namespace doseopt::la
