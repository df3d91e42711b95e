// Repository of characterized library variants over the dose grid.
//
// The paper's flow characterizes 21 libraries for poly-only modulation
// (dose -5%..+5% in 0.5% steps; at Ds = -2 nm/% each step is a 1 nm gate-
// length change) and 21x21 libraries for simultaneous poly+active
// modulation.  The repository owns the master list and lazily characterizes
// and caches variants on demand, and provides the dose <-> variant-index
// snapping used when applying an optimized dose map ("rounding step" of
// Section IV-A).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "liberty/characterizer.h"
#include "liberty/library.h"
#include "tech/device.h"

namespace doseopt::liberty {

/// Dose sensitivity used throughout the paper's experiments (nm per %).
inline constexpr double kDoseSensitivityNmPerPct = -2.0;

/// Dose grid: -5% .. +5% in 0.5% steps -> 21 variants per layer.
inline constexpr int kVariantsPerLayer = 21;
inline constexpr double kDoseStepPct = 0.5;
inline constexpr double kDoseMinPct = -5.0;
inline constexpr double kDoseMaxPct = 5.0;

/// Convert a dose percentage to the CD delta it prints (nm).
double dose_to_delta_cd_nm(double dose_pct);

/// Dose value of variant index i in [0, kVariantsPerLayer).
double variant_index_to_dose_pct(int index);

/// Nearest variant index for an arbitrary dose percentage (clamped to range).
int dose_to_variant_index(double dose_pct);

/// Poly-layer variant index after an additional printed delta-L (nm) on top
/// of `base_index`.  Characterized steps are 1 nm of delta-L apart (0.5%
/// dose at Ds = -2 nm/%) and positive delta-L means a *lower* index, so the
/// shift is -round(delta_l), clamped to the characterized grid.  Both the
/// scalar Monte-Carlo yield path and the batched STA engine snap sampled CD
/// variation through this one function, which is what makes their per-die
/// variant assignments -- and therefore their timing -- bitwise comparable.
inline int shifted_poly_index(int base_index, double delta_l_nm) {
  // Round half away from zero without the libm lround call; the index
  // fill runs once per (cell, die) in the Monte-Carlo loop.  Selecting the
  // +-0.5 rather than the sum keeps the fill branch-free (x - 0.5 and
  // x + -0.5 round identically).
  const int shift =
      static_cast<int>(delta_l_nm + (delta_l_nm >= 0.0 ? 0.5 : -0.5));
  return std::clamp(base_index - shift, 0, kVariantsPerLayer - 1);
}

/// Lazily characterized variant library cache.
///
/// Thread-safe: concurrent variant() calls for the same missing variant
/// characterize it exactly once (per-variant std::once_flag behind a cache
/// mutex), and returned references stay stable for the repository's
/// lifetime.  Characterization is deterministic, so the cache contents are
/// identical whichever thread wins.
class LibraryRepository {
 public:
  /// Build masters for `node` and prepare the cache (no characterization
  /// happens until a variant is requested).
  explicit LibraryRepository(const tech::TechNode& node);

  const tech::DeviceModel& device() const { return device_; }
  const std::vector<CellMaster>& masters() const { return masters_; }

  /// The nominal (0, 0) variant.
  const Library& nominal() { return variant(kVariantsPerLayer / 2,
                                            kVariantsPerLayer / 2); }

  /// Variant at poly index `il` and active index `iw` (each 0..20, 10 =
  /// nominal).  Characterizes on first use; safe to call concurrently.
  const Library& variant(int il, int iw);

  /// Characterize every missing variant among `keys` (pairs of (il, iw)),
  /// fanning the characterization runs out over `pool` (nullptr = the
  /// process pool).  Publication happens on the calling thread in key
  /// order, so the cache contents are identical for any thread count.
  void warm(const std::vector<std::pair<int, int>>& keys,
            ThreadPool* pool = nullptr);

  /// Variant for dose percentages, snapped to the characterization grid.
  const Library& variant_for_dose(double dose_poly_pct, double dose_active_pct);

  /// The variant at (il, iw) if it is already characterized, else nullptr.
  /// Never characterizes; safe for concurrent readers (e.g. the snapshot
  /// writer walking the cache).
  const Library* find_variant(int il, int iw) const;

  /// Adopt an externally built (e.g. snapshot-restored) variant library.
  /// A variant that is already characterized keeps the existing object
  /// (references must stay stable); `lib` is then discarded.
  void insert_variant(int il, int iw, std::unique_ptr<Library> lib);

  /// Number of variants characterized so far (tests/telemetry).
  std::size_t characterized_count() const;

  /// Keys of every characterized variant, in ascending (il, iw) order.
  std::vector<std::pair<int, int>> characterized_keys() const;

  /// Number of characterize() runs this repository has performed (telemetry;
  /// snapshot-restored variants do not count).
  std::uint64_t characterize_calls() const {
    return characterize_calls_.load(std::memory_order_relaxed);
  }

 private:
  /// One cache slot.  `ready` is the acquire/release-published "lib is
  /// usable" flag; `once` makes the build-and-publish step run exactly once.
  struct Entry {
    std::once_flag once;
    std::unique_ptr<Library> lib;
    std::atomic<bool> ready{false};
  };

  /// Locate (or default-create) the entry for `key`.  std::map nodes never
  /// move, so the reference stays valid without the lock held.
  Entry& entry_for(const std::pair<int, int>& key);

  std::unique_ptr<Library> characterize_variant(int il, int iw);

  tech::DeviceModel device_;
  std::vector<CellMaster> masters_;
  mutable std::mutex mu_;  ///< guards cache_ map structure
  std::map<std::pair<int, int>, Entry> cache_;
  std::atomic<std::uint64_t> characterize_calls_{0};
};

}  // namespace doseopt::liberty
