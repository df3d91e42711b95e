// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into the program's public API (the
// program itself carries no spans yet).  Each span records its name, start,
// end, parent span and op id; spans are kept in memory and written out as
// Chrome trace-event JSON when the run ends.  A disabled tracer records
// nothing, so the untimed-overhead path is one branch per scope.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lanebench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady-clock ns since the tracer's origin
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 for a root
  int op = -1;                ///< op id shared by every span of one op
  int tid = 0;                ///< recording thread (dense index)
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction (child of the innermost open span on
  /// this thread), closes on destruction.  `op` < 0 inherits the parent's.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of the recorded span, -1 when tracing is off.
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_ = -1;
  };

  /// Snapshot of every recorded span (closed or not).
  std::vector<Span> spans() const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events, with
  /// parent and op ids in args).  Throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  int begin(const char* name, int op);
  void end(int id);

  bool enabled_;
  std::int64_t origin_ns_;
  mutable std::mutex mu_;  ///< guards spans_ and tids_
  std::vector<Span> spans_;
  std::vector<std::uint64_t> tids_;
};

/// Nanoseconds of `spans[i]`'s interval not covered by its direct children
/// (the union of the children's intervals, clipped to the parent).
std::int64_t self_ns(const std::vector<Span>& spans, int i);

/// Share of `spans[i]`'s duration not covered by child spans, in percent
/// (0 for an empty span).
double unattributed_pct(const std::vector<Span>& spans, int i);

}  // namespace lanebench
