// Tests of the benchmark's own logic: the tail-percentile rule, the serve
// trace generator, and the span self-time arithmetic.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "serve_trace.h"
#include "stats.h"
#include "trace.h"

namespace lanebench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

TEST(Stats, MedianAndNearestRankPercentile) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(10), 1.0), 1.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
}

TEST(Stats, TailIsOmittedWithFewerThanTenSamplesBeyond) {
  for (const std::size_t n : {0u, 1u, 10u, 50u, 99u}) {
    const Tail t = tail_percentile(ramp(n));
    EXPECT_FALSE(t.present) << n;
    EXPECT_EQ(t.samples, n);
  }
}

TEST(Stats, TailIsTheHighestPercentileWithTenBeyond) {
  const Tail t100 = tail_percentile(ramp(100));
  ASSERT_TRUE(t100.present);
  EXPECT_DOUBLE_EQ(t100.pct, 90.0);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10u);

  const Tail t250 = tail_percentile(ramp(250));
  ASSERT_TRUE(t250.present);
  EXPECT_DOUBLE_EQ(t250.pct, 95.0);  // p99 would leave only 2 beyond
  EXPECT_EQ(t250.beyond, 12u);

  const Tail t1000 = tail_percentile(ramp(1000));
  EXPECT_DOUBLE_EQ(t1000.pct, 99.0);
  EXPECT_EQ(t1000.beyond, 10u);

  const Tail t10000 = tail_percentile(ramp(10000));
  EXPECT_DOUBLE_EQ(t10000.pct, 99.9);
  EXPECT_EQ(t10000.beyond, 10u);
  for (const Tail& t : {t100, t250, t1000, t10000})
    EXPECT_GE(t.beyond, kTailMinBeyond);
}

bool same_job(const TraceJob& a, const TraceJob& b) {
  return a.cls == b.cls && a.session == b.session && a.mode == b.mode &&
         a.grid_um == b.grid_um && a.delta_pct == b.delta_pct &&
         a.range_pct == b.range_pct && a.dosepl == b.dosepl &&
         a.repeat_of == b.repeat_of;
}

TEST(ServeTrace, SameSeedSameTraceOtherSeedOtherTrace) {
  const ServeTrace a = make_serve_trace(7, 300);
  const ServeTrace b = make_serve_trace(7, 300);
  const ServeTrace c = make_serve_trace(8, 300);
  ASSERT_EQ(a.jobs.size(), 300u);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_TRUE(same_job(a.jobs[i], b.jobs[i])) << i;
    if (!same_job(a.jobs[i], c.jobs[i])) ++differ;
  }
  EXPECT_GT(differ, 50u);
  // A longer trace extends a shorter one: a run's prefix is seed-stable.
  const ServeTrace longer = make_serve_trace(7, 600);
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_TRUE(same_job(a.jobs[i], longer.jobs[i])) << i;
}

TEST(ServeTrace, ClassSharesArePinnedPerPrefix) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 99u}) {
    const ServeTrace t = make_serve_trace(seed, 300);
    std::map<JobClass, int> first100, all;
    for (std::size_t i = 0; i < t.jobs.size(); ++i) {
      EXPECT_EQ(t.jobs[i].cls, class_at(i));
      ++all[t.jobs[i].cls];
      if (i < 100) ++first100[t.jobs[i].cls];
    }
    // Every session opens once, within the first 100 jobs.
    EXPECT_EQ(first100[JobClass::kCold], static_cast<int>(t.sessions.size()));
    EXPECT_EQ(all[JobClass::kCold], static_cast<int>(t.sessions.size()));
    // About a third repeats, so the median lands in the solve classes.
    EXPECT_EQ(first100[JobClass::kRepeat], 29) << seed;
    EXPECT_EQ(all[JobClass::kRepeat], 96) << seed;
  }
}

TEST(ServeTrace, RepeatsCopyAnEarlierJobAndSweepsAreNew) {
  const ServeTrace t = make_serve_trace(5, 400);
  std::set<std::tuple<int, std::string, double, double, double, bool>> seen;
  std::set<int> opened;
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    const TraceJob& j = t.jobs[i];
    const auto key = std::make_tuple(j.session, j.mode, j.grid_um,
                                     j.delta_pct, j.range_pct, j.dosepl);
    switch (j.cls) {
      case JobClass::kRepeat: {
        ASSERT_GE(j.repeat_of, 0);
        EXPECT_LE(static_cast<std::size_t>(j.repeat_of) + kRepeatLag, i);
        const TraceJob& o = t.jobs[static_cast<std::size_t>(j.repeat_of)];
        EXPECT_NE(o.cls, JobClass::kRepeat);
        EXPECT_EQ(key, std::make_tuple(o.session, o.mode, o.grid_um,
                                       o.delta_pct, o.range_pct, o.dosepl));
        break;
      }
      case JobClass::kCold:
        EXPECT_TRUE(opened.insert(j.session).second) << i;
        EXPECT_TRUE(seen.insert(key).second) << i;
        break;
      case JobClass::kSweep:
        EXPECT_EQ(opened.count(j.session), 1u) << i;
        EXPECT_TRUE(seen.insert(key).second) << "sweep " << i << " repeats";
        break;
    }
  }
}

Span span(const char* name, std::int64_t a, std::int64_t b, int parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      span("op", 0, 100, -1),
      span("a", 10, 30, 0),
      span("b", 20, 50, 0),    // overlaps a: union [10, 50]
      span("c", 90, 120, 0),   // clipped to [90, 100]
      span("a.1", 12, 28, 1),  // grandchild: covered by a, not op's child
      span("other", 0, 100, -1),
  };
  EXPECT_EQ(self_ns(spans, 0), 50);
  EXPECT_DOUBLE_EQ(unattributed_pct(spans, 0), 50.0);
  EXPECT_EQ(self_ns(spans, 1), 4);
  EXPECT_EQ(self_ns(spans, 5), 100);  // no children
  EXPECT_DOUBLE_EQ(unattributed_pct(spans, 5), 100.0);
  const std::vector<Span> empty = {span("z", 5, 5, -1)};
  EXPECT_DOUBLE_EQ(unattributed_pct(empty, 0), 0.0);
}

TEST(Spans, ScopesNestAndInheritTheOpId) {
  Tracer tracer(true);
  {
    Tracer::Scope op(tracer, "op", 3);
    {
      Tracer::Scope child(tracer, "child");
      Tracer::Scope grandchild(tracer, "grandchild");
    }
    Tracer::Scope sibling(tracer, "sibling");
  }
  Tracer::Scope root(tracer, "root");
  const std::vector<Span> s = tracer.spans();
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 1);
  EXPECT_EQ(s[3].parent, 0);
  EXPECT_EQ(s[4].parent, -1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s[static_cast<std::size_t>(i)].op, 3);
  EXPECT_EQ(s[4].op, -1);
  for (int i = 1; i < 4; ++i) {
    const Span& c = s[static_cast<std::size_t>(i)];
    const Span& p = s[static_cast<std::size_t>(c.parent)];
    EXPECT_LE(p.start_ns, c.start_ns);
    EXPECT_GE(p.end_ns, c.end_ns);
  }
  EXPECT_GE(unattributed_pct(s, 0), 0.0);
  EXPECT_LE(unattributed_pct(s, 0), 100.0);
}

TEST(Spans, TwoTracersOnOneThreadKeepTheirOwnParents) {
  Tracer outer(true);
  Tracer inner(true);
  Tracer::Scope a(outer, "a", 1);
  Tracer::Scope b(inner, "b", 2);
  Tracer::Scope c(outer, "c");
  EXPECT_EQ(inner.spans().at(0).parent, -1);
  EXPECT_EQ(outer.spans().at(1).parent, 0);
  EXPECT_EQ(outer.spans().at(1).op, 1);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    Tracer::Scope op(tracer, "op", 1);
    EXPECT_EQ(op.id(), -1);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

}  // namespace
}  // namespace lanebench
