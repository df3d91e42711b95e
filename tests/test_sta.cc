// Tests for the STA engine: hand-checked arrivals on a chain, required
// times/slack consistency, dose-variant monotonicity, exact top-K path
// enumeration against brute force on random DAGs, and Table VII statistics.
#include <gtest/gtest.h>

#include "common/error.h"

#include <algorithm>

#include "common/rng.h"
#include "gen/design_gen.h"
#include "place/placer.h"
#include "sta/timer.h"
#include "test_helpers.h"

namespace doseopt::sta {
namespace {

using testing_support::make_chain_design;
using testing_support::TinyDesign;

TEST(VariantAssignment, DefaultsNominal) {
  VariantAssignment va(3);
  EXPECT_EQ(va.get(0), std::make_pair(10, 10));
  va.set(1, 0, 20);
  EXPECT_EQ(va.get(1), std::make_pair(0, 20));
  EXPECT_THROW(va.set(1, 21, 10), Error);
  EXPECT_THROW(va.set(5, 10, 10), Error);
}

class ChainSta : public ::testing::Test {
 protected:
  ChainSta() : d_(make_chain_design(4)) {
    timer_ = std::make_unique<Timer>(d_.netlist.get(), &d_.parasitics,
                                     d_.repo.get());
  }
  TinyDesign d_;
  std::unique_ptr<Timer> timer_;
};

TEST_F(ChainSta, ArrivalsIncreaseAlongChain) {
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = timer_->analyze(va);
  // Chain cells are ids 1..4 (after ff0 at id 0).
  for (netlist::CellId c = 1; c <= 4; ++c)
    EXPECT_GT(r.cells[c].arrival_ns, r.cells[c - 1].arrival_ns);
}

TEST_F(ChainSta, ArrivalMatchesManualSum) {
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = timer_->analyze(va);
  // Arrival at chain cell c = arrival at its driver + wire + its own delay.
  const netlist::CellId c = 2;
  const netlist::NetId in = d_.netlist->cell(c).input_nets[0];
  const auto& lib_cell =
      d_.repo->nominal().cell(d_.netlist->cell(c).master_index);
  const double expected = r.cells[1].arrival_ns +
                          d_.parasitics.wire_delay_ns(in, lib_cell.input_cap_ff) +
                          r.cells[c].gate_delay_ns;
  EXPECT_NEAR(r.cells[c].arrival_ns, expected, 1e-12);
}

TEST_F(ChainSta, WorstSlackZeroAtMct) {
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = timer_->analyze(va);
  EXPECT_NEAR(r.worst_slack_ns, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.clock_ns, r.mct_ns);
}

TEST_F(ChainSta, SlackEqualsRequiredMinusArrival) {
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = timer_->analyze(va);
  for (const CellTiming& ct : r.cells)
    EXPECT_NEAR(ct.slack_ns, ct.required_ns - ct.arrival_ns, 1e-12);
}

TEST_F(ChainSta, ExplicitClockShiftsSlack) {
  TimingOptions opts;
  opts.clock_ns = 10.0;
  Timer slow_timer(d_.netlist.get(), &d_.parasitics, d_.repo.get(), opts);
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = slow_timer.analyze(va);
  EXPECT_NEAR(r.worst_slack_ns, 10.0 - r.mct_ns, 1e-9);
}

TEST_F(ChainSta, HigherPolyDoseLowersMct) {
  VariantAssignment nominal(d_.netlist->cell_count());
  VariantAssignment fast(d_.netlist->cell_count());
  VariantAssignment slow(d_.netlist->cell_count());
  for (std::size_t c = 0; c < d_.netlist->cell_count(); ++c) {
    fast.set(static_cast<netlist::CellId>(c), 20, 10);
    slow.set(static_cast<netlist::CellId>(c), 0, 10);
  }
  const double m_nom = timer_->analyze(nominal).mct_ns;
  EXPECT_LT(timer_->analyze(fast).mct_ns, m_nom);
  EXPECT_GT(timer_->analyze(slow).mct_ns, m_nom);
}

TEST_F(ChainSta, HoldSlackComputed) {
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = timer_->analyze(va);
  // The shortest launch-to-capture path must exceed the flop hold time, and
  // min arrivals can never exceed max arrivals.
  EXPECT_GT(r.worst_hold_slack_ns, 0.0);
  for (const CellTiming& ct : r.cells)
    EXPECT_LE(ct.min_arrival_ns, ct.arrival_ns + 1e-12);
}

TEST_F(ChainSta, MinArrivalEqualsMaxOnAPureChain) {
  // A single chain has one path, so min == max arrival at every chain cell.
  VariantAssignment va(d_.netlist->cell_count());
  const TimingResult r = timer_->analyze(va);
  for (netlist::CellId c = 1; c <= 4; ++c)
    EXPECT_NEAR(r.cells[c].min_arrival_ns, r.cells[c].arrival_ns, 1e-12);
}

TEST_F(ChainSta, SlowerGatesShrinkHoldSlackHeadroom) {
  // Hold slack grows when the data path gets slower (min path longer).
  VariantAssignment slow(d_.netlist->cell_count());
  for (std::size_t c = 0; c < d_.netlist->cell_count(); ++c)
    slow.set(static_cast<netlist::CellId>(c), 0, 10);
  VariantAssignment nominal(d_.netlist->cell_count());
  EXPECT_GT(timer_->analyze(slow).worst_hold_slack_ns,
            timer_->analyze(nominal).worst_hold_slack_ns);
}

TEST_F(ChainSta, TopPathFollowsChain) {
  VariantAssignment va(d_.netlist->cell_count());
  const auto paths = timer_->top_paths(va, 1);
  ASSERT_EQ(paths.size(), 1u);
  const TimingPath& p = paths[0];
  EXPECT_NEAR(p.delay_ns, timer_->analyze(va).mct_ns, 1e-12);
  // Launch-to-capture order: starts at the flop.
  EXPECT_TRUE(d_.netlist->cell(p.cells.front()).sequential);
  EXPECT_NEAR(p.slack_ns, 0.0, 1e-9);
}

TEST_F(ChainSta, TopPathsNonIncreasingDelay) {
  VariantAssignment va(d_.netlist->cell_count());
  const auto paths = timer_->top_paths(va, 50);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i].delay_ns, paths[i - 1].delay_ns + 1e-12);
}

// --- exact top-K verification against brute-force enumeration ---

struct BruteEntry {
  double delay;
  netlist::CellId capture_cell;
  netlist::NetId capture_net;
  std::vector<netlist::CellId> cells;  ///< launch first
};

/// Enumerate ALL launch-to-capture paths of a small design at nominal
/// variants by DFS.  Each delay follows the recurrence top_paths documents,
/// written out here: the seed arrival(driver) + wire + setup, each step
/// bound' = arrival[d] + (stage + (bound - arrival[c])), a primary-input
/// launch stage + (bound - arrival[c]).  The list is sorted by the
/// documented key: delay descending, then capture cell, capture net and
/// cell list ascending.
std::vector<BruteEntry> brute_force_paths(const netlist::Netlist& nl,
                                          const extract::Parasitics& para,
                                          liberty::LibraryRepository& repo,
                                          const TimingResult& timing) {
  std::vector<BruteEntry> out;
  struct Frame {
    netlist::CellId cell;
    double bound;
    netlist::CellId capture_cell;
    netlist::NetId capture_net;
    std::vector<netlist::CellId> chain;  ///< capture side first
  };
  auto pin_cap = [&](netlist::CellId c) {
    return repo.nominal().cell(nl.cell(c).master_index).input_cap_ff;
  };
  auto arrival = [&](netlist::CellId c) { return timing.cells[c].arrival_ns; };
  auto distinct_inputs = [&](netlist::CellId c) {
    std::vector<netlist::NetId> nets;
    for (netlist::NetId n : nl.cell(c).input_nets)
      if (std::find(nets.begin(), nets.end(), n) == nets.end())
        nets.push_back(n);
    return nets;
  };
  auto emit = [&](const Frame& f, double delay) {
    out.push_back({delay, f.capture_cell, f.capture_net,
                   std::vector<netlist::CellId>(f.chain.rbegin(),
                                                f.chain.rend())});
  };
  std::vector<Frame> stack;
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const auto c = static_cast<netlist::CellId>(ci);
    if (!nl.cell(c).sequential) continue;
    const double setup = nl.master_of(c).setup_ns;
    for (netlist::NetId n : distinct_inputs(c)) {
      const netlist::CellId drv = nl.net(n).driver;
      if (drv == netlist::kNoCell) continue;
      stack.push_back(
          {drv, arrival(drv) + para.wire_delay_ns(n, pin_cap(c)) + setup, c,
           n, {drv}});
    }
  }
  for (netlist::NetId n : nl.primary_outputs()) {
    const netlist::CellId drv = nl.net(n).driver;
    if (drv == netlist::kNoCell) continue;
    stack.push_back(
        {drv,
         arrival(drv) + para.wire_delay_ns(n, sta::kOutputLoadFf),
         netlist::kNoCell, n, {drv}});
  }
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (nl.cell(f.cell).sequential) {
      emit(f, f.bound);
      continue;
    }
    const double gd = timing.cells[f.cell].gate_delay_ns;
    const double suffix = f.bound - arrival(f.cell);
    bool pi_launch = false;
    double best_pi = 0.0;
    for (netlist::NetId n : distinct_inputs(f.cell)) {
      const netlist::CellId drv = nl.net(n).driver;
      const double stage = para.wire_delay_ns(n, pin_cap(f.cell)) + gd;
      if (drv == netlist::kNoCell) {
        best_pi = pi_launch ? std::max(best_pi, stage + suffix)
                            : stage + suffix;
        pi_launch = true;
      } else {
        Frame nf = f;
        nf.cell = drv;
        nf.bound = arrival(drv) + (stage + suffix);
        nf.chain.push_back(drv);
        stack.push_back(std::move(nf));
      }
    }
    if (pi_launch) emit(f, best_pi);
  }
  std::sort(out.begin(), out.end(),
            [](const BruteEntry& a, const BruteEntry& b) {
              if (a.delay != b.delay) return a.delay > b.delay;
              if (a.capture_cell != b.capture_cell)
                return a.capture_cell < b.capture_cell;
              if (a.capture_net != b.capture_net)
                return a.capture_net < b.capture_net;
              return a.cells < b.cells;
            });
  return out;
}

/// top_paths at `k` must equal the first k brute-force entries element for
/// element: capture point, cells, delay bits and order.
void expect_matches_brute(const Timer& timer, const VariantAssignment& va,
                          const TimingResult& timing,
                          const std::vector<BruteEntry>& brute,
                          std::size_t k) {
  const auto fast = timer.top_paths(va, timing, k);
  ASSERT_EQ(fast.size(), std::min(k, brute.size())) << "k " << k;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i].delay_ns, brute[i].delay) << "k " << k << " rank " << i;
    ASSERT_EQ(fast[i].capture_cell, brute[i].capture_cell)
        << "k " << k << " rank " << i;
    ASSERT_EQ(fast[i].capture_net, brute[i].capture_net)
        << "k " << k << " rank " << i;
    ASSERT_EQ(fast[i].cells, brute[i].cells) << "k " << k << " rank " << i;
    ASSERT_EQ(fast[i].slack_ns, timing.clock_ns - brute[i].delay);
  }
}

class TopPathsExact : public ::testing::TestWithParam<int> {};

TEST_P(TopPathsExact, MatchesBruteForce) {
  gen::DesignSpec spec = gen::aes65_spec().scaled(0.015);
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 1237;
  spec.logic_depth = 8;
  const tech::TechNode node = tech::make_tech_65nm();
  liberty::LibraryRepository repo(node);
  const gen::GeneratedDesign d =
      gen::generate_design(spec, repo.masters(), node);
  const extract::Parasitics para = extract::extract(*d.placement, node);
  Timer timer(d.netlist.get(), &para, &repo);
  VariantAssignment va(d.netlist->cell_count());
  const TimingResult timing = timer.analyze(va);

  const auto brute = brute_force_paths(*d.netlist, para, repo, timing);
  ASSERT_FALSE(brute.empty());
  for (std::size_t k : {std::size_t{1}, std::size_t{200}, brute.size() / 2,
                        brute.size(), brute.size() + 7})
    expect_matches_brute(timer, va, timing, brute, k);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopPathsExact, ::testing::Range(1, 6));

/// A ladder of identical reconvergent stages: ff0 -> (INV a_i, INV b_i ->
/// NAND2 m_i) x stages -> D of ff0, ff1 and ff2; ff1 and ff2 drive primary
/// outputs.  Every cell sits on one site, so twin nets get identical
/// parasitics and all 3 * 2^stages register paths share one delay bit for
/// bit, as do the two output paths.
TinyDesign make_ladder_design(int stages) {
  TinyDesign d;
  const tech::TechNode node = tech::make_tech_65nm();
  d.repo = std::make_unique<liberty::LibraryRepository>(node);
  d.netlist = std::make_unique<netlist::Netlist>("ladder", node.name,
                                                 &d.repo->masters());
  netlist::Netlist& nl = *d.netlist;
  auto idx = [&](const char* name) {
    for (std::size_t i = 0; i < d.repo->masters().size(); ++i)
      if (d.repo->masters()[i].name == name) return i;
    throw Error(std::string("missing master ") + name);
  };
  const netlist::NetId q0 = nl.add_net("q0");
  const netlist::CellId ff0 = nl.add_cell("ff0", idx("DFFX1"), q0);
  netlist::NetId prev = q0;
  for (int i = 0; i < stages; ++i) {
    const std::string s = std::to_string(i);
    const netlist::NetId na = nl.add_net("a" + s);
    const netlist::NetId nb = nl.add_net("b" + s);
    const netlist::NetId nm = nl.add_net("m" + s);
    nl.connect_input(nl.add_cell("ua" + s, idx("INVX1"), na), 0, prev);
    nl.connect_input(nl.add_cell("ub" + s, idx("INVX1"), nb), 0, prev);
    const netlist::CellId m = nl.add_cell("um" + s, idx("NAND2X1"), nm);
    nl.connect_input(m, 0, na);
    nl.connect_input(m, 1, nb);
    prev = nm;
  }
  nl.connect_input(ff0, 0, prev);
  for (const char* name : {"ff1", "ff2"}) {
    const netlist::NetId q = nl.add_net(std::string("q_") + name);
    nl.connect_input(nl.add_cell(name, idx("DFFX1"), q), 0, prev);
    nl.mark_primary_output(q);
  }
  nl.validate();

  d.die = place::Die{20.0, 18.0, node.row_height_um, node.site_width_um};
  d.placement = std::make_unique<place::Placement>(&nl, d.die);
  for (std::size_t c = 0; c < nl.cell_count(); ++c)
    d.placement->set_location(static_cast<netlist::CellId>(c), {0, 0});
  d.parasitics = extract::extract(*d.placement, node);
  return d;
}

TEST(TopPathsTies, LadderMatchesBruteForceAtEveryK) {
  constexpr int kStages = 6;
  TinyDesign d = make_ladder_design(kStages);
  Timer timer(d.netlist.get(), &d.parasitics, d.repo.get());
  const VariantAssignment va(d.netlist->cell_count());
  const TimingResult timing = timer.analyze(va);
  const auto brute =
      brute_force_paths(*d.netlist, d.parasitics, *d.repo, timing);
  const std::size_t register_paths = 3u << kStages;
  ASSERT_EQ(brute.size(), register_paths + 2);
  // The premise: most paths tie, so the canonical key alone orders them.
  const auto ties = static_cast<std::size_t>(
      std::count_if(brute.begin(), brute.end(), [&](const BruteEntry& e) {
        return e.delay == brute.front().delay;
      }));
  ASSERT_GE(ties, register_paths);
  for (std::size_t k = 1; k <= brute.size() + 1; ++k)
    expect_matches_brute(timer, va, timing, brute, k);
}

/// FNV-1a over a whole path list: every cell id and the bits of every
/// delay and slack, in list order.  Equal checksums mean equal lists,
/// including the order of equal-delay paths.
std::uint64_t path_list_checksum(const std::vector<TimingPath>& paths) {
  testing_support::Fnv1a h;
  for (const TimingPath& p : paths) {
    h.add(static_cast<std::uint64_t>(p.cells.size()));
    for (netlist::CellId c : p.cells) h.add(static_cast<std::uint64_t>(c));
    h.add(p.delay_ns);
    h.add(p.slack_ns);
  }
  return h.value();
}

struct PinnedPaths {
  const char* design;
  std::uint64_t checksum;
};

class TopPathsPinned : public ::testing::TestWithParam<PinnedPaths> {};

TEST_P(TopPathsPinned, TenThousandPathsAtNominal) {
  // The full K = 10000 list of each Table I design at the 12 % scale
  // (DOSEOPT_FAST), in the canonical order.  dosePl walks this list as
  // given, so the order of equal-delay paths is part of the contract, not
  // just the delays.
  const gen::DesignSpec spec =
      gen::spec_by_name(GetParam().design).scaled(0.12);
  const tech::TechNode node = tech::tech_node_by_name(spec.tech);
  liberty::LibraryRepository repo(node);
  const gen::GeneratedDesign d =
      gen::generate_design(spec, repo.masters(), node);
  const extract::Parasitics para = extract::extract(*d.placement, node);
  Timer timer(d.netlist.get(), &para, &repo);
  const VariantAssignment va(d.netlist->cell_count());
  const std::vector<TimingPath> paths =
      timer.top_paths(va, timer.analyze(va), 10000);
  ASSERT_EQ(paths.size(), 10000u);
  EXPECT_EQ(path_list_checksum(paths), GetParam().checksum)
      << std::hex << path_list_checksum(paths);
}

/// FNV-1a over the path multiset without the tie group at the last (K-th)
/// delay, whose members depend on the tie order: the rest sorted by
/// (delay, cells) and hashed as cells plus delay bits.  Paths equal in both
/// hash alike, so neither the list order nor the capture point matters.
std::uint64_t path_multiset_checksum(const std::vector<TimingPath>& paths) {
  if (paths.empty()) return testing_support::Fnv1a().value();
  const double kth = paths.back().delay_ns;
  std::vector<const TimingPath*> rest;
  for (const TimingPath& p : paths)
    if (p.delay_ns != kth) rest.push_back(&p);
  std::sort(rest.begin(), rest.end(),
            [](const TimingPath* a, const TimingPath* b) {
              if (a->delay_ns != b->delay_ns) return a->delay_ns > b->delay_ns;
              return a->cells < b->cells;
            });
  testing_support::Fnv1a h;
  for (const TimingPath* p : rest) {
    h.add(static_cast<std::uint64_t>(p->cells.size()));
    for (netlist::CellId c : p->cells) h.add(static_cast<std::uint64_t>(c));
    h.add(p->delay_ns);
  }
  return h.value();
}

struct PinnedMultiset {
  const char* design;
  std::size_t kept;  ///< paths outside the K-th delay's tie group
  std::uint64_t checksum;
};

class TopPathsMultiset : public ::testing::TestWithParam<PinnedMultiset> {};

TEST_P(TopPathsMultiset, TenThousandPathsAtNominal) {
  // Recorded on the best-first enumeration that preceded the diversion
  // enumerator: whatever the tie order, the K = 10000 paths above the K-th
  // delay and their delay bits must not change.
  const gen::DesignSpec spec =
      gen::spec_by_name(GetParam().design).scaled(0.12);
  const tech::TechNode node = tech::tech_node_by_name(spec.tech);
  liberty::LibraryRepository repo(node);
  const gen::GeneratedDesign d =
      gen::generate_design(spec, repo.masters(), node);
  const extract::Parasitics para = extract::extract(*d.placement, node);
  Timer timer(d.netlist.get(), &para, &repo);
  const VariantAssignment va(d.netlist->cell_count());
  const std::vector<TimingPath> paths =
      timer.top_paths(va, timer.analyze(va), 10000);
  ASSERT_EQ(paths.size(), 10000u);
  std::size_t kept = 0;
  for (const TimingPath& p : paths) kept += p.delay_ns != paths.back().delay_ns;
  EXPECT_EQ(kept, GetParam().kept);
  EXPECT_EQ(path_multiset_checksum(paths), GetParam().checksum)
      << std::hex << path_multiset_checksum(paths);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, TopPathsMultiset,
    ::testing::Values(PinnedMultiset{"aes65", 9999, 0xC311FB563B07623BULL},
                      PinnedMultiset{"jpeg65", 9999, 0x581F4DD308651B96ULL},
                      PinnedMultiset{"aes90", 9999, 0x8DF20F1BE7D48F39ULL},
                      PinnedMultiset{"jpeg90", 9999, 0x07B7A2D2F599C9B1ULL}),
    [](const ::testing::TestParamInfo<PinnedMultiset>& info) {
      return std::string(info.param.design);
    });

INSTANTIATE_TEST_SUITE_P(
    Designs, TopPathsPinned,
    ::testing::Values(PinnedPaths{"aes65", 0x2EB10BA9C0AC0CCEULL},
                      PinnedPaths{"jpeg65", 0x46EE9B0579DB5FF3ULL},
                      PinnedPaths{"aes90", 0xE828C4DF03FED851ULL},
                      PinnedPaths{"jpeg90", 0xEBC1DD416E9EBFA4ULL}),
    [](const ::testing::TestParamInfo<PinnedPaths>& info) {
      return std::string(info.param.design);
    });

// --- randomized incremental-STA equivalence against full analyze() ---

void expect_timing_identical(const TimingResult& incr, const TimingResult& full,
                             int round) {
  ASSERT_EQ(incr.cells.size(), full.cells.size());
  EXPECT_NEAR(incr.mct_ns, full.mct_ns, 1e-12) << "round " << round;
  EXPECT_NEAR(incr.clock_ns, full.clock_ns, 1e-12) << "round " << round;
  EXPECT_NEAR(incr.worst_slack_ns, full.worst_slack_ns, 1e-12)
      << "round " << round;
  EXPECT_NEAR(incr.worst_hold_slack_ns, full.worst_hold_slack_ns, 1e-12)
      << "round " << round;
  for (std::size_t c = 0; c < full.cells.size(); ++c) {
    const CellTiming& a = incr.cells[c];
    const CellTiming& b = full.cells[c];
    ASSERT_NEAR(a.arrival_ns, b.arrival_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.min_arrival_ns, b.min_arrival_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.required_ns, b.required_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.slack_ns, b.slack_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.gate_delay_ns, b.gate_delay_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.input_slew_ns, b.input_slew_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.output_slew_ns, b.output_slew_ns, 1e-12)
        << "cell " << c << " round " << round;
    ASSERT_NEAR(a.load_ff, b.load_ff, 1e-12)
        << "cell " << c << " round " << round;
  }
}

/// Nets whose extracted parasitics differ between two snapshots.
std::vector<netlist::NetId> diff_parasitics(const extract::Parasitics& before,
                                            const extract::Parasitics& after) {
  std::vector<netlist::NetId> changed;
  for (std::size_t i = 0; i < after.net_count(); ++i) {
    const auto n = static_cast<netlist::NetId>(i);
    const extract::NetParasitics& x = before.net(n);
    const extract::NetParasitics& y = after.net(n);
    if (x.length_um != y.length_um || x.wire_cap_ff != y.wire_cap_ff ||
        x.wire_res_kohm != y.wire_res_kohm)
      changed.push_back(n);
  }
  return changed;
}

class IncrementalSta : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSta, RandomVariantChangesMatchFullAnalyze) {
  gen::DesignSpec spec = gen::aes65_spec().scaled(0.025);
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 7919;
  const tech::TechNode node = tech::make_tech_65nm();
  liberty::LibraryRepository repo(node);
  const gen::GeneratedDesign d =
      gen::generate_design(spec, repo.masters(), node);
  const extract::Parasitics para = extract::extract(*d.placement, node);
  Timer timer(d.netlist.get(), &para, &repo);

  const std::size_t cells = d.netlist->cell_count();
  VariantAssignment va(cells);
  Rng rng(42 + static_cast<std::uint64_t>(GetParam()));
  TimingState state;

  // First update on an empty state = full init.
  expect_timing_identical(timer.update(state, va), timer.analyze(va), -1);

  for (int round = 0; round < 12; ++round) {
    const std::size_t n_changes = 1 + rng.uniform_index(5);
    for (std::size_t j = 0; j < n_changes; ++j) {
      const auto c = static_cast<netlist::CellId>(rng.uniform_index(cells));
      va.set(c, static_cast<int>(rng.uniform_index(liberty::kVariantsPerLayer)),
             static_cast<int>(rng.uniform_index(liberty::kVariantsPerLayer)));
    }
    expect_timing_identical(timer.update(state, va), timer.analyze(va), round);
  }

  // A no-op update must leave everything unchanged.
  expect_timing_identical(timer.update(state, va), timer.analyze(va), 99);
}

TEST_P(IncrementalSta, PlacementSwapsWithChangedNetsMatchFullAnalyze) {
  gen::DesignSpec spec = gen::aes65_spec().scaled(0.025);
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 104729;
  const tech::TechNode node = tech::make_tech_65nm();
  liberty::LibraryRepository repo(node);
  gen::GeneratedDesign d = gen::generate_design(spec, repo.masters(), node);
  extract::Parasitics para = extract::extract(*d.placement, node);
  Timer timer(d.netlist.get(), &para, &repo);

  const std::size_t cells = d.netlist->cell_count();
  VariantAssignment va(cells);
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  TimingState state;
  timer.update(state, va);

  for (int round = 0; round < 8; ++round) {
    // Mix a placement swap (parasitics change) with occasional dose moves.
    const auto a = static_cast<netlist::CellId>(rng.uniform_index(cells));
    const auto b = static_cast<netlist::CellId>(rng.uniform_index(cells));
    d.placement->swap_cells(a, b);
    const extract::Parasitics before = para;
    para = extract::extract(*d.placement, node);
    const std::vector<netlist::NetId> changed = diff_parasitics(before, para);
    if (round % 2 == 0) {
      const auto c = static_cast<netlist::CellId>(rng.uniform_index(cells));
      va.set(c, static_cast<int>(rng.uniform_index(liberty::kVariantsPerLayer)),
             10);
    }
    expect_timing_identical(timer.update(state, va, changed),
                            timer.analyze(va), round);
  }

  // invalidate() forces a clean re-init that must agree as well.
  state.invalidate();
  expect_timing_identical(timer.update(state, va), timer.analyze(va), 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSta, ::testing::Range(1, 4));

void expect_timing_bitwise_equal(const TimingResult& a,
                                 const TimingResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.mct_ns, b.mct_ns);
  EXPECT_EQ(a.clock_ns, b.clock_ns);
  EXPECT_EQ(a.worst_slack_ns, b.worst_slack_ns);
  EXPECT_EQ(a.worst_hold_slack_ns, b.worst_hold_slack_ns);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const CellTiming& x = a.cells[c];
    const CellTiming& y = b.cells[c];
    ASSERT_TRUE(x.arrival_ns == y.arrival_ns &&
                x.min_arrival_ns == y.min_arrival_ns &&
                x.required_ns == y.required_ns && x.slack_ns == y.slack_ns &&
                x.gate_delay_ns == y.gate_delay_ns &&
                x.input_slew_ns == y.input_slew_ns &&
                x.output_slew_ns == y.output_slew_ns &&
                x.load_ff == y.load_ff)
        << "cell " << c;
  }
}

TEST(IncrementalStaRollback, RestoreIsBitIdentical) {
  // dosePl's rollback: swap cells, legalize, re-extract and re-time, then
  // restore every location, re-extract and re-time.  The timing and
  // the K-path list must equal the pre-swap ones bit for bit, which is what
  // lets dosePl keep its path set across a rolled-back round.
  const gen::DesignSpec spec = gen::aes65_spec().scaled(0.03);
  const tech::TechNode node = tech::make_tech_65nm();
  liberty::LibraryRepository repo(node);
  gen::GeneratedDesign d = gen::generate_design(spec, repo.masters(), node);
  extract::Parasitics para = extract::extract(*d.placement, node);
  Timer timer(d.netlist.get(), &para, &repo);
  const std::size_t cells = d.netlist->cell_count();
  VariantAssignment va(cells);
  Rng rng(2026);
  for (std::size_t c = 0; c < cells; ++c)
    va.set(static_cast<netlist::CellId>(c),
           static_cast<int>(rng.uniform_index(liberty::kVariantsPerLayer)),
           10);

  TimingState state;
  const TimingResult before = timer.update(state, va);
  const std::vector<TimingPath> paths_before =
      timer.top_paths(va, before, 2000);

  std::vector<place::CellLocation> saved(cells);
  for (std::size_t c = 0; c < cells; ++c)
    saved[c] = d.placement->location(static_cast<netlist::CellId>(c));
  for (int swap = 0; swap < 3; ++swap) {
    d.placement->swap_cells(
        static_cast<netlist::CellId>(rng.uniform_index(cells)),
        static_cast<netlist::CellId>(rng.uniform_index(cells)));
  }
  place::legalize(*d.placement);
  extract::Parasitics prev = para;
  para = extract::extract(*d.placement, node);
  const double moved_mct =
      timer.update(state, va, diff_parasitics(prev, para)).mct_ns;

  for (std::size_t c = 0; c < cells; ++c)
    d.placement->set_location(static_cast<netlist::CellId>(c), saved[c]);
  prev = para;
  para = extract::extract(*d.placement, node);
  const TimingResult after =
      timer.update(state, va, diff_parasitics(prev, para));
  EXPECT_NE(moved_mct, after.mct_ns);  // the swaps did move the timing

  expect_timing_bitwise_equal(after, before);
  const std::vector<TimingPath> paths_after =
      timer.top_paths(va, after, 2000);
  EXPECT_EQ(path_list_checksum(paths_after), path_list_checksum(paths_before));
}

TEST(CriticalPercentage, CountsWithinBand) {
  std::vector<TimingPath> paths(10);
  for (std::size_t i = 0; i < paths.size(); ++i)
    paths[i].delay_ns = 1.0 - 0.02 * static_cast<double>(i);
  // Paths >= 0.95: delays 1.00, 0.98, 0.96 -> 30%.
  EXPECT_DOUBLE_EQ(critical_path_percentage(paths, 1.0, 0.95), 30.0);
  EXPECT_DOUBLE_EQ(critical_path_percentage(paths, 1.0, 0.80), 100.0);
  EXPECT_DOUBLE_EQ(critical_path_percentage({}, 1.0, 0.95), 0.0);
}

}  // namespace
}  // namespace doseopt::sta
