#include "machine/machine.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace iosched::machine {
namespace {

TEST(MachineConfig, MiraGeometry) {
  MachineConfig mira = MachineConfig::Mira();
  EXPECT_EQ(mira.total_midplanes(), 96);
  EXPECT_EQ(mira.total_nodes(), 49152);
  // Aggregate injection bandwidth is the 1536 GB/s of Figure 1.
  EXPECT_NEAR(mira.node_bandwidth_gbps * mira.total_nodes(), 1536.0, 1e-9);
}

TEST(MachineConfig, IntrepidGeometry) {
  MachineConfig bgp = MachineConfig::Intrepid();
  EXPECT_EQ(bgp.total_midplanes(), 80);
  EXPECT_EQ(bgp.total_nodes(), 40960);
  // Roughly a third of Mira's aggregate injection bandwidth.
  double aggregate = bgp.node_bandwidth_gbps * bgp.total_nodes();
  EXPECT_NEAR(aggregate, 512.0, 1e-9);
  Machine m(bgp);
  EXPECT_EQ(m.BlockNodesFor(8192).value(), 8192);
  EXPECT_EQ(m.BlockNodesFor(8193).value(), 16384);  // two rows on BG/P
  EXPECT_TRUE(m.Allocate(40960).has_value());
}

TEST(MachineConfig, SmallGeometry) {
  MachineConfig small = MachineConfig::Small();
  EXPECT_EQ(small.total_nodes(), 4096);
}

TEST(Machine, BlockSizingPowersOfTwo) {
  Machine m(MachineConfig::Mira());
  EXPECT_EQ(m.BlockNodesFor(1).value(), 512);
  EXPECT_EQ(m.BlockNodesFor(512).value(), 512);
  EXPECT_EQ(m.BlockNodesFor(513).value(), 1024);
  EXPECT_EQ(m.BlockNodesFor(1024).value(), 1024);
  EXPECT_EQ(m.BlockNodesFor(5000).value(), 8192);
  EXPECT_EQ(m.BlockNodesFor(16384).value(), 16384);
}

TEST(Machine, BlockSizingMultiRow) {
  Machine m(MachineConfig::Mira());
  // Above one row (16,384 nodes): whole-row groups.
  EXPECT_EQ(m.BlockNodesFor(16385).value(), 32768);
  EXPECT_EQ(m.BlockNodesFor(32768).value(), 32768);
  EXPECT_EQ(m.BlockNodesFor(32769).value(), 49152);
  EXPECT_EQ(m.BlockNodesFor(49152).value(), 49152);
}

TEST(Machine, OversizeAndInvalidRequests) {
  Machine m(MachineConfig::Mira());
  EXPECT_FALSE(m.BlockNodesFor(49153).has_value());
  EXPECT_FALSE(m.BlockNodesFor(0).has_value());
  EXPECT_FALSE(m.BlockNodesFor(-5).has_value());
  EXPECT_FALSE(m.Allocate(49153).has_value());
}

TEST(Machine, AllocateTracksBusyNodes) {
  Machine m(MachineConfig::Mira());
  auto p = m.Allocate(512);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(m.busy_nodes(), 512);
  EXPECT_EQ(m.free_nodes(), 49152 - 512);
  m.Release(*p);
  EXPECT_EQ(m.busy_nodes(), 0);
}

TEST(Machine, InternalFragmentationCounted) {
  Machine m(MachineConfig::Mira());
  auto p = m.Allocate(600);  // needs a 1024-node block
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, 1024);
  EXPECT_EQ(m.busy_nodes(), 1024);
  m.Release(*p);
}

TEST(Machine, AlignmentWithinRow) {
  Machine m(MachineConfig::Mira());
  // A 2-midplane block must start on an even midplane index.
  auto single = m.Allocate(512);  // occupies midplane 0
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->first_midplane, 0);
  auto pair = m.Allocate(1024);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first_midplane % 2, 0);
  EXPECT_EQ(pair->first_midplane, 2);  // midplane 1 skipped by alignment
}

TEST(Machine, FullRowAllocation) {
  Machine m(MachineConfig::Mira());
  auto row = m.Allocate(16384);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->midplane_count, 32);
  EXPECT_EQ(row->first_midplane % 32, 0);
}

TEST(Machine, FullMachineAllocation) {
  Machine m(MachineConfig::Mira());
  auto all = m.Allocate(49152);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(m.free_nodes(), 0);
  EXPECT_FALSE(m.Allocate(512).has_value());
  m.Release(*all);
  EXPECT_EQ(m.free_nodes(), 49152);
}

TEST(Machine, ExhaustionAndRecovery) {
  Machine m(MachineConfig::Small());  // 8 midplanes
  std::vector<Partition> parts;
  for (int i = 0; i < 8; ++i) {
    auto p = m.Allocate(512);
    ASSERT_TRUE(p.has_value());
    parts.push_back(*p);
  }
  EXPECT_FALSE(m.Allocate(512).has_value());
  EXPECT_FALSE(m.CanAllocate(512));
  m.Release(parts[3]);
  EXPECT_TRUE(m.CanAllocate(512));
  auto again = m.Allocate(512);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->first_midplane, 3);
}

TEST(Machine, FragmentationBlocksLargeAlloc) {
  Machine m(MachineConfig::Small());  // one row of 8 midplanes
  auto a = m.Allocate(512);           // midplane 0
  ASSERT_TRUE(a.has_value());
  auto b = m.Allocate(512);  // midplane 1
  ASSERT_TRUE(b.has_value());
  // 6 free midplanes remain but a 4-midplane block needs alignment 4:
  // midplanes 4..7 are free -> should still fit.
  EXPECT_TRUE(m.CanAllocate(2048));
  auto c = m.Allocate(2048);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first_midplane, 4);
  // Now nothing of size 4 midplanes remains (midplanes 2,3 free, wrong align
  // for a 4-block), so 2048 more should fail.
  EXPECT_FALSE(m.CanAllocate(2048));
  // But a 1024 block (align 2) fits at midplane 2.
  auto d = m.Allocate(1024);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->first_midplane, 2);
}

TEST(Machine, ReleaseErrors) {
  Machine m(MachineConfig::Small());
  Partition bogus{0, 1, 512};
  EXPECT_THROW(m.Release(bogus), std::logic_error);  // not allocated
  Partition invalid{0, 0, 0};
  EXPECT_THROW(m.Release(invalid), std::invalid_argument);
  Partition out_of_range{7, 4, 2048};
  EXPECT_THROW(m.Release(out_of_range), std::invalid_argument);
}

TEST(Machine, InvalidConfigThrows) {
  MachineConfig bad = MachineConfig::Small();
  bad.rows = 0;
  EXPECT_THROW(Machine{bad}, std::invalid_argument);
  MachineConfig bad_bw = MachineConfig::Small();
  bad_bw.node_bandwidth_gbps = 0;
  EXPECT_THROW(Machine{bad_bw}, std::invalid_argument);
}

// Property test: random allocate/release sequences keep the occupancy
// bitmap consistent with busy counters, and allocations never overlap.
class MachineChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineChurn, InvariantsHoldUnderChurn) {
  Machine m(MachineConfig::Mira());
  util::Rng rng(GetParam());
  std::vector<Partition> held;
  const std::vector<int> sizes = {512, 1024, 2048, 4096, 8192, 16384, 32768};
  for (int step = 0; step < 2000; ++step) {
    bool do_alloc = held.empty() || rng.Bernoulli(0.55);
    if (do_alloc) {
      int req = sizes[rng.WeightedIndex(
          std::vector<double>{4, 3, 2, 2, 1, 0.5, 0.2})];
      auto p = m.Allocate(req);
      if (p) held.push_back(*p);
    } else {
      std::size_t pick =
          static_cast<std::size_t>(rng.UniformInt(0, held.size() - 1));
      m.Release(held[pick]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Invariant: busy counters match the sum of held partitions.
    int expected_nodes = 0;
    int expected_mps = 0;
    for (const Partition& p : held) {
      expected_nodes += p.nodes;
      expected_mps += p.midplane_count;
    }
    ASSERT_EQ(m.busy_nodes(), expected_nodes);
    ASSERT_EQ(m.busy_midplanes(), expected_mps);
    // Invariant: occupancy bitmap has exactly expected_mps set bits.
    int set_bits = 0;
    for (bool b : m.occupancy()) set_bits += b ? 1 : 0;
    ASSERT_EQ(set_bits, expected_mps);
  }
  for (const Partition& p : held) m.Release(p);
  EXPECT_EQ(m.busy_nodes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineChurn,
                         ::testing::Values(1ull, 7ull, 2024ull, 31337ull));

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Allocate single-midplane partitions until `m` is full; returns them in
/// midplane order.
std::vector<Partition> FillWithSingles(Machine& m) {
  std::vector<Partition> held;
  while (auto p = m.Allocate(m.config().nodes_per_midplane)) {
    held.push_back(*p);
  }
  return held;
}

TEST(MachineEarliestFit, EmptyMachineFitsNow) {
  Machine m(MachineConfig::Mira());
  std::vector<double> busy(96, 1e9);  // ignored: every midplane is free
  for (int nodes : {1, 512, 4096, 16384, 32768, 49152}) {
    EXPECT_EQ(m.EarliestFit(nodes, busy), -kInf) << nodes;
  }
  EXPECT_EQ(m.EarliestFit(49153, busy), kInf);  // larger than the machine
  EXPECT_THROW(m.EarliestFit(512, std::vector<double>(95, 0.0)),
               std::invalid_argument);
}

TEST(MachineEarliestFit, FaultedRowExcludesItsBlocks) {
  Machine m(MachineConfig::Mira());
  std::vector<Partition> held = FillWithSingles(m);
  std::vector<double> busy(96);
  for (int i = 0; i < 96; ++i) busy[static_cast<std::size_t>(i)] = i;
  // Row 0 holds the earliest releases, but a fully faulted row never fits.
  for (int i = 0; i < 32; ++i) m.SetFaulted(i, true);
  EXPECT_EQ(m.EarliestFit(512, busy), 32.0);
  EXPECT_EQ(m.EarliestFit(8192, busy), 47.0);    // first 16-run of row 1
  EXPECT_EQ(m.EarliestFit(16384, busy), 63.0);   // row 1
  EXPECT_EQ(m.EarliestFit(32768, busy), 95.0);   // rows 1-2 only
  EXPECT_EQ(m.EarliestFit(49152, busy), kInf);   // every block faulted
  // Releasing row 0 does not help: its midplanes stay faulted.
  for (int i = 0; i < 32; ++i) m.Release(held[static_cast<std::size_t>(i)]);
  EXPECT_EQ(m.EarliestFit(512, busy), 32.0);
  // A single fault inside row 2 leaves the rows 0-1 and 1-2 blocks to
  // compete once row 0 is repaired.
  for (int i = 0; i < 32; ++i) m.SetFaulted(i, false);
  m.SetFaulted(70, true);
  EXPECT_EQ(m.EarliestFit(512, busy), -kInf);
  EXPECT_EQ(m.EarliestFit(32768, busy), 63.0);
  EXPECT_EQ(m.EarliestFit(49152, busy), kInf);
}

TEST(MachineEarliestFit, MultiRowBlocksTakeTheMaxAcrossRows) {
  Machine m(MachineConfig::Mira());
  std::vector<Partition> held = FillWithSingles(m);
  // Keep one busy midplane per row: 5 (row 0), 40 (row 1), 70 (row 2).
  for (const Partition& p : held) {
    int mp = p.first_midplane;
    if (mp != 5 && mp != 40 && mp != 70) m.Release(p);
  }
  std::vector<double> busy(96, 0.0);
  busy[5] = 100;
  busy[40] = 50;
  busy[70] = 200;
  EXPECT_EQ(m.EarliestFit(512, busy), -kInf);
  EXPECT_EQ(m.EarliestFit(16384, busy), 50.0);   // row 1 alone
  EXPECT_EQ(m.EarliestFit(32768, busy), 100.0);  // rows 0-1 beat rows 1-2
  EXPECT_EQ(m.EarliestFit(49152, busy), 200.0);  // all three rows
  // Intrepid: 5 rows of 16, so multi-row blocks straddle a 64-bit word.
  Machine intrepid(MachineConfig::Intrepid());
  std::vector<Partition> singles = FillWithSingles(intrepid);
  ASSERT_EQ(singles.size(), 80u);
  std::vector<double> ib(80);
  for (int i = 0; i < 80; ++i) ib[static_cast<std::size_t>(i)] = 80 - i;
  EXPECT_EQ(intrepid.EarliestFit(3 * 16 * 512, ib), 48.0);  // rows 2-4
  EXPECT_EQ(intrepid.EarliestFit(5 * 16 * 512, ib), 80.0);
}

/// EarliestFit(head) <= t exactly when the head fits after releasing every
/// partition expected free by t, over a MachineChurn-style random sequence
/// with faults.
TEST_P(MachineChurn, EarliestFitAgreesWithCanAllocate) {
  Machine m(MachineConfig::Mira());
  util::Rng rng(GetParam());
  std::vector<Partition> held;
  std::vector<double> ends;  // parallel to `held`
  std::vector<double> busy(96, 0.0);
  const std::vector<int> sizes = {512, 1024, 2048, 4096, 8192, 16384, 32768};
  const std::vector<int> heads = {512,  2048,  8192, 16384,
                                  20000, 32768, 49152};
  for (int step = 0; step < 600; ++step) {
    if (held.empty() || rng.Bernoulli(0.6)) {
      int req = sizes[rng.WeightedIndex(
          std::vector<double>{4, 3, 2, 2, 1, 0.5, 0.2})];
      if (auto p = m.Allocate(req)) {
        // A coarse grid of end times makes ties common.
        double end = static_cast<double>(rng.UniformInt(1, 40)) * 100.0;
        for (int i = 0; i < p->midplane_count; ++i) {
          busy[static_cast<std::size_t>(p->first_midplane + i)] = end;
        }
        held.push_back(*p);
        ends.push_back(end);
      }
    } else {
      auto pick = static_cast<std::size_t>(rng.UniformInt(0, held.size() - 1));
      m.Release(held[pick]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      ends.erase(ends.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (rng.Bernoulli(0.05)) {
      int mp = static_cast<int>(rng.UniformInt(0, 95));
      m.SetFaulted(mp, !m.IsFaulted(mp));
    }
    int head = heads[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(heads.size()) - 1))];
    double fit = m.EarliestFit(head, busy);
    ASSERT_EQ(fit == -kInf, m.CanAllocate(head)) << "step " << step;
    for (double t : {50.0, 1000.0, 2050.0, 3000.0, 4000.0}) {
      Machine probe = m;
      for (std::size_t k = 0; k < held.size(); ++k) {
        if (ends[k] <= t) probe.Release(held[k]);
      }
      ASSERT_EQ(fit <= t, probe.CanAllocate(head))
          << "step " << step << " head " << head << " t " << t;
    }
  }
}

}  // namespace
}  // namespace iosched::machine
