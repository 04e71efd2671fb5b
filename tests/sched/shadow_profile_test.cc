// Differential test for the EASY probe. BatchScheduler reads the head job's
// reservation (ShadowTime) and the backfill feasibility check (BackfillOk)
// off its per-midplane availability profile via Machine::EarliestFit. This
// file keeps the original algorithm as the reference — sort the running set
// by predicted end, then bisect over released prefixes on a copy of the
// machine — and requires both to agree exactly on randomized machine states
// (Mira, Intrepid and Small geometries; faults, including faulted midplanes
// inside running partitions; overrun jobs; equal predicted ends; heads from
// one midplane up to three rows; the all-faulted fallback; tentatively
// allocated backfill candidates).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ckpt/serializer.h"
#include "machine/machine.h"
#include "sched/batch_scheduler.h"
#include "util/rng.h"
#include "util/units.h"

namespace iosched::sched {

/// Befriended by BatchScheduler: reaches the private EASY probe.
struct ShadowProbePeer {
  static sim::SimTime ShadowTime(const BatchScheduler& s,
                                 const workload::Job& head,
                                 sim::SimTime now) {
    return s.ShadowTime(head, now);
  }
  static bool BackfillOk(const BatchScheduler& s,
                         const workload::Job& candidate,
                         const workload::Job& head, sim::SimTime now,
                         sim::SimTime shadow) {
    return s.BackfillOk(candidate, head, now, shadow);
  }
  static void MarkBusy(BatchScheduler& s, const machine::Partition& p,
                       sim::SimTime until) {
    s.MarkBusy(p, until);
  }
};

namespace {

using RunningSet = std::unordered_map<workload::JobId, RunningJob>;

// ---- Reference: the release-prefix algorithm the profile replaced. ----

sim::SimTime ReferenceShadowTime(const machine::Machine& machine,
                                 const RunningSet& running,
                                 const workload::Job& head,
                                 sim::SimTime now) {
  if (machine.CanAllocate(head.nodes)) return now;
  std::vector<const RunningJob*> by_end;
  for (const auto& [id, rj] : running) by_end.push_back(&rj);
  std::sort(by_end.begin(), by_end.end(),
            [now](const RunningJob* a, const RunningJob* b) {
              double ea = std::max(a->predicted_end, now);
              double eb = std::max(b->predicted_end, now);
              if (ea != eb) return ea < eb;
              return a->job->id < b->job->id;
            });
  auto fits_after = [&](std::size_t prefix) {
    machine::Machine probe = machine;
    for (std::size_t k = 0; k < prefix; ++k) {
      probe.Release(by_end[k]->partition);
    }
    return probe.CanAllocate(head.nodes);
  };
  std::size_t lo = 1, hi = by_end.size();
  if (hi == 0 || !fits_after(hi)) {
    sim::SimTime latest = now;
    for (const RunningJob* rj : by_end) {
      latest = std::max(latest, rj->predicted_end);
    }
    return latest;
  }
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (fits_after(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::max(by_end[lo - 1]->predicted_end, now);
}

/// `machine` already holds the candidate's tentative partition, which is
/// not in `running`.
bool ReferenceBackfillOk(const machine::Machine& machine,
                         const RunningSet& running,
                         const workload::Job& candidate,
                         const workload::Job& head, sim::SimTime now,
                         sim::SimTime shadow) {
  if (now + candidate.requested_walltime <= shadow + util::kTimeEpsilon) {
    return true;
  }
  machine::Machine probe = machine;
  for (const auto& [id, rj] : running) {
    if (std::max(rj.predicted_end, now) <= shadow + util::kTimeEpsilon) {
      probe.Release(rj.partition);
    }
  }
  return probe.CanAllocate(head.nodes);
}

// ---- Randomized machine states. ----

struct Geometry {
  const char* name;
  machine::MachineConfig config;
};

/// Which of the listed situations the comparisons actually exercised.
struct Coverage {
  int fits_now = 0;
  int reserved = 0;
  int fallback = 0;
  int overrun = 0;
  int equal_ends = 0;
  int faulted_inside_running = 0;
  int multi_row_heads = 0;
  int backfill_early_out = 0;
  int backfill_geometric_yes = 0;
  int backfill_geometric_no = 0;
};

/// Block sizes (in midplanes) the allocator can hand out on `config`:
/// powers of two inside a row, then whole-row groups.
std::vector<int> BlockSizes(const machine::MachineConfig& config) {
  std::vector<int> sizes;
  for (int b = 1; b < config.midplanes_per_row; b *= 2) sizes.push_back(b);
  for (int r = 1; r <= config.rows; ++r) {
    sizes.push_back(r * config.midplanes_per_row);
  }
  return sizes;
}

class ShadowProfile
    : public ::testing::TestWithParam<std::tuple<Geometry, std::uint64_t>> {
 protected:
  workload::Job* MakeJob(int nodes, double walltime) {
    jobs_.push_back({});
    workload::Job& j = jobs_.back();
    j.id = static_cast<workload::JobId>(jobs_.size());
    j.nodes = nodes;
    j.requested_walltime = walltime;
    j.phases = {workload::Phase::Compute(walltime)};
    return &j;
  }

  /// A random request that lands in a block of `midplanes` midplanes.
  static int NodesForBlock(const machine::MachineConfig& config,
                           int midplanes, util::Rng& rng) {
    int row = config.midplanes_per_row;
    // The next smaller block: half the run inside a row, one row fewer
    // beyond it.
    int smaller = midplanes <= row ? midplanes / 2 : midplanes - row;
    int npm = config.nodes_per_midplane;
    return static_cast<int>(
        rng.UniformInt(smaller * npm + 1, midplanes * npm));
  }

  std::deque<workload::Job> jobs_;  // stable addresses
};

TEST_P(ShadowProfile, MatchesReleasePrefixReference) {
  const auto& [geometry, seed] = GetParam();
  const machine::MachineConfig& config = geometry.config;
  machine::Machine machine(config);
  BatchScheduler sched(machine, {});
  util::Rng rng(seed);
  const std::vector<int> blocks = BlockSizes(config);
  // Job sizes weighted toward small blocks so the machine fragments.
  std::vector<double> weights;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(1 + i * i));
  }
  // A coarse walltime grid makes equal predicted ends common.
  const std::vector<double> walltimes = {600, 1200, 1800, 3600, 7200};
  // Classifies probes only: +inf means every block is faulted.
  const std::vector<double> zeros(
      static_cast<std::size_t>(config.total_midplanes()), 0.0);
  Coverage cov;
  int comparisons = 0;
  double now = 0;

  for (int round = 0; round < 120; ++round) {
    if (rng.Bernoulli(0.7)) now += rng.Uniform(0, 900);
    int arrivals = static_cast<int>(rng.UniformInt(0, 3));
    for (int a = 0; a < arrivals; ++a) {
      int mps = blocks[rng.WeightedIndex(weights)];
      double wall = rng.Bernoulli(0.6)
                        ? walltimes[rng.UniformInt(0, walltimes.size() - 1)]
                        : rng.Uniform(60, 7200);
      sched.Submit(*MakeJob(NodesForBlock(config, mps, rng), wall));
    }
    if (rng.Bernoulli(0.3)) {
      // Twin single-midplane jobs: started together, they share a
      // predicted end.
      double wall = walltimes[rng.UniformInt(0, walltimes.size() - 1)];
      sched.Submit(*MakeJob(config.nodes_per_midplane, wall));
      sched.Submit(*MakeJob(config.nodes_per_midplane, wall));
    }
    sched.Schedule(now);
    // Random (not predicted-end) completions leave overrun jobs behind.
    std::vector<workload::JobId> ending;
    for (const auto& [id, rj] : sched.running()) {
      if (rng.Bernoulli(0.15)) ending.push_back(id);
    }
    std::sort(ending.begin(), ending.end());
    for (workload::JobId id : ending) sched.OnJobEnd(id, now);
    // Faults flip independently of occupancy; half of them target a
    // midplane inside a running partition.
    if (rng.Bernoulli(0.25)) {
      int mp = static_cast<int>(
          rng.UniformInt(0, config.total_midplanes() - 1));
      if (!sched.running().empty() && rng.Bernoulli(0.5)) {
        const machine::Partition& p =
            sched.running().begin()->second.partition;
        mp = p.first_midplane +
             static_cast<int>(rng.UniformInt(0, p.midplane_count - 1));
      }
      machine.SetFaulted(mp, !machine.IsFaulted(mp));
    }

    // Probe at the pass time or later, so some predicted ends lie in the
    // past.
    double probe_now = rng.Bernoulli(0.5) ? now : now + rng.Uniform(0, 4000);
    bool overrun = false;
    bool equal_ends = false;
    std::vector<double> ends;
    for (const auto& [id, rj] : sched.running()) {
      overrun = overrun || rj.predicted_end < probe_now;
      ends.push_back(rj.predicted_end);
    }
    std::sort(ends.begin(), ends.end());
    equal_ends = std::adjacent_find(ends.begin(), ends.end()) != ends.end();
    bool faulted_inside = false;
    std::vector<bool> occupied = machine.occupancy();
    for (int m = 0; m < config.total_midplanes(); ++m) {
      faulted_inside =
          faulted_inside || (occupied[static_cast<std::size_t>(m)] &&
                             machine.IsFaulted(m));
    }

    for (int mps : blocks) {
      const workload::Job& head =
          *MakeJob(NodesForBlock(config, mps, rng), 3600);
      sim::SimTime got = ShadowProbePeer::ShadowTime(sched, head, probe_now);
      sim::SimTime want =
          ReferenceShadowTime(machine, sched.running(), head, probe_now);
      ASSERT_EQ(got, want) << geometry.name << " seed " << seed << " round "
                           << round << " head " << head.nodes << " nodes";
      ++comparisons;
      if (machine.CanAllocate(head.nodes)) {
        ++cov.fits_now;
      } else if (machine.EarliestFit(head.nodes, zeros) ==
                 sim::kTimeInfinity) {
        ++cov.fallback;
      } else {
        ++cov.reserved;
      }
      cov.overrun += overrun ? 1 : 0;
      cov.equal_ends += equal_ends ? 1 : 0;
      cov.faulted_inside_running += faulted_inside ? 1 : 0;
      cov.multi_row_heads += mps > config.midplanes_per_row ? 1 : 0;

      // Backfill check with a tentatively allocated candidate.
      int cand_mps = blocks[rng.WeightedIndex(weights)];
      const workload::Job& candidate = *MakeJob(
          NodesForBlock(config, cand_mps, rng),
          rng.Bernoulli(0.3) ? std::max(0.0, got - probe_now)
                             : rng.Uniform(60, 7200));
      auto partition = machine.Allocate(candidate.nodes);
      if (!partition) continue;
      ShadowProbePeer::MarkBusy(sched, *partition,
                                probe_now + candidate.requested_walltime);
      bool ok =
          ShadowProbePeer::BackfillOk(sched, candidate, head, probe_now, got);
      bool ref_ok = ReferenceBackfillOk(machine, sched.running(), candidate,
                                        head, probe_now, got);
      ASSERT_EQ(ok, ref_ok) << geometry.name << " seed " << seed << " round "
                            << round << " head " << head.nodes
                            << " candidate " << candidate.nodes;
      ++comparisons;
      if (probe_now + candidate.requested_walltime <=
          got + util::kTimeEpsilon) {
        ++cov.backfill_early_out;
      } else if (ok) {
        ++cov.backfill_geometric_yes;
      } else {
        ++cov.backfill_geometric_no;
      }
      machine.Release(*partition);
    }
  }

  EXPECT_GT(comparisons, 0);
  EXPECT_GT(cov.fits_now, 0);
  EXPECT_GT(cov.reserved, 0);
  EXPECT_GT(cov.fallback, 0);
  EXPECT_GT(cov.overrun, 0);
  EXPECT_GT(cov.equal_ends, 0);
  EXPECT_GT(cov.faulted_inside_running, 0);
  EXPECT_GT(cov.backfill_early_out, 0);
  EXPECT_GT(cov.backfill_geometric_yes + cov.backfill_geometric_no, 0);
  if (config.rows > 1) {
    EXPECT_GT(cov.multi_row_heads, 0);
  }
}

std::string GeometryName(
    const ::testing::TestParamInfo<std::tuple<Geometry, std::uint64_t>>& p) {
  return std::string(std::get<0>(p.param).name) + "_seed" +
         std::to_string(std::get<1>(p.param));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShadowProfile,
    ::testing::Combine(
        ::testing::Values(Geometry{"Mira", machine::MachineConfig::Mira()},
                          Geometry{"Intrepid",
                                   machine::MachineConfig::Intrepid()},
                          Geometry{"Small", machine::MachineConfig::Small()}),
        ::testing::Values(1ull, 42ull, 2015ull)),
    GeometryName);

class ShadowProfileCases : public ::testing::Test {
 protected:
  workload::Job* MakeJob(workload::JobId id, int nodes, double walltime) {
    jobs_.push_back({});
    workload::Job& j = jobs_.back();
    j.id = id;
    j.nodes = nodes;
    j.requested_walltime = walltime;
    j.phases = {workload::Phase::Compute(walltime)};
    return &j;
  }
  std::deque<workload::Job> jobs_;
};

TEST_F(ShadowProfileCases, AllFaultedFallsBackToLatestPredictedEnd) {
  // Mira: a midplane fault in the middle row puts one faulted midplane in
  // both 2-row blocks, so a 2-row head can never fit.
  machine::Machine machine(machine::MachineConfig::Mira());
  BatchScheduler sched(machine, {});
  sched.Submit(*MakeJob(1, 512, 1000));
  sched.Submit(*MakeJob(2, 8192, 5000));
  ASSERT_EQ(sched.Schedule(0).size(), 2u);
  machine.SetFaulted(40, true);
  const workload::Job& head = *MakeJob(3, 20000, 3600);
  sim::SimTime shadow = ShadowProbePeer::ShadowTime(sched, head, 100);
  EXPECT_EQ(shadow, 5000.0);
  EXPECT_EQ(shadow, ReferenceShadowTime(machine, sched.running(), head, 100));
  // Once every running job has overrun, the fallback is "now".
  EXPECT_EQ(ShadowProbePeer::ShadowTime(sched, head, 6000), 6000.0);
  EXPECT_EQ(ReferenceShadowTime(machine, sched.running(), head, 6000),
            6000.0);
}

TEST_F(ShadowProfileCases, RestoredSchedulerRebuildsTheProfile) {
  machine::Machine machine(machine::MachineConfig::Mira());
  BatchScheduler sched(machine, {});
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    sched.Submit(*MakeJob(i + 1, 512 << rng.UniformInt(0, 5),
                          rng.Uniform(600, 7200)));
  }
  sched.Schedule(0);
  sched.OnJobEnd(sched.running().begin()->first, 300);
  sched.Schedule(300);
  ASSERT_GT(sched.queue_size(), 0u);

  ckpt::Writer mw, sw;
  machine.SaveState(mw);
  sched.SaveState(sw);
  machine::Machine restored_machine(machine::MachineConfig::Mira());
  ckpt::Reader mr(mw.buffer());
  restored_machine.RestoreState(mr);
  BatchScheduler restored(restored_machine, {});
  ckpt::Reader sr(sw.buffer());
  restored.RestoreState(sr, [this](workload::JobId id) {
    return &jobs_[static_cast<std::size_t>(id - 1)];
  });

  for (int nodes : {512, 2048, 8192, 16384, 32768, 49152}) {
    const workload::Job& head = *MakeJob(1000 + nodes, nodes, 3600);
    EXPECT_EQ(ShadowProbePeer::ShadowTime(restored, head, 400),
              ShadowProbePeer::ShadowTime(sched, head, 400))
        << nodes;
  }
}

TEST_F(ShadowProfileCases, RestoreRejectsPartitionOutsideTheMachine) {
  const workload::Job* job = MakeJob(1, 512, 600);
  machine::Machine machine(machine::MachineConfig::Small());
  BatchScheduler sched(machine, {});
  // SaveState layout: no queued jobs, one running job on midplanes 6..9 of
  // an 8-midplane machine, no retries, no backoff gates, jitter RNG state.
  ckpt::Writer w;
  w.U32(0);
  w.U32(1);
  w.I64(job->id);
  w.I64(6);
  w.I64(4);
  w.I64(2048);
  w.F64(0.0);
  w.F64(600.0);
  w.U32(0);
  w.U32(0);
  w.U64(0);
  w.U64(1);
  w.Bool(false);
  w.F64(0.0);
  ckpt::Reader r(w.buffer());
  EXPECT_THROW(sched.RestoreState(r, [job](workload::JobId) { return job; }),
               std::runtime_error);
}

}  // namespace
}  // namespace iosched::sched
