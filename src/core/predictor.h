// I/O-behavior prediction from past traces (the paper's stated future work:
// "build a model to predict an application's I/O behavior based on its past
// I/O trace").
//
// The predictor learns, per project and per user, exponentially weighted
// moving averages of the I/O characteristics that drive scheduling: the
// I/O-time fraction, the number of I/O phases, and the application's
// effective I/O efficiency. Prediction falls back hierarchically:
// project -> user -> global, weighting each level by how much evidence it
// has: a level with at least `min_support` observations fully overrides its
// fallback, and below that its weight ramps linearly with the observation
// count, so a project seen twice under min_support 4 contributes half of
// the estimate and the coarser levels the rest. On Mira-like workloads
// projects have consistent I/O behaviour (checkpointing style is a property
// of the code base), which makes this learnable — our synthetic generator
// reproduces exactly that structure.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "workload/workload.h"

namespace iosched::core {

struct IoPrediction {
  /// Predicted fraction of the uncongested runtime spent in I/O.
  double io_fraction = 0.0;
  /// Predicted number of I/O requests over the job's lifetime.
  double io_phases = 0.0;
  /// Predicted application I/O efficiency (fraction of link bandwidth).
  double io_efficiency = 1.0;
  /// Evidence count behind the strongest contributing level. Zero means
  /// "no signal at all" (the predictor has never observed a job); consumers
  /// must treat that as absence of a prediction, not as an I/O-free job.
  std::size_t support = 0;
};

class IoBehaviorPredictor {
 public:
  struct Options {
    /// EWMA smoothing factor in (0, 1]: weight of the newest observation.
    double alpha = 0.25;
    /// Per-node link bandwidth used to derive I/O fractions.
    double node_bandwidth_gbps = 1536.0 / 49152.0;
    /// Observations at a level before it fully overrides its fallback;
    /// below this the level's weight ramps linearly (count / min_support).
    std::size_t min_support = 3;
  };

  explicit IoBehaviorPredictor(Options options);

  /// Learn from a completed (or historical) job.
  void Observe(const workload::Job& job);

  /// Predict the I/O behaviour of `job` from its provenance. The estimate
  /// starts from the global average and blends in the user- then
  /// project-level EWMAs, each weighted by its evidence ramp
  /// min(1, count / min_support). Jobs from unseen projects/users therefore
  /// fall back to the global average; with no history at all the prediction
  /// is the default with support 0 ("no signal").
  IoPrediction Predict(const workload::Job& job) const;

  std::size_t observed_jobs() const { return global_.count; }
  std::size_t known_projects() const { return by_project_.size(); }
  std::size_t known_users() const { return by_user_.size(); }

 private:
  struct Ewma {
    double io_fraction = 0.0;
    double io_phases = 0.0;
    double io_efficiency = 1.0;
    std::size_t count = 0;

    void Update(double fraction, double phases, double efficiency,
                double alpha);
  };

  const Ewma* Find(const std::unordered_map<std::string, Ewma>& table,
                   const std::string& key) const;

  Options options_;
  Ewma global_;
  std::unordered_map<std::string, Ewma> by_project_;
  std::unordered_map<std::string, Ewma> by_user_;
};

/// Mean absolute error of the predictor's io_fraction over a workload.
/// In-sample: the caller typically trained on (some of) `jobs`, so this
/// measures fit, not generalization — use EvaluatePrequential for an honest
/// forward-looking accuracy number.
double EvaluateFractionError(const IoBehaviorPredictor& predictor,
                             const workload::Workload& jobs,
                             double node_bandwidth_gbps);

struct PrequentialResult {
  /// Mean absolute io_fraction error over all evaluated jobs, including the
  /// cold ones (a cold prediction is the support-0 default).
  double mae_fraction = 0.0;
  /// Jobs evaluated (== jobs.size()).
  std::size_t evaluated = 0;
  /// Jobs predicted with support 0, i.e. before any history existed.
  std::size_t cold_jobs = 0;
};

/// Online (prequential) evaluation: walk `jobs` in order, predict each job
/// *before* observing it, then train on it. Mutates `predictor`. This is the
/// honest accuracy protocol — every prediction uses only earlier jobs.
PrequentialResult EvaluatePrequential(IoBehaviorPredictor& predictor,
                                      const workload::Workload& jobs,
                                      double node_bandwidth_gbps);

}  // namespace iosched::core
