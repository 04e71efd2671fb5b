#include "core/predictor.h"

#include <cmath>
#include <stdexcept>

namespace iosched::core {
namespace {

/// Evidence ramp of one provenance level: full trust at min_support
/// observations, linear below, zero without any observation.
double LevelWeight(std::size_t count, std::size_t min_support) {
  if (count == 0) return 0.0;
  if (min_support == 0) return 1.0;
  double w = static_cast<double>(count) / static_cast<double>(min_support);
  return w < 1.0 ? w : 1.0;
}

}  // namespace

IoBehaviorPredictor::IoBehaviorPredictor(Options options) : options_(options) {
  if (options_.alpha <= 0 || options_.alpha > 1) {
    throw std::invalid_argument("IoBehaviorPredictor: alpha not in (0,1]");
  }
  if (options_.node_bandwidth_gbps <= 0) {
    throw std::invalid_argument("IoBehaviorPredictor: bad node bandwidth");
  }
}

void IoBehaviorPredictor::Ewma::Update(double fraction, double phases,
                                       double efficiency, double alpha) {
  if (count == 0) {
    io_fraction = fraction;
    io_phases = phases;
    io_efficiency = efficiency;
  } else {
    io_fraction += alpha * (fraction - io_fraction);
    io_phases += alpha * (phases - io_phases);
    io_efficiency += alpha * (efficiency - io_efficiency);
  }
  ++count;
}

void IoBehaviorPredictor::Observe(const workload::Job& job) {
  double fraction = job.IoFraction(options_.node_bandwidth_gbps);
  auto phases = static_cast<double>(job.IoPhaseCount());
  double efficiency = job.io_efficiency;
  global_.Update(fraction, phases, efficiency, options_.alpha);
  if (!job.project.empty()) {
    by_project_[job.project].Update(fraction, phases, efficiency,
                                    options_.alpha);
  }
  if (!job.user.empty()) {
    by_user_[job.user].Update(fraction, phases, efficiency, options_.alpha);
  }
}

const IoBehaviorPredictor::Ewma* IoBehaviorPredictor::Find(
    const std::unordered_map<std::string, Ewma>& table,
    const std::string& key) const {
  if (key.empty()) return nullptr;
  auto it = table.find(key);
  return it == table.end() ? nullptr : &it->second;
}

IoPrediction IoBehaviorPredictor::Predict(const workload::Job& job) const {
  IoPrediction prediction;
  if (global_.count == 0) return prediction;  // no history at all
  // Start from the global average and blend in the more specific levels,
  // each weighted by its evidence ramp: w = min(1, count / min_support).
  // A well-supported project overrides everything (w = 1); a thin one
  // contributes proportionally and the coarser levels fill the rest.
  prediction.io_fraction = global_.io_fraction;
  prediction.io_phases = global_.io_phases;
  prediction.io_efficiency = global_.io_efficiency;
  auto blend = [&prediction](const Ewma& src, double w) {
    prediction.io_fraction += w * (src.io_fraction - prediction.io_fraction);
    prediction.io_phases += w * (src.io_phases - prediction.io_phases);
    prediction.io_efficiency +=
        w * (src.io_efficiency - prediction.io_efficiency);
  };
  const Ewma* user = Find(by_user_, job.user);
  double weight_user = 0.0;
  if (user != nullptr) {
    weight_user = LevelWeight(user->count, options_.min_support);
    blend(*user, weight_user);
  }
  const Ewma* project = Find(by_project_, job.project);
  double weight_project = 0.0;
  if (project != nullptr) {
    weight_project = LevelWeight(project->count, options_.min_support);
    blend(*project, weight_project);
  }
  // Report the evidence behind the strongest contributing level; ties go to
  // the more specific level. Never zero here: global_ has history.
  double eff_project = weight_project;
  double eff_user = (1.0 - weight_project) * weight_user;
  double eff_global = (1.0 - weight_project) * (1.0 - weight_user);
  if (project != nullptr && eff_project >= eff_user &&
      eff_project >= eff_global) {
    prediction.support = project->count;
  } else if (user != nullptr && eff_user >= eff_global) {
    prediction.support = user->count;
  } else {
    prediction.support = global_.count;
  }
  return prediction;
}

double EvaluateFractionError(const IoBehaviorPredictor& predictor,
                             const workload::Workload& jobs,
                             double node_bandwidth_gbps) {
  if (jobs.empty()) return 0.0;
  double total = 0.0;
  for (const workload::Job& job : jobs) {
    IoPrediction p = predictor.Predict(job);
    total += std::abs(p.io_fraction - job.IoFraction(node_bandwidth_gbps));
  }
  return total / static_cast<double>(jobs.size());
}

PrequentialResult EvaluatePrequential(IoBehaviorPredictor& predictor,
                                      const workload::Workload& jobs,
                                      double node_bandwidth_gbps) {
  PrequentialResult result;
  double total = 0.0;
  for (const workload::Job& job : jobs) {
    IoPrediction p = predictor.Predict(job);
    if (p.support == 0) ++result.cold_jobs;
    total += std::abs(p.io_fraction - job.IoFraction(node_bandwidth_gbps));
    predictor.Observe(job);
    ++result.evaluated;
  }
  if (result.evaluated > 0) {
    result.mae_fraction = total / static_cast<double>(result.evaluated);
  }
  return result;
}

}  // namespace iosched::core
