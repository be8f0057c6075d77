#include "pgmcml/sca/attack.hpp"

#include <algorithm>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::sca {

double predict_leakage(LeakageModel model, std::uint8_t plaintext,
                       std::uint8_t key_guess) {
  const std::uint8_t v = aes::reduced_target(plaintext, key_guess);
  switch (model) {
    case LeakageModel::kHammingWeight:
      return static_cast<double>(util::hamming_weight(v));
    case LeakageModel::kSboxBit0:
      return static_cast<double>(v & 1);
    case LeakageModel::kIdentity:
      return static_cast<double>(v);
  }
  return 0.0;
}

int CpaResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = peak_correlation[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && peak_correlation[k] > mine) ++rank;
  }
  return rank;
}

double CpaResult::margin(std::uint8_t true_key) const {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != true_key) best_wrong = std::max(best_wrong, peak_correlation[k]);
  }
  return peak_correlation[true_key] - best_wrong;
}

std::pair<std::size_t, std::size_t> static_window_bounds(StaticWindow window,
                                                         std::size_t m) {
  // The awake window takes the rounding slack so a 1-sample trace still has
  // a non-empty awake half.
  const std::size_t split = (m + 1) / 2;
  switch (window) {
    case StaticWindow::kAll: return {0, m};
    case StaticWindow::kAwake: return {0, split};
    case StaticWindow::kAsleep: return {split, m};
  }
  return {0, m};
}

std::string_view to_string(StaticWindow window) {
  switch (window) {
    case StaticWindow::kAll: return "all";
    case StaticWindow::kAwake: return "awake";
    case StaticWindow::kAsleep: return "asleep";
  }
  return "all";
}

int StaticPowerResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = correlation[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && correlation[k] > mine) ++rank;
  }
  return rank;
}

double StaticPowerResult::margin(std::uint8_t true_key) const {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != true_key) best_wrong = std::max(best_wrong, correlation[k]);
  }
  return correlation[true_key] - best_wrong;
}

int MlpaResult::key_rank(std::uint8_t true_key) const {
  int rank = 0;
  const double mine = score[true_key];
  for (int k = 0; k < 256; ++k) {
    if (k != true_key && score[k] > mine) ++rank;
  }
  return rank;
}

double MlpaResult::margin(std::uint8_t true_key) const {
  double best_wrong = 0.0;
  for (int k = 0; k < 256; ++k) {
    if (k != true_key) best_wrong = std::max(best_wrong, score[k]);
  }
  return score[true_key] - best_wrong;
}

CpaResult cpa_attack(TraceSource& source, LeakageModel model,
                     bool keep_time_curves) {
  CpaAccumulator acc(model, source.samples_per_trace());
  TraceBatch batch;
  while (source.next(batch)) acc.add_batch(batch);
  return acc.snapshot(keep_time_curves);
}

CpaResult cpa_attack(const TraceSet& traces, LeakageModel model,
                     bool keep_time_curves) {
  TraceSetSource source(traces);
  return cpa_attack(source, model, keep_time_curves);
}

}  // namespace pgmcml::sca
