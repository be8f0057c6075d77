// Folds one trace into a streaming accumulator as a one-trace batch: the
// serial reference the batch-invariance tests compare add_batch against.
#pragma once

#include <cstdint>
#include <span>

#include "pgmcml/sca/trace_source.hpp"

namespace pgmcml::sca {

template <typename Acc>
void add_one(Acc& acc, std::uint8_t plaintext, std::span<const double> trace) {
  TraceBatch one;
  one.add(plaintext, trace);
  acc.add_batch(one);
}

}  // namespace pgmcml::sca
