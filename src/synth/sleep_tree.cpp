#include "pgmcml/synth/sleep_tree.hpp"

#include <algorithm>
#include <cmath>

namespace pgmcml::synth {

SleepTreeResult insert_sleep_tree(const netlist::Design& design,
                                  const cells::CellLibrary& library,
                                  const SleepTreeOptions& options) {
  SleepTreeResult result;
  if (!library.power_gated()) return result;

  // Every instance of a power-gated library carries sleep pins -- one per
  // internal current-source stage; the buffer load limit is in *pins*.
  std::size_t pins = 0;
  for (const netlist::Instance& inst : design.instances()) {
    result.gated_cells += 1;
    pins += static_cast<std::size_t>(
        std::max(1, library.cell(inst.kind).stages));
  }
  if (result.gated_cells == 0) return result;

  // Balanced tree: leaves drive up to max_fanout pins; upper levels drive
  // up to max_fanout buffers each, until a single root buffer remains.
  std::size_t level_count =
      (pins + options.max_fanout - 1) / options.max_fanout;
  std::vector<std::size_t> levels;  // leaf level first
  levels.push_back(level_count);
  while (level_count > 1) {
    level_count = (level_count + options.max_fanout - 1) / options.max_fanout;
    levels.push_back(level_count);
  }
  std::reverse(levels.begin(), levels.end());  // root first

  result.level_sizes = levels;
  result.levels = levels.size();
  for (std::size_t n : levels) result.buffers += n;
  result.buffer_area =
      static_cast<double>(result.buffers) * options.buffer_area;

  // Delay: one buffer per level plus the leaf's pin load.  A balanced tree
  // equalizes the buffer path; the skew left over is the difference in leaf
  // loading (full vs partially filled last buffer).
  const std::size_t leaf_buffers = levels.back();
  const std::size_t full_load = options.max_fanout;
  const std::size_t last_load =
      pins - (leaf_buffers - 1) * options.max_fanout;
  const double path =
      static_cast<double>(result.levels) * options.buffer_delay;
  result.insertion_delay =
      path + static_cast<double>(full_load) * options.load_delay_per_pin;
  const double min_arrival =
      path + static_cast<double>(std::min(last_load, full_load)) *
                 options.load_delay_per_pin;
  result.skew = result.insertion_delay - min_arrival;
  return result;
}

}  // namespace pgmcml::synth
