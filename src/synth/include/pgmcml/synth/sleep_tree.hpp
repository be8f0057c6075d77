// Automatic sleep-signal insertion -- the paper's stated future work
// ("Automatic insertion of sleep signal during synthesis will be
// investigated in future work", Section 7), implemented here.
//
// Section 5/6 describe the manual flow this pass automates: every PG-MCML
// cell has a sleep input; all cells in a cluster share one sleep net, which
// must be buffered "as a balanced tree" of single-ended CMOS clock buffers
// (same row height as the PG-MCML cells) so the block switches on within a
// fraction of the clock period (~1 ns insertion delay in the paper).
//
// The pass:
//   * partitions the netlist's PG cells into clusters of bounded sleep
//     fan-out (a buffer can drive only so many sleep pins),
//   * synthesizes a balanced buffer tree from the sleep root to the
//     clusters (the CTS-like step the paper runs in the P&R tool),
//   * reports buffer count, buffer area, insertion delay and skew.
//
// The inserted buffers are what make the paper's PG-MCML netlist larger in
// cell count than the conventional MCML one (3076 vs 2911 in Table 3).
#pragma once

#include <cstddef>
#include <vector>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/netlist/design.hpp"

namespace pgmcml::synth {

struct SleepTreeOptions {
  /// Maximum sleep pins one buffer may drive (load limit).
  std::size_t max_fanout = 24;
  /// Delay of one sleep buffer [s] (single-ended CMOS clock buffer).
  double buffer_delay = 65e-12;
  /// Extra RC delay per driven sleep pin [s] (wire + pin load).
  double load_delay_per_pin = 1.5e-12;
  /// Area of one sleep buffer [m^2] (CMOS buffer at PG-MCML row height).
  double buffer_area = 2.6e-12;
};

struct SleepTreeResult {
  std::size_t gated_cells = 0;    ///< PG cells receiving the sleep signal
  std::size_t buffers = 0;        ///< inserted sleep buffers
  std::size_t levels = 0;         ///< tree depth
  double buffer_area = 0.0;       ///< total added area [m^2]
  double insertion_delay = 0.0;   ///< root-to-farthest-pin delay [s]
  double skew = 0.0;              ///< max minus min pin arrival [s]
  /// Per-level buffer counts, root first.
  std::vector<std::size_t> level_sizes;

  /// Cells of the block including the sleep buffers (the Table 3 number).
  std::size_t total_cells(std::size_t logic_cells) const {
    return logic_cells + buffers;
  }
};

/// Plans the sleep-distribution tree for a mapped design in the given
/// library.  For non-power-gated libraries the result is empty (no pass
/// needed).  The tree is balanced, so the skew is bounded by the per-pin
/// load spread within the leaf level.
SleepTreeResult insert_sleep_tree(const netlist::Design& design,
                                  const cells::CellLibrary& library,
                                  const SleepTreeOptions& options = {});

}  // namespace pgmcml::synth
