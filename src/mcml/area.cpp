#include "pgmcml/mcml/area.hpp"

#include <cmath>

namespace pgmcml::mcml {

double AreaModel::mcml_area(CellKind kind) const {
  return cell_info(kind).pitch_count * mcml_pitch() * cell_height();
}

double AreaModel::pg_area(CellKind kind) const {
  return cell_info(kind).pitch_count * pg_pitch() * cell_height();
}

std::optional<double> AreaModel::cmos_area(CellKind kind) const {
  const CellInfo& info = cell_info(kind);
  if (!info.cmos_area_ratio.has_value()) return std::nullopt;
  return pg_area(kind) / *info.cmos_area_ratio;
}

}  // namespace pgmcml::mcml
