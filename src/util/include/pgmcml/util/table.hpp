// Lightweight table builder used by the benchmark harnesses to print the
// paper's tables (markdown on stdout, CSV on request) with aligned columns.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pgmcml::util {

class Table {
 public:
  explicit Table(std::string title = "");

  /// Sets the header row.
  void header(std::vector<std::string> columns);

  /// Appends a data row; must match the header width if a header was set.
  void row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);
  /// Engineering-notation cell, e.g. "47.77u" + unit.
  static std::string eng(double v, const std::string& unit = "");

  std::size_t rows() const { return rows_.size(); }

  /// Renders as a GitHub-style markdown table with a title line.
  std::string to_markdown() const;
  /// Prints the markdown rendering to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pgmcml::util
