#pragma once

// Console tables for the benchmark harness. Every bench case prints rows in
// the shape of the paper's tables and figures so that the measured output
// can be compared side by side with the published numbers.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace psmsys::util {

/// A simple column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Format helpers.
  [[nodiscard]] static std::string fmt(double v, int precision = 2);
  [[nodiscard]] static std::string fmt(std::uint64_t v);
  [[nodiscard]] static std::string fmt(int v);

  void print(std::ostream& os, const std::string& title = {}) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept { return headers_.size(); }

  /// Raw cell access, used by the bench harness to serialize tables to JSON.
  [[nodiscard]] const std::vector<std::string>& headers() const noexcept { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& row_data() const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace psmsys::util
