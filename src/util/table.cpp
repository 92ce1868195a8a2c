#include "util/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace psmsys::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("table needs at least one column");
}

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("row width does not match header width");
  }
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::fmt(std::uint64_t v) { return std::to_string(v); }
std::string Table::fmt(int v) { return std::to_string(v); }

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto rule = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  const auto emit = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c])) << cells[c] << " |";
    }
    os << '\n';
  };

  if (!title.empty()) os << title << '\n';
  rule();
  emit(headers_);
  rule();
  for (const auto& row : rows_) emit(row);
  rule();
}

}  // namespace psmsys::util
