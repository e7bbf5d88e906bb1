#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace dxbsp::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row_strings(std::vector<std::string> row) {
  if (row.size() != headers_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  if (!caption_.empty()) os << caption_ << "\n";

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "  ";
      os.width(static_cast<std::streamsize>(widths[c]));
      os << cells[c];
    }
    os << "\n";
  };
  emit(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ",";
      os << csv_escape(cells[c]);
    }
    os << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

std::string csv_escape(std::string_view s) {
  if (s.find_first_of(",\"\r\n") == std::string_view::npos)
    return std::string(s);
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace dxbsp::util
