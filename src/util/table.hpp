#pragma once
// ASCII table / CSV emitter used by every bench binary to print the
// rows/series of the corresponding paper table or figure.
//
// Usage:
//   Table t({"contention k", "measured (cyc)", "dxbsp (cyc)", "bsp (cyc)"});
//   t.add_row(k, meas, pred, bsp);
//   t.print(std::cout);          // aligned ASCII
//   t.print_csv(std::cout);      // machine-readable

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace dxbsp::util {

/// A simple column-aligned table. Cells are stored as strings; add_row
/// accepts any streamable types. Doubles are formatted with %.4g-style
/// precision unless pre-formatted by the caller.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; the number of cells must equal the number of headers.
  template <typename... Cells>
  void add_row(const Cells&... cells) {
    std::vector<std::string> row;
    row.reserve(sizeof...(cells));
    (row.push_back(format_cell(cells)), ...);
    add_row_strings(std::move(row));
  }

  void add_row_strings(std::vector<std::string> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return headers_.size(); }

  /// Prints an aligned ASCII table with a header separator line.
  void print(std::ostream& os) const;

  /// Prints RFC 4180 CSV: every header and cell goes through csv_escape,
  /// because labels such as "x=4, 1 port" or "G(n, 2n)" hold commas.
  void print_csv(std::ostream& os) const;

  /// Optional caption printed above the table by print().
  void set_caption(std::string caption) { caption_ = std::move(caption); }

 private:
  template <typename T>
  static std::string format_cell(const T& v) {
    std::ostringstream os;
    if constexpr (std::is_floating_point_v<T>) {
      os.precision(5);
      os << v;
    } else {
      os << v;
    }
    return os.str();
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::string caption_;
};

/// RFC 4180 CSV field escaping: a field containing a comma, double
/// quote, CR or LF is wrapped in double quotes with inner quotes
/// doubled; anything else passes through unchanged. Every CSV writer
/// (Table, the run report's CSV copy) routes its fields here.
[[nodiscard]] std::string csv_escape(std::string_view s);

/// Formats a cycle count with thousands separators for readability
/// ("12,345,678").
[[nodiscard]] std::string with_commas(std::uint64_t v);

}  // namespace dxbsp::util
