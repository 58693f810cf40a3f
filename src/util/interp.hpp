// Table interpolation used by NLDM timing lookups and the 11x11 stress grid.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

namespace aapx {

/// Index i such that axis[i] <= x < axis[i+1], clamped so that [i, i+1] is a
/// valid segment; implements Liberty edge extrapolation.
inline std::size_t segment_index(const std::vector<double>& axis, double x) {
  if (axis.size() < 2) return 0;
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  auto idx = static_cast<std::size_t>(std::distance(axis.begin(), it));
  if (idx == 0) return 0;
  if (idx >= axis.size()) return axis.size() - 2;
  return idx - 1;
}

/// Linear interpolation (or edge extrapolation) at x between
/// (axis[seg], v0) and (axis[seg+1], v1).
inline double lerp_on(const std::vector<double>& axis, std::size_t seg,
                      double x, double v0, double v1) {
  const double x0 = axis[seg];
  const double x1 = axis[seg + 1];
  if (x1 == x0) return v0;
  const double t = (x - x0) / (x1 - x0);
  return v0 + t * (v1 - v0);
}

/// Piecewise-linear interpolation over a sorted axis. Values outside the axis
/// range are linearly extrapolated from the edge segment (Liberty semantics).
double interp1(const std::vector<double>& axis, const std::vector<double>& values,
               double x);

/// Liberty-style bilinear interpolation / edge extrapolation over a grid
/// whose entry (i, j) on (axis1[i], axis2[j]) is `at(i, j)`. The one copy of
/// the arithmetic: Table2D::lookup reads stored values through it, and the
/// degradation-aware library reads products of its factor rows.
template <typename At>
double bilinear(const std::vector<double>& axis1,
                const std::vector<double>& axis2, double x1, double x2,
                const At& at) {
  if (axis1.size() == 1 && axis2.size() == 1) return at(0, 0);
  if (axis1.size() == 1) {
    const std::size_t s2 = segment_index(axis2, x2);
    return lerp_on(axis2, s2, x2, at(0, s2), at(0, s2 + 1));
  }
  if (axis2.size() == 1) {
    const std::size_t s1 = segment_index(axis1, x1);
    return lerp_on(axis1, s1, x1, at(s1, 0), at(s1 + 1, 0));
  }
  const std::size_t s1 = segment_index(axis1, x1);
  const std::size_t s2 = segment_index(axis2, x2);
  const double v0 = lerp_on(axis2, s2, x2, at(s1, s2), at(s1, s2 + 1));
  const double v1 = lerp_on(axis2, s2, x2, at(s1 + 1, s2), at(s1 + 1, s2 + 1));
  return lerp_on(axis1, s1, x1, v0, v1);
}

/// 2-D table with Liberty-style bilinear interpolation / edge extrapolation.
/// Rows are indexed by axis1 (e.g. input slew), columns by axis2 (e.g. load).
class Table2D {
 public:
  Table2D() = default;
  Table2D(std::vector<double> axis1, std::vector<double> axis2,
          std::vector<double> values);  ///< values.size() == axis1*axis2, row-major

  double lookup(double x1, double x2) const;

  const std::vector<double>& axis1() const noexcept { return axis1_; }
  const std::vector<double>& axis2() const noexcept { return axis2_; }
  double at(std::size_t i, std::size_t j) const;
  bool empty() const noexcept { return values_.empty(); }

  /// Element-wise scale — used to derive aged tables from fresh ones.
  Table2D scaled(double factor) const;

 private:
  std::vector<double> axis1_;
  std::vector<double> axis2_;
  std::vector<double> values_;  // row-major: values_[i * axis2.size() + j]
};

}  // namespace aapx
