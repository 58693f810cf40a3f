#include "util/interp.hpp"

#include <algorithm>
#include <stdexcept>

namespace aapx {

double interp1(const std::vector<double>& axis, const std::vector<double>& values,
               double x) {
  if (axis.empty() || axis.size() != values.size()) {
    throw std::invalid_argument("interp1: axis/values size mismatch");
  }
  if (axis.size() == 1) return values[0];
  const std::size_t s = segment_index(axis, x);
  return lerp_on(axis, s, x, values[s], values[s + 1]);
}

Table2D::Table2D(std::vector<double> axis1, std::vector<double> axis2,
                 std::vector<double> values)
    : axis1_(std::move(axis1)), axis2_(std::move(axis2)), values_(std::move(values)) {
  if (axis1_.empty() || axis2_.empty()) {
    throw std::invalid_argument("Table2D: empty axis");
  }
  if (values_.size() != axis1_.size() * axis2_.size()) {
    throw std::invalid_argument("Table2D: values size mismatch");
  }
  if (!std::is_sorted(axis1_.begin(), axis1_.end()) ||
      !std::is_sorted(axis2_.begin(), axis2_.end())) {
    throw std::invalid_argument("Table2D: axes must be sorted ascending");
  }
}

double Table2D::at(std::size_t i, std::size_t j) const {
  if (i >= axis1_.size() || j >= axis2_.size()) {
    throw std::out_of_range("Table2D::at");
  }
  return values_[i * axis2_.size() + j];
}

double Table2D::lookup(double x1, double x2) const {
  if (values_.empty()) throw std::logic_error("Table2D::lookup on empty table");
  const std::size_t n2 = axis2_.size();
  return bilinear(axis1_, axis2_, x1, x2, [&](std::size_t i, std::size_t j) {
    return values_[i * n2 + j];
  });
}

Table2D Table2D::scaled(double factor) const {
  Table2D out = *this;
  for (auto& v : out.values_) v *= factor;
  return out;
}

}  // namespace aapx
