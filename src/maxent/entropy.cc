#include "maxent/entropy.h"

#include <cmath>

#include "util/check.h"

namespace logr {

double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

double BinaryEntropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
}

double KlDivergence(const std::vector<double>& p,
                    const std::vector<double>& q, double epsilon) {
  LOGR_CHECK(p.size() == q.size());
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    double qi = q[i] > epsilon ? q[i] : epsilon;
    d += p[i] * std::log(p[i] / qi);
  }
  return d;
}

}  // namespace logr
