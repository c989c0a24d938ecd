// Evaluation-domain ("DFT") view of the ring R_q = F_q[x]/(x^(q-1) - 1).
//
// Because x^(q-1) - 1 splits into distinct linear factors over F_q, the map
//   coeffs  ->  (f(g^0), f(g^1), ..., f(g^(n-1)))       (g a generator)
// is a ring isomorphism R_q -> F_q^n: multiplication becomes pointwise.
// The client divides in this domain to recover a node's own factor, at
// the points g^i when it holds whole vectors (ClientFilter::
// RecoverFromShares, DESIGN.md §3). The encoder does not use it: one
// inverse transform per node costs more than the sparse coefficient-domain
// products it would save (ablation A1, DESIGN.md §4; bench_field).

#ifndef SSDB_GF_DFT_H_
#define SSDB_GF_DFT_H_

#include <vector>

#include "gf/ring.h"

namespace ssdb::gf {

// Values of a ring element at the points g^0 .. g^(n-1).
using EvalVector = std::vector<Elem>;

class Evaluator {
 public:
  explicit Evaluator(Ring ring);

  const Ring& ring() const { return ring_; }
  uint32_t n() const { return ring_.n(); }
  // Point i is generator^i.
  Elem point(uint32_t i) const { return points_[i]; }
  const std::vector<Elem>& points() const { return points_; }

  // Coefficients -> evaluations at all non-zero points. O(n^2).
  EvalVector Forward(const RingElem& coeffs) const;

  // Evaluations -> coefficients (inverse DFT). O(n^2).
  RingElem Inverse(const EvalVector& evals) const;

  // Evaluation vector of the monomial (x - t): entry i is g^i - t.
  EvalVector XMinusEvals(Elem t) const;

  // a *= b pointwise.
  void PointwiseMulInto(EvalVector* a, const EvalVector& b) const;

 private:
  Ring ring_;
  std::vector<Elem> points_;       // g^i
  std::vector<Elem> inv_points_;   // g^-i
  Elem n_inverse_;                 // (q-1)^-1 in F_q
};

}  // namespace ssdb::gf

#endif  // SSDB_GF_DFT_H_
