// The quotient ring R_q = F_q[x]/(x^(q-1) - 1) in which all node encodings
// live (fig. 1(d)). Elements are dense coefficient vectors of fixed length
// n = q-1.
//
// Two facts drive the design (see DESIGN.md §2):
//  * x^n = 1, so multiplication by x is a cyclic shift — multiplying by the
//    monomial (x - t) is O(n).
//  * x^n - 1 = prod_{t != 0} (x - t), so R_q is isomorphic to F_q^n via
//    evaluation at the non-zero points; reduction preserves those
//    evaluations, which is why containment testing on reduced shares works.

#ifndef SSDB_GF_RING_H_
#define SSDB_GF_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gf/field.h"
#include "gf/poly.h"
#include "util/statusor.h"

namespace ssdb::gf {

// Always has size Ring::n(); index i is the coefficient of x^i.
using RingElem = std::vector<Elem>;

// t^0 .. t^(n-1) for one evaluation point t, built by Ring::Powers. A
// distinct type so a table and a ring element cannot be swapped at a call
// site.
struct PowerTable {
  std::vector<Elem> pow;
};

class Ring {
 public:
  explicit Ring(Field field) : field_(std::move(field)) {}

  const Field& field() const { return field_; }
  uint32_t n() const { return field_.n(); }
  // Serialized size: n coefficients of bit_width bits (the paper's
  // "(p^e-1) log2(p^e) bits").
  size_t serialized_bytes() const {
    return (static_cast<size_t>(n()) * field_.bit_width() + 7) / 8;
  }

  RingElem Zero() const { return RingElem(n(), 0); }
  RingElem One() const;

  // Reduction of an arbitrary polynomial: x^k folds onto x^(k mod n).
  RingElem Reduce(const Poly& f) const;

  // The reduced monomial (x - t).
  RingElem XMinus(Elem t) const;

  RingElem Add(const RingElem& a, const RingElem& b) const;
  RingElem Sub(const RingElem& a, const RingElem& b) const;
  RingElem Neg(const RingElem& a) const;
  void AddInto(RingElem* a, const RingElem& b) const;

  // Full cyclic convolution, O(n^2) worst case; zero coefficients of either
  // operand are skipped, so products of sparse node polynomials are cheap.
  RingElem Mul(const RingElem& a, const RingElem& b) const;

  // (x - t) * f via the cyclic-shift identity, O(n).
  RingElem MulXMinus(const RingElem& f, Elem t) const;

  // Horner evaluation at a point. For t != 0 this equals the evaluation of
  // any preimage polynomial. For one-off points; many shares at one point
  // go through a PowerTable.
  Elem Eval(const RingElem& f, Elem t) const;

  // Point-evaluation kernel (DESIGN.md §2): f(t) = sum_i f_i * t^i as a dot
  // product against Powers(t), so the table is built once per point and
  // every share evaluated at that point costs n multiply-adds with a single
  // reduction on prime fields. Both overloads equal Eval(f, t).
  PowerTable Powers(Elem t) const;
  Elem EvalAt(const PowerTable& powers, const RingElem& f) const;
  // Evaluates Serialize()d share bytes in place, without building a
  // RingElem; rejects them exactly as Deserialize would.
  StatusOr<Elem> EvalAt(const PowerTable& powers,
                        std::string_view packed) const;
  // The grid kernel (DESIGN.md §6): unpacks Serialize()d share bytes once
  // into `unpacked`, rejecting them exactly as Deserialize would, then sets
  // out[j] to the share's value at the point of tables[j] — one unpack and
  // one dot product per point, where EvalAt(·, packed) unpacks per point.
  Status EvalAtPoints(const std::vector<PowerTable>& tables,
                      std::string_view packed, RingElem* unpacked,
                      Elem* out) const;

  bool IsZero(const RingElem& f) const;

  // Bit-packed serialization (n * bit_width bits, little-endian).
  // Deserialize requires exactly serialized_bytes(): OutOfRange when
  // shorter, Corruption when longer or when a coefficient is >= q.
  std::string Serialize(const RingElem& f) const;
  StatusOr<RingElem> Deserialize(std::string_view data) const;

  std::string ToString(const RingElem& f) const;

 private:
  Status CheckPackedLength(std::string_view data) const;

  Field field_;
};

}  // namespace ssdb::gf

#endif  // SSDB_GF_RING_H_
