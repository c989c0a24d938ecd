#include "gf/ring.h"

#include "util/bitpack.h"
#include "util/logging.h"

namespace ssdb::gf {

RingElem Ring::One() const {
  RingElem one(n(), 0);
  one[0] = 1;
  return one;
}

RingElem Ring::Reduce(const Poly& f) const {
  RingElem out(n(), 0);
  for (size_t i = 0; i < f.coeffs.size(); ++i) {
    size_t slot = i % n();
    out[slot] = field_.Add(out[slot], f.coeffs[i]);
  }
  return out;
}

RingElem Ring::XMinus(Elem t) const {
  SSDB_DCHECK(n() >= 2);
  RingElem out(n(), 0);
  out[0] = field_.Neg(t);
  out[1] = 1;
  return out;
}

RingElem Ring::Add(const RingElem& a, const RingElem& b) const {
  SSDB_DCHECK(a.size() == n() && b.size() == n());
  RingElem out(n());
  for (uint32_t i = 0; i < n(); ++i) out[i] = field_.Add(a[i], b[i]);
  return out;
}

RingElem Ring::Sub(const RingElem& a, const RingElem& b) const {
  SSDB_DCHECK(a.size() == n() && b.size() == n());
  RingElem out(n());
  for (uint32_t i = 0; i < n(); ++i) out[i] = field_.Sub(a[i], b[i]);
  return out;
}

RingElem Ring::Neg(const RingElem& a) const {
  RingElem out(n());
  for (uint32_t i = 0; i < n(); ++i) out[i] = field_.Neg(a[i]);
  return out;
}

void Ring::AddInto(RingElem* a, const RingElem& b) const {
  SSDB_DCHECK(a->size() == n() && b.size() == n());
  for (uint32_t i = 0; i < n(); ++i) (*a)[i] = field_.Add((*a)[i], b[i]);
}

RingElem Ring::Mul(const RingElem& a, const RingElem& b) const {
  SSDB_DCHECK(a.size() == n() && b.size() == n());
  RingElem out(n(), 0);
  for (uint32_t i = 0; i < n(); ++i) {
    if (a[i] == 0) continue;
    for (uint32_t j = 0; j < n(); ++j) {
      if (b[j] == 0) continue;
      uint32_t k = i + j;
      if (k >= n()) k -= n();
      out[k] = field_.Add(out[k], field_.Mul(a[i], b[j]));
    }
  }
  return out;
}

RingElem Ring::MulXMinus(const RingElem& f, Elem t) const {
  SSDB_DCHECK(f.size() == n());
  // x*f is a cyclic right-shift of the coefficients (x * x^(n-1) = 1).
  RingElem out(n());
  Elem neg_t = field_.Neg(t);
  for (uint32_t i = 0; i < n(); ++i) {
    uint32_t prev = (i == 0) ? n() - 1 : i - 1;
    out[i] = field_.Add(f[prev], field_.Mul(neg_t, f[i]));
  }
  return out;
}

Elem Ring::Eval(const RingElem& f, Elem t) const {
  Elem acc = 0;
  for (size_t i = f.size(); i > 0; --i) {
    acc = field_.Add(field_.Mul(acc, t), f[i - 1]);
  }
  return acc;
}

namespace {

// sum_i coeff(i) * pow[i] over F_q. On prime fields every product is below
// 2^32 and there are n < 2^16 of them, so the sum fits in 64 bits and needs
// one reduction; extension fields go through Field ops term by term.
template <typename Coeff>
Elem DotPowers(const Field& field, const std::vector<Elem>& pow,
               Coeff coeff) {
  const uint32_t n = field.n();
  if (field.e() == 1) {
    uint64_t acc = 0;
    for (uint32_t i = 0; i < n; ++i) acc += uint64_t{coeff()} * pow[i];
    return static_cast<Elem>(acc % field.q());
  }
  Elem acc = 0;
  for (uint32_t i = 0; i < n; ++i) {
    acc = field.Add(acc, field.Mul(coeff(), pow[i]));
  }
  return acc;
}

}  // namespace

PowerTable Ring::Powers(Elem t) const {
  PowerTable table;
  table.pow.resize(n());
  Elem power = 1;
  for (uint32_t i = 0; i < n(); ++i) {
    table.pow[i] = power;
    power = field_.Mul(power, t);
  }
  return table;
}

Elem Ring::EvalAt(const PowerTable& powers, const RingElem& f) const {
  SSDB_DCHECK(f.size() == n() && powers.pow.size() == n());
  const Elem* next = f.data();
  return DotPowers(field_, powers.pow, [&] { return *next++; });
}

StatusOr<Elem> Ring::EvalAt(const PowerTable& powers,
                            std::string_view packed) const {
  SSDB_DCHECK(powers.pow.size() == n());
  SSDB_RETURN_IF_ERROR(CheckPackedLength(packed));
  BitCursor cursor(packed);
  const int bits = field_.bit_width();
  const Elem q = field_.q();
  bool out_of_range = false;
  // An out-of-range coefficient is replaced by 0 so extension-field Mul
  // never indexes past its tables; the result is discarded anyway.
  Elem value = DotPowers(field_, powers.pow, [&] {
    Elem c = cursor.Next(bits);
    if (c >= q) {
      out_of_range = true;
      return Elem{0};
    }
    return c;
  });
  if (out_of_range) {
    return Status::Corruption("ring element coefficient out of range");
  }
  return value;
}

Status Ring::EvalAtPoints(const std::vector<PowerTable>& tables,
                          std::string_view packed, RingElem* unpacked,
                          Elem* out) const {
  SSDB_RETURN_IF_ERROR(CheckPackedLength(packed));
  unpacked->resize(n());
  BitCursor cursor(packed);
  const int bits = field_.bit_width();
  const Elem q = field_.q();
  bool out_of_range = false;
  for (Elem& c : *unpacked) {
    c = cursor.Next(bits);
    out_of_range = out_of_range || c >= q;
  }
  if (out_of_range) {
    return Status::Corruption("ring element coefficient out of range");
  }
  for (size_t j = 0; j < tables.size(); ++j) {
    if (field_.e() != 1) {
      out[j] = EvalAt(tables[j], *unpacked);
      continue;
    }
    // Prime fields: one 64-bit sum below n * q^2 < 2^48, reduced once.
    const Elem* coeff = unpacked->data();
    const Elem* pow = tables[j].pow.data();
    uint64_t acc = 0;
    for (uint32_t i = 0; i < n(); ++i) acc += uint64_t{coeff[i]} * pow[i];
    out[j] = static_cast<Elem>(acc % q);
  }
  return Status::OK();
}

bool Ring::IsZero(const RingElem& f) const {
  for (Elem c : f) {
    if (c != 0) return false;
  }
  return true;
}

std::string Ring::Serialize(const RingElem& f) const {
  SSDB_DCHECK(f.size() == n());
  return PackVector(f, field_.bit_width());
}

Status Ring::CheckPackedLength(std::string_view data) const {
  if (data.size() < serialized_bytes()) {
    return Status::OutOfRange("ring element truncated: " +
                              std::to_string(data.size()) + " of " +
                              std::to_string(serialized_bytes()) + " bytes");
  }
  // Trailing bytes are rejected too: a server padding a share reply must
  // not go unnoticed.
  if (data.size() > serialized_bytes()) {
    return Status::Corruption("ring element has " +
                              std::to_string(data.size()) +
                              " bytes, expected " +
                              std::to_string(serialized_bytes()));
  }
  return Status::OK();
}

StatusOr<RingElem> Ring::Deserialize(std::string_view data) const {
  SSDB_RETURN_IF_ERROR(CheckPackedLength(data));
  SSDB_ASSIGN_OR_RETURN(RingElem out,
                        UnpackVector(data, field_.bit_width(), n()));
  for (Elem c : out) {
    if (!field_.IsValid(c)) {
      return Status::Corruption("ring element coefficient out of range");
    }
  }
  return out;
}

std::string Ring::ToString(const RingElem& f) const {
  Poly p{std::vector<Elem>(f.begin(), f.end())};
  PolyNormalize(&p);
  return PolyToString(field_, p);
}

}  // namespace ssdb::gf
