#include <gtest/gtest.h>

#include "gf/dft.h"
#include "gf/poly.h"
#include "gf/ring.h"
#include "util/bitpack.h"
#include "util/random.h"

namespace ssdb::gf {
namespace {

class RingTest : public ::testing::Test {
 protected:
  RingTest() : field_(*Field::Make(83)), ring_(field_) {}

  RingElem RandomElem(Random* rng) {
    RingElem f(ring_.n());
    for (auto& c : f) c = static_cast<Elem>(rng->Uniform(field_.q()));
    return f;
  }

  Field field_;
  Ring ring_;
};

TEST_F(RingTest, ReducePreservesEvaluationAtNonzeroPoints) {
  // The central correctness fact of the paper's encoding (DESIGN.md §2).
  Random rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    Poly f;
    int degree = 150 + static_cast<int>(rng.Uniform(100));  // > n = 82
    for (int i = 0; i <= degree; ++i) {
      f.coeffs.push_back(static_cast<Elem>(rng.Uniform(field_.q())));
    }
    RingElem reduced = ring_.Reduce(f);
    for (Elem t = 1; t < field_.q(); t += 7) {
      EXPECT_EQ(ring_.Eval(reduced, t), PolyEval(field_, f, t));
    }
  }
}

TEST_F(RingTest, MulMatchesPolynomialMulReduced) {
  Random rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    RingElem a = RandomElem(&rng);
    RingElem b = RandomElem(&rng);
    RingElem via_ring = ring_.Mul(a, b);
    Poly pa{std::vector<Elem>(a.begin(), a.end())};
    Poly pb{std::vector<Elem>(b.begin(), b.end())};
    RingElem via_poly = ring_.Reduce(PolyMul(field_, pa, pb));
    EXPECT_EQ(via_ring, via_poly);
  }
}

TEST_F(RingTest, MulXMinusMatchesGeneralMul) {
  Random rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    RingElem f = RandomElem(&rng);
    Elem t = static_cast<Elem>(rng.Uniform(field_.q()));
    EXPECT_EQ(ring_.MulXMinus(f, t), ring_.Mul(f, ring_.XMinus(t)));
  }
}

TEST_F(RingTest, AddSubNegConsistent) {
  Random rng(37);
  RingElem a = RandomElem(&rng);
  RingElem b = RandomElem(&rng);
  EXPECT_EQ(ring_.Sub(ring_.Add(a, b), b), a);
  EXPECT_EQ(ring_.Add(a, ring_.Neg(a)), ring_.Zero());
  RingElem acc = a;
  ring_.AddInto(&acc, b);
  EXPECT_EQ(acc, ring_.Add(a, b));
}

TEST_F(RingTest, SerializeRoundTrip) {
  Random rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    RingElem f = RandomElem(&rng);
    std::string bytes = ring_.Serialize(f);
    EXPECT_EQ(bytes.size(), ring_.serialized_bytes());
    auto back = ring_.Deserialize(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, f);
  }
}

TEST_F(RingTest, DeserializeRejectsOutOfRangeCoefficients) {
  // All-ones bits decode to 127 per 7-bit coefficient > 82: invalid.
  std::string bad(ring_.serialized_bytes(), '\xff');
  EXPECT_FALSE(ring_.Deserialize(bad).ok());
}

TEST_F(RingTest, PaperExampleFigureOne) {
  // Fig. 1: p=5, map {a:2, b:1, c:3}, tree c(b(a,b), c(a)).
  // f(root) = (x-3) * [(x-1)(x-2)(x-1)] * [(x-3)(x-2)]
  //         = (x-1)^2 (x-2)^2 (x-3)^2.
  Field f5 = *Field::Make(5);
  Ring ring5(f5);
  Poly unreduced = PolyXMinus(f5, 1);
  unreduced = PolyMul(f5, unreduced, PolyXMinus(f5, 1));
  unreduced = PolyMul(f5, unreduced, PolyXMinus(f5, 2));
  unreduced = PolyMul(f5, unreduced, PolyXMinus(f5, 2));
  unreduced = PolyMul(f5, unreduced, PolyXMinus(f5, 3));
  unreduced = PolyMul(f5, unreduced, PolyXMinus(f5, 3));
  RingElem root = ring5.Reduce(unreduced);
  // The root must contain a, b and c (evaluations vanish at 1, 2, 3) ...
  EXPECT_EQ(ring5.Eval(root, 1), 0u);
  EXPECT_EQ(ring5.Eval(root, 2), 0u);
  EXPECT_EQ(ring5.Eval(root, 3), 0u);
  // ... and at the unused point 4 equal the product of (4 - t_i):
  // (4-1)^2 (4-2)^2 (4-3)^2 = 9*4*1 = 36 = 1 (mod 5).
  EXPECT_EQ(ring5.Eval(root, 4), 1u);
}

class DftTest : public RingTest {};

TEST_F(DftTest, ForwardInverseRoundTrip) {
  Evaluator evaluator(ring_);
  Random rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    RingElem f = RandomElem(&rng);
    EvalVector evals = evaluator.Forward(f);
    EXPECT_EQ(evaluator.Inverse(evals), f);
  }
}

TEST_F(DftTest, ForwardMatchesHornerAtEachPoint) {
  Evaluator evaluator(ring_);
  Random rng(47);
  RingElem f = RandomElem(&rng);
  EvalVector evals = evaluator.Forward(f);
  for (uint32_t i = 0; i < ring_.n(); ++i) {
    EXPECT_EQ(evals[i], ring_.Eval(f, evaluator.point(i)));
  }
}

TEST_F(DftTest, PointwiseMulIsRingMul) {
  // The ring isomorphism: DFT(a*b) = DFT(a) .* DFT(b).
  Evaluator evaluator(ring_);
  Random rng(53);
  RingElem a = RandomElem(&rng);
  RingElem b = RandomElem(&rng);
  EvalVector ea = evaluator.Forward(a);
  EvalVector eb = evaluator.Forward(b);
  evaluator.PointwiseMulInto(&ea, eb);
  EXPECT_EQ(evaluator.Inverse(ea), ring_.Mul(a, b));
}

TEST_F(DftTest, XMinusEvalsMatchMonomial) {
  Evaluator evaluator(ring_);
  for (Elem t : {0u, 1u, 42u, 82u}) {
    EvalVector evals = evaluator.XMinusEvals(t);
    RingElem monomial = ring_.XMinus(t);
    for (uint32_t i = 0; i < ring_.n(); ++i) {
      EXPECT_EQ(evals[i], ring_.Eval(monomial, evaluator.point(i)));
    }
  }
}

TEST_F(DftTest, WorksOnSmallField) {
  Field f5 = *Field::Make(5);
  Ring ring5(f5);
  Evaluator evaluator(ring5);
  RingElem f = {3, 2, 3, 2};  // 2x^3+3x^2+2x+3
  EXPECT_EQ(evaluator.Inverse(evaluator.Forward(f)), f);
}

// The point-evaluation kernel (DESIGN.md §2) against the paper's two prime
// fields and an extension field, whose table is walked through Field ops.
struct KernelCase {
  uint32_t p;
  uint32_t e;
};

class KernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  KernelTest()
      : field_(*Field::Make(GetParam().p, GetParam().e)), ring_(field_) {}

  RingElem RandomElem(Random* rng) {
    RingElem f(ring_.n());
    for (auto& c : f) c = static_cast<Elem>(rng->Uniform(field_.q()));
    return f;
  }

  Field field_;
  Ring ring_;
};

TEST_P(KernelTest, PowerTableAndPackedEvalMatchHorner) {
  Random rng(GetParam().p * 100 + GetParam().e);
  std::vector<PowerTable> tables;
  for (Elem t = 0; t < field_.q(); ++t) tables.push_back(ring_.Powers(t));
  for (int trial = 0; trial < 10; ++trial) {
    RingElem f = RandomElem(&rng);
    if (trial == 0) f = ring_.Zero();
    if (trial == 1) f.assign(ring_.n(), field_.q() - 1);  // widest sums
    std::string bytes = ring_.Serialize(f);
    for (Elem t = 0; t < field_.q(); ++t) {
      Elem expected = ring_.Eval(f, t);
      EXPECT_EQ(ring_.EvalAt(tables[t], f), expected) << "t=" << t;
      auto packed = ring_.EvalAt(tables[t], bytes);
      ASSERT_TRUE(packed.ok()) << packed.status().ToString();
      EXPECT_EQ(*packed, expected) << "t=" << t;
    }
  }
}

TEST_P(KernelTest, WrongLengthSharesAreRejected) {
  Random rng(7);
  std::string bytes = ring_.Serialize(RandomElem(&rng));
  const PowerTable powers = ring_.Powers(2);
  std::string truncated = bytes.substr(0, bytes.size() - 1);
  EXPECT_EQ(ring_.Deserialize(truncated).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ring_.EvalAt(powers, truncated).status().code(),
            StatusCode::kOutOfRange);
  // One byte too long: a padded share reply must not pass as a share.
  std::string padded = bytes + '\0';
  EXPECT_TRUE(ring_.Deserialize(padded).status().IsCorruption());
  EXPECT_TRUE(ring_.EvalAt(powers, padded).status().IsCorruption());
}

TEST_P(KernelTest, OutOfRangeCoefficientIsCorruption) {
  // Every field here leaves packed codes >= q: p = 29 in 5 bits, p = 83
  // and 3^4 = 81 in 7 bits.
  ASSERT_LT(field_.q(), 1u << field_.bit_width());
  Random rng(11);
  for (uint32_t slot : {0u, 1u, ring_.n() / 2, ring_.n() - 1}) {
    std::vector<uint32_t> coeffs = RandomElem(&rng);
    coeffs[slot] = field_.q();
    std::string bad = PackVector(coeffs, field_.bit_width());
    EXPECT_TRUE(ring_.Deserialize(bad).status().IsCorruption());
    EXPECT_TRUE(ring_.EvalAt(ring_.Powers(3), bad).status().IsCorruption());
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, KernelTest,
                         ::testing::Values(KernelCase{29, 1}, KernelCase{83, 1},
                                           KernelCase{3, 4}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.p) + "e" +
                                  std::to_string(info.param.e);
                         });

}  // namespace
}  // namespace ssdb::gf
