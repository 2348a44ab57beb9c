#include "common/matrix.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/gemm_internal.h"
#include "common/parallel.h"
#include "common/random.h"
#include "nn/activation.h"
#include "obs/metrics.h"

namespace magneto {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m.At(2, 3), 0.0f);
  EXPECT_EQ(m.ShapeString(), "[3 x 4]");
}

TEST(MatrixTest, ConstructionFromData) {
  Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 4.0f);
}

TEST(MatrixTest, RowAccess) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1), (std::vector<float>{4, 5, 6}));
  m.SetRow(0, {9, 8, 7});
  EXPECT_FLOAT_EQ(m.At(0, 2), 7.0f);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {10, 20, 30, 40});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.At(1, 1), 44.0f);
  a.SubInPlace(b);
  EXPECT_FLOAT_EQ(a.At(1, 1), 4.0f);
  a.MulInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 1), 40.0f);
  a.Scale(0.5f);
  EXPECT_FLOAT_EQ(a.At(0, 0), 5.0f);
}

TEST(MatrixTest, Axpy) {
  Matrix a(1, 3, {1, 1, 1});
  Matrix b(1, 3, {2, 4, 6});
  a.Axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(a.At(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(a.At(0, 2), 4.0f);
}

TEST(MatrixTest, Transposed) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t.At(2, 1), 6.0f);
  EXPECT_FLOAT_EQ(t.At(0, 1), 4.0f);
}

TEST(MatrixTest, RowSlice) {
  Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix s = m.RowSlice(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_FLOAT_EQ(s.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.At(1, 1), 6.0f);
}

TEST(MatrixTest, VStack) {
  Matrix a(1, 2, {1, 2});
  Matrix b(2, 2, {3, 4, 5, 6});
  Matrix s = VStack(a, b);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_FLOAT_EQ(s.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(s.At(2, 0), 5.0f);
  // Empty operands pass through.
  Matrix empty;
  EXPECT_EQ(VStack(empty, b).rows(), 2u);
  EXPECT_EQ(VStack(a, Matrix()).rows(), 1u);
}

TEST(MatrixTest, Reductions) {
  Matrix m(2, 2, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(m.SumOfSquares(), 30.0f);
  EXPECT_FLOAT_EQ(m.AbsMax(), 4.0f);
  Matrix mean = m.ColMean();
  EXPECT_EQ(mean.rows(), 1u);
  EXPECT_FLOAT_EQ(mean.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(mean.At(0, 1), -3.0f);
  Matrix sum = m.ColSum();
  EXPECT_FLOAT_EQ(sum.At(0, 0), 4.0f);
}

TEST(MatMulTest, SmallKnownProduct) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix id(2, 2, {1, 0, 0, 1});
  Matrix c = MatMul(a, id);
  EXPECT_FLOAT_EQ(c.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 4.0f);
}

TEST(MatMulTest, TransAVariantMatchesExplicitTranspose) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 4, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
  Matrix expected = MatMul(a.Transposed(), b);
  Matrix got = MatMulTransA(a, b);
  ASSERT_TRUE(got.SameShape(expected));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_FLOAT_EQ(got.data()[i], expected.data()[i]) << "index " << i;
  }
}

TEST(MatMulTest, TransBVariantMatchesExplicitTranspose) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(4, 3, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
  Matrix expected = MatMul(a, b.Transposed());
  Matrix got = MatMulTransB(a, b);
  ASSERT_TRUE(got.SameShape(expected));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_FLOAT_EQ(got.data()[i], expected.data()[i]) << "index " << i;
  }
}

TEST(MatMulTest, LargeSizesCrossTileBoundaries) {
  // Exercise the tiled kernel across tile edges (tile = 64).
  const size_t m = 70, k = 130, n = 65;
  Matrix a(m, k), b(k, n);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>((i % 7)) - 3.0f;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>((i % 5)) - 2.0f;
  }
  Matrix c = MatMul(a, b);
  // Spot-check a few entries against a reference dot product.
  for (size_t probe : {size_t{0}, size_t{m * n / 2}, size_t{m * n - 1}}) {
    const size_t r = probe / n, col = probe % n;
    double expect = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
      expect += static_cast<double>(a.At(r, kk)) * b.At(kk, col);
    }
    EXPECT_NEAR(c.At(r, col), expect, 1e-3) << "at " << r << "," << col;
  }
}

TEST(MatMulTest, ParallelPathMatchesSerialSemantics) {
  // Large enough to cross the threading threshold; results must equal a
  // row-by-row reference since row partitioning never splits accumulation.
  const size_t m = 256, k = 256, n = 256;  // 16.7M MACs > threshold
  Matrix a(m, k), b(k, n);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>((i * 2654435761u) % 17) - 8.0f;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>((i * 40503u) % 13) - 6.0f;
  }
  Matrix c = MatMul(a, b);
  // Spot-check 16 scattered entries against direct dot products.
  for (size_t probe = 0; probe < 16; ++probe) {
    const size_t r = (probe * 911) % m;
    const size_t col = (probe * 577) % n;
    double expect = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
      expect += static_cast<double>(a.At(r, kk)) * b.At(kk, col);
    }
    EXPECT_NEAR(c.At(r, col), expect, std::fabs(expect) * 1e-5 + 1e-2);
  }
  // Determinism across calls (no cross-thread accumulation races).
  Matrix c2 = MatMul(a, b);
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_FLOAT_EQ(c.data()[i], c2.data()[i]);
  }
}

// ---- Packed GEMM kernels vs the portable oracle -----------------------------
//
// Every packed instantiation the host supports must reproduce the portable
// kernel bit for bit (memcmp, not EXPECT_NEAR): the per-element accumulation
// order is the contract that keeps bundles identical across ISAs.

using gemm_internal::GemmIsa;

std::vector<GemmIsa> PackedIsas() {
  std::vector<GemmIsa> isas;
  for (GemmIsa isa : {GemmIsa::kAvx2, GemmIsa::kAvx512f}) {
    if (gemm_internal::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

using GemmFn = void (*)(GemmIsa, const Matrix&, const Matrix&, Matrix*);

/// One of the three GEMMs, with the operand shapes it takes for an
/// m x n output over k.
struct GemmKind {
  const char* name;
  GemmFn fn;
  bool trans_a;
  bool trans_b;
};

constexpr GemmKind kGemmKinds[] = {
    {"MatMul",
     [](GemmIsa isa, const Matrix& a, const Matrix& b, Matrix* out) {
       gemm_internal::MatMulIntoWith(isa, a, b, out);
     },
     false, false},
    {"TransA", gemm_internal::MatMulTransAIntoWith, true, false},
    {"TransB",
     [](GemmIsa isa, const Matrix& a, const Matrix& b, Matrix* out) {
       gemm_internal::MatMulTransBIntoWith(isa, a, b, out);
     },
     false, true},
};

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return m;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  // An empty Matrix may hold a null data pointer, which memcmp must not see.
  return a.SameShape(b) &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Runs `kind` through the portable kernel and every packed instantiation
/// and expects identical bits. The packed output buffer starts out holding
/// NaNs of the right shape, so an element the kernel forgets to store shows.
void ExpectPackedMatchesPortable(const GemmKind& kind, const Matrix& a,
                                 const Matrix& b, const std::string& label) {
  Matrix want;
  kind.fn(GemmIsa::kPortable, a, b, &want);
  for (GemmIsa isa : PackedIsas()) {
    Matrix got(want.rows(), want.cols());
    got.Fill(std::numeric_limits<float>::quiet_NaN());
    kind.fn(isa, a, b, &got);
    EXPECT_TRUE(SameBits(got, want))
        << kind.name << " " << label << " isa " << static_cast<int>(isa);
  }
}

/// Operands of `kind` for an m x n output over k.
std::pair<Matrix, Matrix> Operands(const GemmKind& kind, size_t m, size_t k,
                                   size_t n, Rng* rng) {
  Matrix a = kind.trans_a ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
  Matrix b = kind.trans_b ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
  return {std::move(a), std::move(b)};
}

std::string ShapeLabel(size_t m, size_t k, size_t n) {
  char label[64];
  std::snprintf(label, sizeof(label), "m=%zu k=%zu n=%zu", m, k, n);
  return label;
}

TEST(MatMulKernelTest, ShapeSweepBitIdenticalToPortable) {
  Rng rng(41);
  for (const GemmKind& kind : kGemmKinds) {
    for (size_t m : {1, 3, 15, 16, 17, 64, 130}) {
      for (size_t k : {1, 3, 4, 63, 64, 65, 130, 1024}) {
        for (size_t n : {1, 15, 17, 33, 512}) {
          auto [a, b] = Operands(kind, m, k, n, &rng);
          ExpectPackedMatchesPortable(kind, a, b, ShapeLabel(m, k, n));
        }
      }
    }
  }
}

/// The NaN this CPU makes from an invalid operation (x86: sign bit set).
float DefaultNaN() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// Overwrites scattered elements of `x` with values drawn from `specials`.
void Scatter(const std::vector<float>& specials, Matrix* x, Rng* rng) {
  for (size_t i = 0; i < x->size(); i += 1 + rng->Index(29)) {
    x->data()[i] = specials[rng->Index(specials.size())];
  }
}

TEST(MatMulKernelTest, NonFiniteInputsBitIdenticalToPortable) {
  // +-Inf and NaN scattered through both operands: Inf - Inf and 0 * Inf
  // make fresh NaNs mid-accumulation, which must land in the same elements
  // with the same bits.
  const std::vector<float> specials = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), DefaultNaN(), 0.0f};
  Rng rng(43);
  for (const GemmKind& kind : kGemmKinds) {
    for (size_t m : {3, 17, 64}) {
      for (size_t k : {3, 65, 130}) {
        for (size_t n : {15, 33}) {
          auto [a, b] = Operands(kind, m, k, n, &rng);
          Scatter(specials, &a, &rng);
          Scatter(specials, &b, &rng);
          ExpectPackedMatchesPortable(kind, a, b, ShapeLabel(m, k, n));
        }
      }
    }
  }
}

TEST(MatMulKernelTest, ForeignNaNPayloadStaysNaN) {
  // When an input NaN whose bits differ from DefaultNaN() meets a NaN made
  // mid-accumulation, IEEE 754 leaves open which payload an add returns; on
  // x86 it is the first source operand, and the compiler picks the operand
  // order of a commutative add, in the portable kernel as much as in the
  // packed one. Every other element must still match bit for bit, and NaN
  // elements must be NaN in both.
  const std::vector<float> specials = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(), 0.0f};
  Rng rng(61);
  for (const GemmKind& kind : kGemmKinds) {
    auto [a, b] = Operands(kind, 64, 130, 33, &rng);
    Scatter(specials, &a, &rng);
    Scatter(specials, &b, &rng);
    Matrix want;
    kind.fn(GemmIsa::kPortable, a, b, &want);
    for (GemmIsa isa : PackedIsas()) {
      Matrix got;
      kind.fn(isa, a, b, &got);
      ASSERT_TRUE(got.SameShape(want));
      for (size_t i = 0; i < want.size(); ++i) {
        const float w = want.data()[i], g = got.data()[i];
        if (std::isnan(w)) {
          EXPECT_TRUE(std::isnan(g)) << kind.name << " element " << i;
        } else {
          EXPECT_EQ(std::memcmp(&w, &g, sizeof(float)), 0)
              << kind.name << " element " << i;
        }
      }
    }
  }
}

TEST(MatMulKernelTest, ZeroSizedDimensions) {
  Rng rng(47);
  for (const GemmKind& kind : kGemmKinds) {
    for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{0, 5, 7},
                           {17, 0, 7},
                           {17, 5, 0},
                           {0, 0, 0}}) {
      auto [a, b] = Operands(kind, m, k, n, &rng);
      ExpectPackedMatchesPortable(kind, a, b, ShapeLabel(m, k, n));
      Matrix out;
      kind.fn(GemmIsa::kPortable, a, b, &out);
      EXPECT_EQ(out.rows(), m);
      EXPECT_EQ(out.cols(), n);
      // k == 0 is an empty sum: every element is +0.
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(std::signbit(out.data()[i]), false);
        EXPECT_EQ(out.data()[i], 0.0f);
      }
    }
  }
}

TEST(MatMulKernelTest, ThreadCountInvariant) {
  // Chunks split output column panels; no element is accumulated by two
  // chunks, so the lane count cannot change a bit.
  const size_t saved_threads = ParallelThreads();
  Rng rng(53);
  for (const GemmKind& kind : kGemmKinds) {
    auto [a, b] = Operands(kind, 64, 1024, 512, &rng);
    for (GemmIsa isa : PackedIsas()) {
      SetParallelThreads(1);
      Matrix serial;
      kind.fn(isa, a, b, &serial);
      SetParallelThreads(4);
      Matrix parallel;
      kind.fn(isa, a, b, &parallel);
      EXPECT_TRUE(SameBits(serial, parallel)) << kind.name;
    }
  }
  SetParallelThreads(saved_threads);
}

TEST(MatMulKernelTest, PublicEntryPointsMatchPortableAcrossCutOver) {
  // Batches just below, at and above the packed cut-over all produce the
  // portable bits through the public API.
  Rng rng(59);
  for (size_t m : {gemm_internal::kPackedMinRows - 1,
                   gemm_internal::kPackedMinRows,
                   gemm_internal::kPackedMinRows + 1}) {
    const size_t k = 80, n = 130;
    Matrix a = RandomMatrix(m, k, &rng);
    Matrix b = RandomMatrix(k, n, &rng);
    Matrix bt = b.Transposed();
    Matrix want;
    gemm_internal::MatMulIntoWith(GemmIsa::kPortable, a, b, &want);
    EXPECT_TRUE(SameBits(MatMul(a, b), want)) << "MatMul m=" << m;
    gemm_internal::MatMulTransBIntoWith(GemmIsa::kPortable, a, bt, &want);
    EXPECT_TRUE(SameBits(MatMulTransB(a, bt), want)) << "TransB m=" << m;
    gemm_internal::MatMulTransAIntoWith(GemmIsa::kPortable, a, a, &want);
    EXPECT_TRUE(SameBits(MatMulTransA(a, a), want)) << "TransA m=" << m;
  }
}

// ---- Accumulating TransA (out += a^T b) -------------------------------------
//
// The accumulating form must give the bits of TransA into a temporary
// followed by AddInPlace, through every kernel and across the cut-over.

std::vector<GemmIsa> AllIsas() {
  std::vector<GemmIsa> isas = PackedIsas();
  isas.insert(isas.begin(), GemmIsa::kPortable);
  return isas;
}

/// Expects MatMulTransAAccumulateWith(isa) on a copy of `init` to match the
/// portable TransA plus AddInPlace, for every kernel.
void ExpectAccumulateMatchesTwoPass(const Matrix& a, const Matrix& b,
                                    const Matrix& init,
                                    const std::string& label) {
  Matrix product;
  gemm_internal::MatMulTransAIntoWith(GemmIsa::kPortable, a, b, &product);
  Matrix want = init;
  want.AddInPlace(product);
  for (GemmIsa isa : AllIsas()) {
    Matrix got = init;
    gemm_internal::MatMulTransAAccumulateWith(isa, a, b, &got);
    EXPECT_TRUE(SameBits(got, want))
        << "accumulate " << label << " isa " << static_cast<int>(isa);
  }
}

TEST(MatMulKernelTest, AccumulateShapeSweepMatchesTwoPass) {
  Rng rng(67);
  const GemmKind& trans_a = kGemmKinds[1];
  for (size_t m : {1, 3, 15, 16, 17, 64, 130}) {
    for (size_t k : {0, 1, 3, 4, 63, 64, 65, 130, 1024}) {
      for (size_t n : {1, 15, 17, 33, 512}) {
        auto [a, b] = Operands(trans_a, m, k, n, &rng);
        Matrix init = RandomMatrix(m, n, &rng);
        // Signed zeros in the output: -0 + (+0 sum) must become +0.
        Scatter({0.0f, -0.0f}, &init, &rng);
        ExpectAccumulateMatchesTwoPass(a, b, init, ShapeLabel(m, k, n));
      }
    }
  }
}

TEST(MatMulKernelTest, AccumulateNonFiniteMatchesTwoPass) {
  // Specials in both operands and in the accumulator: Inf + -Inf makes a
  // fresh NaN at the final add as well as mid-sum.
  const std::vector<float> specials = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), DefaultNaN(), 0.0f, -0.0f};
  Rng rng(71);
  const GemmKind& trans_a = kGemmKinds[1];
  for (size_t m : {3, 17, 64}) {
    for (size_t k : {3, 65, 130}) {
      for (size_t n : {15, 33}) {
        auto [a, b] = Operands(trans_a, m, k, n, &rng);
        Matrix init = RandomMatrix(m, n, &rng);
        Scatter(specials, &a, &rng);
        Scatter(specials, &b, &rng);
        Scatter(specials, &init, &rng);
        ExpectAccumulateMatchesTwoPass(a, b, init, ShapeLabel(m, k, n));
      }
    }
  }
}

TEST(MatMulKernelTest, AccumulateThreadCountInvariant) {
  const size_t saved_threads = ParallelThreads();
  Rng rng(73);
  auto [a, b] = Operands(kGemmKinds[1], 512, 64, 1024, &rng);
  const Matrix init = RandomMatrix(512, 1024, &rng);
  for (GemmIsa isa : AllIsas()) {
    SetParallelThreads(1);
    Matrix serial = init;
    gemm_internal::MatMulTransAAccumulateWith(isa, a, b, &serial);
    SetParallelThreads(4);
    Matrix parallel = init;
    gemm_internal::MatMulTransAAccumulateWith(isa, a, b, &parallel);
    EXPECT_TRUE(SameBits(serial, parallel)) << static_cast<int>(isa);
  }
  SetParallelThreads(saved_threads);
}

TEST(MatMulKernelTest, AccumulatePublicEntryPointMatchesAcrossCutOver) {
  // Batches (rows of a) just below, at and above the packed cut-over.
  Rng rng(79);
  for (size_t k : {gemm_internal::kPackedMinRows - 1,
                   gemm_internal::kPackedMinRows,
                   gemm_internal::kPackedMinRows + 1}) {
    const size_t m = 80, n = 130;
    Matrix a = RandomMatrix(k, m, &rng);
    Matrix b = RandomMatrix(k, n, &rng);
    Matrix want = RandomMatrix(m, n, &rng);
    Matrix got = want;
    Matrix product;
    MatMulTransAInto(a, b, &product);
    want.AddInPlace(product);
    MatMulTransAAccumulate(a, b, &got);
    EXPECT_TRUE(SameBits(got, want)) << "batch " << k;
  }
}

// ---- Column-block kernel (MatMul below kPackedMinRows) ---------------------
//
// Every instantiation of the column-block kernel, kPortable's baseline one
// included, must reproduce the portable oracle bit for bit at every lane
// count: ragged quads and 64-wide k tiles, partial vectors and partial
// chunks, and non-finite operands.

/// Runs the column-block kernel for every supported ISA at 1, 3 and 4
/// lanes on random operands of every (m, k, n) in the sweep, with `specials`
/// scattered through both, and expects the oracle's bits.
void ExpectColumnKernelMatchesPortable(const std::vector<size_t>& ks,
                                       const std::vector<size_t>& ns,
                                       const std::vector<float>& specials) {
  const size_t saved_threads = ParallelThreads();
  Rng rng(83);
  for (size_t k : ks) {
    for (size_t n : ns) {
      Matrix b = RandomMatrix(k, n, &rng);
      if (!specials.empty()) Scatter(specials, &b, &rng);
      std::vector<std::pair<Matrix, Matrix>> cases;  // (a, oracle) per m
      for (size_t m = 1; m < gemm_internal::kPackedMinRows; ++m) {
        Matrix a = RandomMatrix(m, k, &rng);
        if (!specials.empty()) Scatter(specials, &a, &rng);
        Matrix want;
        gemm_internal::MatMulIntoWith(GemmIsa::kPortable, a, b, &want);
        cases.emplace_back(std::move(a), std::move(want));
      }
      for (size_t lanes : {1, 3, 4}) {
        SetParallelThreads(lanes);
        for (const auto& [a, want] : cases) {
          for (GemmIsa isa : AllIsas()) {
            Matrix got(want.rows(), want.cols());
            got.Fill(std::numeric_limits<float>::quiet_NaN());
            gemm_internal::MatMulColumnsIntoWith(isa, a, b, &got);
            ASSERT_TRUE(SameBits(got, want))
                << ShapeLabel(a.rows(), k, n) << " isa "
                << static_cast<int>(isa) << " lanes " << lanes;
          }
        }
      }
    }
  }
  SetParallelThreads(saved_threads);
}

TEST(MatMulKernelTest, ColumnKernelSmallBatchSweepBitIdenticalToPortable) {
  ExpectColumnKernelMatchesPortable({1, 3, 4, 63, 64, 65, 80, 130, 1024},
                                    {1, 15, 16, 17, 127, 128, 129, 512, 1024},
                                    {});
}

TEST(MatMulKernelTest, ColumnKernelNonFiniteInputsBitIdenticalToPortable) {
  // NaN, +-Inf and signed zeros in both operands: fresh NaNs mid-sum, and
  // -0 products added to the +0 start.
  ExpectColumnKernelMatchesPortable(
      {3, 65, 130}, {15, 17, 129},
      {std::numeric_limits<float>::infinity(),
       -std::numeric_limits<float>::infinity(), DefaultNaN(), 0.0f, -0.0f});
}

TEST(MatMulKernelTest, ColumnKernelZeroSizedDimensions) {
  Rng rng(89);
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{0, 5, 7},
                         {3, 0, 7},
                         {3, 5, 0}}) {
    const Matrix a = RandomMatrix(m, k, &rng), b = RandomMatrix(k, n, &rng);
    for (GemmIsa isa : AllIsas()) {
      Matrix out;
      gemm_internal::MatMulColumnsIntoWith(isa, a, b, &out);
      EXPECT_EQ(out.rows(), m);
      EXPECT_EQ(out.cols(), n);
      // k == 0 is an empty sum: every element is +0.
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(std::signbit(out.data()[i]), false);
        EXPECT_EQ(out.data()[i], 0.0f);
      }
    }
  }
}

// ---- Weights in 128-column panels (Layout::kPanels) ------------------------
//
// Every kernel that reads or writes a weight must give, on the panel copy,
// the bits the portable oracle gives on the row-major weights.

Matrix Panels(const Matrix& row_major) {
  Matrix out(row_major.rows(), row_major.cols());
  RowMajorToPanels(row_major.rows(), row_major.cols(), row_major.data(),
                   out.data());
  return out;
}

Matrix RowMajor(const Matrix& panels) {
  Matrix out(panels.rows(), panels.cols());
  PanelsToRowMajor(panels.rows(), panels.cols(), panels.data(), out.data());
  return out;
}

TEST(PanelLayoutTest, RoundTripsAndAddressesEveryElement) {
  Rng rng(97);
  for (auto [rows, cols] : {std::pair<size_t, size_t>{7, 300},
                            {3, 128},
                            {2, 129},
                            {5, 257},
                            {4, 1},
                            {0, 300},
                            {3, 0}}) {
    const Matrix w = RandomMatrix(rows, cols, &rng);
    const Matrix p = Panels(w);
    EXPECT_TRUE(SameBits(RowMajor(p), w)) << rows << "x" << cols;
    const gemm_internal::PanelIndex index(rows, cols, Layout::kPanels);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(p.data()[index.Offset(r, c)], w.At(r, c))
            << rows << "x" << cols << " (" << r << ", " << c << ")";
      }
    }
    // At most one panel wide, the two layouts are the same bytes.
    if (cols <= kPanelColumns) {
      EXPECT_TRUE(SameBits(p, w));
    }
  }
}

TEST(PanelLayoutTest, MatrixStorageIsCacheLineAligned) {
  for (auto [rows, cols] : {std::pair<size_t, size_t>{1, 1},
                            {1, 80},
                            {1024, 512},
                            {3, 7}}) {
    const Matrix m(rows, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u)
        << rows << "x" << cols;
    Matrix copy = m;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.data()) % 64, 0u);
  }
}

TEST(MatMulKernelTest, PanelColumnKernelBitIdenticalToPortable) {
  // The batch-1 path: m = 1..15 through the column-block kernel on the
  // backbone's layer shapes and ragged ones (a last panel of 44 or 1
  // columns, chunks that straddle a panel edge), at 1 and 4 lanes, every
  // instantiation, against the oracle on the row-major weights.
  const size_t saved_threads = ParallelThreads();
  Rng rng(101);
  for (auto [k, n] : {std::pair<size_t, size_t>{80, 1024},
                      {1024, 512},
                      {512, 128},
                      {64, 128},
                      {7, 300},
                      {1024, 257}}) {
    const Matrix w = RandomMatrix(k, n, &rng);
    const Matrix p = Panels(w);
    for (size_t m = 1; m < gemm_internal::kPackedMinRows; ++m) {
      const Matrix a = RandomMatrix(m, k, &rng);
      Matrix want;
      gemm_internal::MatMulIntoWith(GemmIsa::kPortable, a, w, &want);
      for (size_t lanes : {1, 4}) {
        SetParallelThreads(lanes);
        for (GemmIsa isa : AllIsas()) {
          Matrix got(m, n);
          got.Fill(std::numeric_limits<float>::quiet_NaN());
          gemm_internal::MatMulColumnsIntoWith(isa, a, p, &got,
                                               Layout::kPanels);
          ASSERT_TRUE(SameBits(got, want))
              << ShapeLabel(m, k, n) << " isa " << static_cast<int>(isa)
              << " lanes " << lanes;
        }
        Matrix got;
        MatMulInto(a, p, &got, Layout::kPanels);
        ASSERT_TRUE(SameBits(got, want))
            << "MatMulInto " << ShapeLabel(m, k, n) << " lanes " << lanes;
      }
    }
  }
  SetParallelThreads(saved_threads);
}

// ---- The column-block kernel's bias + ReLU store ---------------------------
//
// With a bias row and `relu`, the column-block kernel stores what the oracle
// followed by Linear::Forward's bias loop and then Relu::Forward give: the
// same two operations per element, in the same order.

/// The oracle's a * b, plus `bias` on every row as Linear::Forward adds it,
/// then Relu::Forward when `relu`.
Matrix BiasReluOracle(const Matrix& a, const Matrix& b, const Matrix& bias,
                      bool relu) {
  Matrix out;
  gemm_internal::MatMulIntoWith(GemmIsa::kPortable, a, b, &out);
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.RowPtr(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] += bias.data()[c];
  }
  if (!relu) return out;
  Matrix clamped;
  nn::Relu().Forward(out, /*training=*/false, /*state=*/nullptr, &clamped);
  return clamped;
}

/// Every instantiation at 1, 3 and 4 lanes, m 1-15, both weight layouts and
/// both `relu` settings, against BiasReluOracle; `specials` are scattered
/// through the input, the weights and the bias. MatMulBiasInto is checked
/// too, at m up to 20 so it crosses the packed cut-over.
void ExpectEpilogueMatchesOracle(const std::vector<size_t>& ks,
                                 const std::vector<size_t>& ns,
                                 const std::vector<float>& specials) {
  const size_t saved_threads = ParallelThreads();
  Rng rng(103);
  for (size_t k : ks) {
    for (size_t n : ns) {
      Matrix b = RandomMatrix(k, n, &rng);
      Matrix bias = RandomMatrix(1, n, &rng);
      if (!specials.empty()) {
        Scatter(specials, &b, &rng);
        Scatter(specials, &bias, &rng);
      }
      const Matrix panels = Panels(b);
      for (size_t m = 1; m <= 20; ++m) {
        Matrix a = RandomMatrix(m, k, &rng);
        if (!specials.empty()) Scatter(specials, &a, &rng);
        for (bool relu : {false, true}) {
          const Matrix want = BiasReluOracle(a, b, bias, relu);
          for (size_t lanes : {1, 3, 4}) {
            SetParallelThreads(lanes);
            const std::string label = ShapeLabel(m, k, n) + " relu " +
                                      std::to_string(relu) + " lanes " +
                                      std::to_string(lanes);
            Matrix got;
            MatMulBiasInto(a, panels, bias, relu, &got, Layout::kPanels);
            ASSERT_TRUE(SameBits(got, want)) << "MatMulBiasInto " << label;
            if (m >= gemm_internal::kPackedMinRows) continue;
            for (GemmIsa isa : AllIsas()) {
              for (Layout layout : {Layout::kRowMajor, Layout::kPanels}) {
                got = Matrix(m, n);
                got.Fill(std::numeric_limits<float>::quiet_NaN());
                gemm_internal::MatMulColumnsIntoWith(
                    isa, a, layout == Layout::kPanels ? panels : b, &got,
                    layout, &bias, relu);
                ASSERT_TRUE(SameBits(got, want))
                    << label << " isa " << static_cast<int>(isa) << " panels "
                    << (layout == Layout::kPanels);
              }
            }
          }
        }
      }
    }
  }
  SetParallelThreads(saved_threads);
}

TEST(MatMulKernelTest, ColumnKernelBiasReluStoreBitIdenticalToTwoPasses) {
  // The backbone's batch-1 shapes (80 -> 1024 and 64 -> 128) and ragged
  // ones: partial vectors, chunks that straddle a panel edge, one column.
  ExpectEpilogueMatchesOracle({1, 7, 64, 80}, {1, 17, 128, 129, 300, 1024},
                              {});
}

TEST(MatMulKernelTest, ColumnKernelBiasReluStoreNonFinite) {
  // NaN, +-Inf and signed zeros in the input, the weights and the bias:
  // NaN and -0 pass the clamp, -Inf becomes +0, NaN sums stay NaN.
  ExpectEpilogueMatchesOracle(
      {3, 65}, {15, 129},
      {std::numeric_limits<float>::infinity(),
       -std::numeric_limits<float>::infinity(), DefaultNaN(), 0.0f, -0.0f});
}

TEST(MatMulKernelTest, PanelWeightsThroughEveryKernelMatchRowMajor) {
  // The training paths: the packed MatMul (PackRows), TransB on the weights
  // (PackColumns; the backward pass's grad_input) and TransA accumulated
  // into a panel gradient (the packed Store), plus the portable kernels
  // below the cut-over, each against the row-major computation.
  Rng rng(103);
  for (size_t m : {1, 3, 15, 16, 17, 64}) {
    for (auto [k, n] : {std::pair<size_t, size_t>{3, 300},
                        {65, 257},
                        {130, 129},
                        {64, 128},
                        {80, 1024}}) {
      const std::string label = ShapeLabel(m, k, n);
      const Matrix w = RandomMatrix(k, n, &rng);
      const Matrix p = Panels(w);
      const Matrix a = RandomMatrix(m, k, &rng);
      // out = a * W.
      Matrix want;
      gemm_internal::MatMulIntoWith(GemmIsa::kPortable, a, w, &want);
      for (GemmIsa isa : AllIsas()) {
        Matrix got;
        gemm_internal::MatMulIntoWith(isa, a, p, &got, Layout::kPanels);
        EXPECT_TRUE(SameBits(got, want))
            << "MatMul " << label << " isa " << static_cast<int>(isa);
      }
      // grad_input = g * W^T, g (m x n): W is TransB's second operand, so
      // its panels cut the summed dimension.
      const Matrix g = RandomMatrix(m, n, &rng);
      gemm_internal::MatMulTransBIntoWith(GemmIsa::kPortable, g, w, &want);
      for (GemmIsa isa : AllIsas()) {
        Matrix got;
        gemm_internal::MatMulTransBIntoWith(isa, g, p, &got, Layout::kPanels);
        EXPECT_TRUE(SameBits(got, want))
            << "TransB " << label << " isa " << static_cast<int>(isa);
      }
      Matrix got;
      MatMulTransBInto(g, p, &got, Layout::kPanels);
      EXPECT_TRUE(SameBits(got, want)) << "MatMulTransBInto " << label;
      // grad_weight += x^T * g, x (m x k): the accumulator is in panels.
      Matrix init = RandomMatrix(k, n, &rng);
      Scatter({0.0f, -0.0f}, &init, &rng);
      Matrix product;
      gemm_internal::MatMulTransAIntoWith(GemmIsa::kPortable, a, g, &product);
      Matrix sum = init;
      sum.AddInPlace(product);
      for (GemmIsa isa : AllIsas()) {
        Matrix acc = Panels(init);
        gemm_internal::MatMulTransAAccumulateWith(isa, a, g, &acc,
                                                  Layout::kPanels);
        EXPECT_TRUE(SameBits(RowMajor(acc), sum))
            << "TransA accumulate " << label << " isa "
            << static_cast<int>(isa);
      }
      Matrix acc = Panels(init);
      MatMulTransAAccumulate(a, g, &acc, Layout::kPanels);
      EXPECT_TRUE(SameBits(RowMajor(acc), sum))
          << "MatMulTransAAccumulate " << label;
    }
  }
}

TEST(MatMulKernelTest, DispatchedIsaIsSupportedAndReported) {
  const GemmIsa isa = gemm_internal::DispatchedIsa();
  EXPECT_TRUE(gemm_internal::IsaSupported(isa));
  // The widest supported instantiation wins.
  for (GemmIsa wider : PackedIsas()) {
    EXPECT_GE(static_cast<int>(isa), static_cast<int>(wider));
  }
  EXPECT_EQ(obs::Registry::Global().GetGauge("common.gemm.isa")->value(),
            static_cast<double>(isa));
}

TEST(SpanMathTest, SquaredL2AndDot) {
  const float a[] = {1, 2, 3};
  const float b[] = {4, 6, 8};
  EXPECT_FLOAT_EQ(SquaredL2(a, b, 3), 9.0f + 16.0f + 25.0f);
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 4.0f + 12.0f + 24.0f);
}

TEST(MatrixDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_DEATH(a.AddInPlace(b), "Check failed");
  EXPECT_DEATH(MatMul(a, Matrix(3, 2)), "Check failed");
}

}  // namespace
}  // namespace magneto
