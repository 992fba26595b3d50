// Cache-blocked single-precision GEMM.
//
// Row-major  C[m×n] (+)= op(A)[m×k] · op(B)[k×n]  with optional
// transposes, organized BLIS-style: the k dimension is split into KC
// blocks, op(A) panels (MC×KC in MR-row micro-panels) and transposed
// op(B) panels (KC×NR) are packed into contiguous, zero-padded scratch
// so the MR×NR micro-kernel runs branch-free contiguous inner loops. B
// is addressed through a per-row offset table (SgemmIndirect; Sgemm's
// stride ldb is the table r·ldb), so a non-transposed B whose columns
// are contiguous has NR contiguous floats per panel row at each row's
// offset and is read in place (only a partial last panel is packed).
// This is how the conv engine reads its implicit-GEMM operand straight
// from a zero-halo activation: row r of B is one kernel tap, and its
// offset points at the tap's shifted input. Column
// micro-panels of one (MC, KC, NC) block are distributed over the
// persistent ThreadPool; every C tile is written by exactly one task and
// the KC blocks accumulate in a fixed order, so results are bitwise
// identical for any thread count.
//
// The micro-kernel comes in one portable and two explicit-vector
// variants (AVX2, AVX-512F), picked once at first use from CPUID. All
// variants keep the MR×NR accumulator block in registers and perform
// the same operations in the same order — one multiply, then one add,
// per (p, i, j), p ascending — and this file is compiled with FP
// contraction off (src/kernels/CMakeLists.txt), so no multiply-add is
// fused into an FMA. The variants therefore give bitwise the same C,
// and trained weights do not depend on the CPU.
#pragma once

#include <cstdint>
#include <vector>

namespace hwp3d::kernels {

// Micro-tile: kMR×kNR float accumulators live in registers.
inline constexpr int64_t kMR = 6;
inline constexpr int64_t kNR = 16;
// Cache blocking: the KC×NR B panel targets L1, the MC×KC packed A
// block L2, the KC×NC packed B block the last-level cache.
inline constexpr int64_t kMC = 96;   // multiple of kMR
inline constexpr int64_t kKC = 256;
inline constexpr int64_t kNC = 1024; // multiple of kNR

// C[m×n] (+)= op(A)[m×k] · op(B)[k×n]; op transposes when trans_* is
// set. lda/ldb are the leading dimensions of the *stored* (untransposed)
// matrices. accumulate=false overwrites C, true adds into it.
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate);

// Operand B of SgemmIndirect: element (r, j) of the stored
// (untransposed) B is base[row_off[r] + col_off[j]], or
// base[row_off[r] + j] when col_off is null. row_off holds one entry per
// stored row, col_off one per stored column. A null col_off lets full
// non-transposed panels be read in place; a col_off gathers while
// packing.
struct IndirectB {
  const float* base = nullptr;
  const int64_t* row_off = nullptr;
  const int64_t* col_off = nullptr;
};

// Sgemm with B addressed through offset tables. Same blocking, same
// summation order and same micro-kernels as Sgemm, so a B laid out
// explicitly and the same B read through offsets give the same bytes.
void SgemmIndirect(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, const float* a, int64_t lda, const IndirectB& b,
                   float* c, int64_t ldc, bool accumulate);

// op(A)[m×k] packed once into the micro-panels Sgemm reads, for GEMMs
// that share A (a conv's weights across samples and output depths).
// Holds its own copy.
class PackedA {
 public:
  PackedA(bool trans, int64_t m, int64_t k, const float* a, int64_t lda);

  int64_t m() const { return m_; }
  int64_t k() const { return k_; }
  // Panels of rows [ic, ic + kMC) and columns [pc, pc + kKC).
  const float* Block(int64_t ic, int64_t pc) const;

 private:
  int64_t m_, k_;
  int64_t rows_;  // m rounded up to kMR
  std::vector<float> data_;
};

// SgemmIndirect with a prepacked A and a non-transposed B: the same
// bytes as packing A on every call.
void SgemmIndirect(const PackedA& a, int64_t n, const IndirectB& b,
                   float* c, int64_t ldc, bool accumulate);

// Inner-product GEMM, for weight gradients whose reduction runs along
// the conv's output columns:
//   C[m×n] (+)= Σ_g A_g[m×k] · B_g[n×k]ᵀ
// with A_g = a + g·a_step (rows lda apart) and row r of B_g the k
// contiguous floats at b.base + g·b_step + b.row_off[r] (b.col_off must
// be null). Neither operand is packed: both are read along k. Every C
// element is a 16-lane dot product — lane l adds the products at
// columns ≡ l (mod 16), groups in order — closed by a fixed pairwise
// tree, so every ISA variant and pool size gives the same bytes.
void SgemmDot(int64_t m, int64_t n, int64_t k, int64_t groups,
              const float* a, int64_t lda, int64_t a_step, const IndirectB& b,
              int64_t b_step, float* c, int64_t ldc, bool accumulate);

// Instruction set of the micro-kernel variant.
enum class SgemmIsa { kPortable, kAvx2, kAvx512 };

// True when this build has the variant and the CPU can run it.
bool SgemmIsaSupported(SgemmIsa isa);

// The variant Sgemm uses: the widest supported one, unless SetSgemmIsa
// overrode it.
SgemmIsa ActiveSgemmIsa();

// Process-wide override for the ISA parity tests and the portable vs
// dispatched A/B in bench_kernels. `isa` must be supported.
void SetSgemmIsa(SgemmIsa isa);

const char* SgemmIsaName(SgemmIsa isa);

}  // namespace hwp3d::kernels
