#pragma once
/// \file blas.hpp
/// \brief Dense linear-algebra kernels (the BLAS substitute).
///
/// The paper's local computations are "cast in terms of BLAS3 routines to
/// exploit optimized, architecture-specific kernels" (Sec. I). This module
/// provides those routines from scratch: a cache-blocked, packing GEMM with
/// an 8x8 register-tiled microkernel, SYRK (both the paper's default
/// full-storage variant and a symmetry-exploiting variant for the Sec. IX
/// ablation), and level-1 operations.
///
/// The microkernel is picked once per process from what the CPU supports:
/// AVX-512F, else AVX2+FMA, else portable loops (the only path off x86-64;
/// blas/kernel_core.hpp). The default build needs no -march flag for this.
/// The two SIMD paths give bit-identical results; the portable path can
/// differ from them in the last bits, because a default build rounds each
/// of its products before adding it. Within one path, results do not
/// depend on the thread count or the batch split.
///
/// Conventions follow BLAS: column-major storage with leading dimensions,
/// but 0-based std::size_t sizes. All kernels count flops into a global
/// counter (used by the weak-scaling bench to report GFLOPS exactly as the
/// paper's Fig. 9b does).

#include <cstddef>
#include <cstdint>

namespace ptucker::blas {

enum class Trans : std::uint8_t {
  No,  ///< use the matrix as stored
  Yes  ///< use the transpose
};

/// --- flop accounting ---------------------------------------------------------

/// Total flops executed by all kernels since the last reset (all threads).
[[nodiscard]] std::uint64_t flop_count();
void reset_flop_count();
void add_flops(std::uint64_t flops);

/// --- level 3 -------------------------------------------------------------------

/// C(m x n) = alpha * op(A) * op(B) + beta * C.
/// op(A) is m x k and op(B) is k x n; lda/ldb/ldc are leading dimensions of
/// the *stored* matrices.
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          double alpha, const double* a, std::size_t lda, const double* b,
          std::size_t ldb, double beta, double* c, std::size_t ldc);

/// Batched gemm over `batch` items with constant strides between operands:
/// X_i = x + i*stride_x. Two stride values have packing-reuse semantics:
///
///  - stride_c == 0: all items accumulate into the *single* C,
///      C = beta*C + alpha * sum_i op(A_i) op(B_i),
///    with the batch fused into the KC loop of the packed engine. This is
///    the slice-summed local Gram / cross-Gram shape. KC slabs are clipped
///    at item boundaries, so the result is bit-identical to looping
///    single gemm calls with beta then 1.0.
///  - stride_b == 0 (with stride_c != 0): op(B) is shared and packed once
///    per KC slab instead of once per item — the local TTM shape, where the
///    per-slice loop used to re-pack the factor matrix `batch` times.
///
/// The intra-kernel threading decision is made on the *aggregate* batch
/// flops (2*m*n*k*batch), so thousands of small slices thread as one large
/// call. Results are bit-identical for any gemm_threads() setting. The
/// fully general case (all strides nonzero) is legal but runs as a loop of
/// single calls — there is nothing to reuse.
void gemm_batch_strided(Trans ta, Trans tb, std::size_t m, std::size_t n,
                        std::size_t k, double alpha, const double* a,
                        std::size_t lda, std::size_t stride_a, const double* b,
                        std::size_t ldb, std::size_t stride_b, double beta,
                        double* c, std::size_t ldc, std::size_t stride_c,
                        std::size_t batch);

/// Intra-kernel threading (paper Sec. IX: "using multi-threaded BLAS for
/// all local computations"). When set > 1, level-3 calls whose *aggregate*
/// flops (whole batch, not per slice) exceed a threshold fork onto that
/// many parts of the calling thread's persistent worker pool
/// (blas/threadpool.hpp) — no per-call thread spawn/join. Work is
/// partitioned over packed macro/micro tiles; ownership never changes the
/// per-element accumulation order, so results are bit-identical for any
/// setting. Default 1: in this runtime the ranks themselves are threads, so
/// nested parallelism only pays when running fewer ranks than cores. The
/// setting is global (atomic).
void set_gemm_threads(int threads);
[[nodiscard]] int gemm_threads();

/// Auto-tune hook called by grid construction: defaults the gemm threads to
/// max(1, hardware_threads / active_ranks) — the spare cores when running
/// fewer ranks than the machine has — unless the user already called
/// set_gemm_threads, which always wins.
void autotune_gemm_threads(int active_ranks);

/// Return to the startup state: 1 thread, auto-tune re-armed (clears the
/// explicit override). For tests and benches that toggle the setting.
void reset_gemm_threads();

/// C(n x n) = alpha * op(A) * op(A)^T + beta * C with *both* triangles
/// stored — the paper's Gram computation "ignores the fact that S is
/// symmetric, storing both upper and lower triangles explicitly" (Sec. V-C).
/// trans == No: op(A) = A (n x k);  trans == Yes: op(A) = A^T (A is k x n).
void syrk_full(Trans trans, std::size_t n, std::size_t k, double alpha,
               const double* a, std::size_t lda, double beta, double* c,
               std::size_t ldc);

/// Symmetry-exploiting variant: computes the lower triangle in n(n+1)k
/// flops (vs 2 n^2 k) and leaves the upper triangle untouched. Use
/// symmetrize_from_lower() to fill the mirror. Implemented as a true
/// blocked-packed kernel: both operand panels are packed once per KC slab
/// and micro tiles strictly above the diagonal are skipped, so the flop
/// saving is realized at full microkernel throughput (the optimization the
/// paper's Sec. IX lists as future work; bench/ablate_gram_symmetry
/// measures it). Flops are counted as n(n+1)k, once.
void syrk_lower(Trans trans, std::size_t n, std::size_t k, double alpha,
                const double* a, std::size_t lda, double beta, double* c,
                std::size_t ldc);

/// Batched syrk_lower: C = beta*C + alpha * sum_i op(A_i) op(A_i)^T with
/// A_i = a + i*stride_a — the slice-summed symmetric local Gram in one
/// kernel invocation. Same fused-KC semantics (and bit-equality with the
/// per-slice loop) as gemm_batch_strided with stride_c == 0.
void syrk_lower_batch_strided(Trans trans, std::size_t n, std::size_t k,
                              double alpha, const double* a, std::size_t lda,
                              std::size_t stride_a, double beta, double* c,
                              std::size_t ldc, std::size_t batch);

/// Copy the lower triangle into the upper triangle (cache-tiled transpose
/// copy).
void symmetrize_from_lower(std::size_t n, double* c, std::size_t ldc);

/// --- level 1 -------------------------------------------------------------------

void axpy(std::size_t n, double alpha, const double* x, double* y);
[[nodiscard]] double dot(std::size_t n, const double* x, const double* y);
[[nodiscard]] double nrm2(std::size_t n, const double* x);
void scal(std::size_t n, double alpha, double* x);
void copy(std::size_t n, const double* x, double* y);

}  // namespace ptucker::blas
