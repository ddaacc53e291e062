#pragma once
/// \file kernel_core.hpp
/// \brief Internal shared packed-panel core behind gemm, gemm_batch_strided
/// and the packed syrk (not installed API; include only from src/blas/).
///
/// One engine serves every level-3 entry point. It is a classic BLIS-style
/// blocked kernel — pack op(B) into NR-column panels and op(A) into MR-row
/// panels per KC slab, run a register-tiled microkernel over the macro tile
/// — extended with:
///
///  * one MR x NR = 8 x 8 register tile and one packing layout, with three
///    microkernel bodies: AVX-512F, AVX2+FMA and the portable loop. The
///    process picks the fastest body its CPU runs once, at first use
///    (`best_kernel_path`). Both SIMD bodies are written with FMA
///    intrinsics and add over l in the same order, so they agree bit for
///    bit; the portable loop differs from them only by FMA rounding.
///  * panels packed at the width of the current slab: panel p of a kc-deep
///    slab starts at p * kc * NR (p * kc * MR for op(A)), so the scratch is
///    sized to the call, not to the blocking maxima.
///  * a *batch* dimension with two schedules:
///     - fused-k (stride_c == 0): all batch items accumulate into one C and
///       the batch rides inside the KC loop as a virtual contraction length
///       k*batch. KC slabs are clipped at item boundaries so the per-element
///       floating-point grouping is *identical* to issuing one gemm per item
///       — the batched local kernels are bit-equal to a per-slice loop.
///     - strided-C (stride_c != 0, stride_b == 0): one C per item with a
///       shared op(B) packed once per KC slab — the local TTM shape, where
///       the old code re-packed the factor matrix for every right-slice.
///  * a lower_only mode for syrk: micro tiles strictly above the diagonal
///    are skipped (half the flops at full microkernel throughput), tiles
///    crossing it write back only i >= j.
///  * fork/join threading on the persistent ThreadPool, with the decision
///    made on *aggregate* batch flops and work partitioned over micro tiles
///    (fused) or (item, MC-tile) units (strided). Ownership never changes
///    the per-element accumulation order, so results are bit-identical for
///    any thread count.

#include <cstddef>
#include <cstdint>

#include "blas/blas.hpp"

namespace ptucker::blas::detail {

// Blocking parameters (doubles): KC*MR and KC*NR panels stay in L1/L2.
inline constexpr std::size_t MR = 8;
inline constexpr std::size_t NR = 8;
inline constexpr std::size_t MC = 128;
inline constexpr std::size_t KC = 256;
inline constexpr std::size_t NC = 2048;

/// Aggregate-flop threshold below which a call stays single-threaded. The
/// old dispatcher applied this per gemm call, so batched slice loops never
/// crossed it; the engine applies it to the whole batch. Set at the
/// measured 1-vs-2-thread crossover of the AVX-512 body (docs/TUNING.md);
/// the thread-count bit-identity tests size their requests to cross it.
inline constexpr double kThreadFlopThreshold = 2e7;

/// Minimum flops per KC slab for forking: every slab costs barrier
/// round-trips, so a fused batch whose slabs are clipped very thin (small
/// per-item k, huge batch) would spend more time synchronizing than
/// computing. Also the measured crossover (docs/TUNING.md).
inline constexpr double kThreadFlopsPerSlabMin = 4e6;

/// Engine request: C_i = alpha * op(A_i) * op(B_i) + beta * C_i for
/// i in [0, batch), X_i = x + i*stride_x; op shapes m x k and k x n.
/// stride_c == 0 fuses the batch into one C (see file comment). Flops are
/// counted by the public wrappers, not here.
struct EngineArgs {
  Trans ta = Trans::No;
  Trans tb = Trans::No;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;  ///< per-item contraction length
  double alpha = 1.0;
  double beta = 0.0;
  const double* a = nullptr;
  std::size_t lda = 1;
  std::size_t stride_a = 0;
  const double* b = nullptr;
  std::size_t ldb = 1;
  std::size_t stride_b = 0;
  double* c = nullptr;
  std::size_t ldc = 1;
  std::size_t stride_c = 0;
  std::size_t batch = 1;
  bool lower_only = false;  ///< skip strictly-upper micro tiles (fused only)
};

/// The microkernel bodies. Every path computes the same MR x NR tile from
/// the same packed panels.
enum class KernelPath : std::uint8_t {
  Portable,  ///< plain loops; the only path off x86-64 or without AVX2+FMA
  Avx2,      ///< AVX2 + FMA, the tile as two 4-row halves
  Avx512,    ///< AVX-512F, one zmm accumulator per tile row
};

/// True when this CPU can run \p path (Portable always can).
[[nodiscard]] bool kernel_path_supported(KernelPath path);

/// The widest supported path, chosen once per process.
[[nodiscard]] KernelPath best_kernel_path();

/// Run one request on the dispatched path.
void run_engine(const EngineArgs& args);

/// Run one request on \p path, which must be supported. The tests reach
/// every body through this; library callers use run_engine(args).
void run_engine(const EngineArgs& args, KernelPath path);

}  // namespace ptucker::blas::detail
