/// \file batch_engine.cpp
/// \brief The shared packed-panel engine (see kernel_core.hpp).

#include <algorithm>
#include <barrier>
#include <cstring>
#include <memory>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "blas/kernel_core.hpp"
#include "blas/threadpool.hpp"
#include "util/error.hpp"

namespace ptucker::blas::detail {

namespace {

/// Logical element access strides for op(X): element (i, j) of op(X) lives
/// at x[i*rs + j*cs].
struct OpStrides {
  std::size_t rs;
  std::size_t cs;
};

OpStrides strides_for(Trans t, std::size_t ld) {
  return t == Trans::No ? OpStrides{1, ld} : OpStrides{ld, 1};
}

/// Pack an mc x kc block of op(A) into MR-row panels, zero-padding the
/// ragged last panel. Layout: panel p starts at p*kc*MR and holds rows
/// [p*MR, p*MR+MR) as kc consecutive MR-vectors. Panels with
/// p % parts != part are skipped, so a pool job splits the packing work
/// without overlap.
void pack_a(const double* a, OpStrides s, std::size_t row0, std::size_t col0,
            std::size_t mc, std::size_t kc, double* dst, int part, int parts) {
  for (std::size_t p = static_cast<std::size_t>(part); p < (mc + MR - 1) / MR;
       p += static_cast<std::size_t>(parts)) {
    const std::size_t i0 = p * MR;
    const std::size_t rows = std::min(MR, mc - i0);
    for (std::size_t l = 0; l < kc; ++l) {
      const double* src = a + (row0 + i0) * s.rs + (col0 + l) * s.cs;
      double* out = dst + p * (kc * MR) + l * MR;
      std::size_t i = 0;
      for (; i < rows; ++i) out[i] = src[i * s.rs];
      for (; i < MR; ++i) out[i] = 0.0;
    }
  }
}

/// Pack a kc x nc block of op(B) into NR-column panels, zero-padded, in
/// pack_a's layout (panel p at p*kc*NR) and with its part/parts split.
void pack_b(const double* b, OpStrides s, std::size_t row0, std::size_t col0,
            std::size_t kc, std::size_t nc, double* dst, int part, int parts) {
  for (std::size_t p = static_cast<std::size_t>(part); p < (nc + NR - 1) / NR;
       p += static_cast<std::size_t>(parts)) {
    const std::size_t j0 = p * NR;
    const std::size_t cols = std::min(NR, nc - j0);
    for (std::size_t l = 0; l < kc; ++l) {
      const double* src = b + (row0 + l) * s.rs + (col0 + j0) * s.cs;
      double* out = dst + p * (kc * NR) + l * NR;
      std::size_t j = 0;
      for (; j < cols; ++j) out[j] = src[j * s.cs];
      for (; j < NR; ++j) out[j] = 0.0;
    }
  }
}

}  // namespace

// The three microkernel bodies: acc = sum_l Ap(:,l) * Bp(l,:) for one
// MR x NR tile, where Ap holds kc MR-vectors and Bp kc NR-vectors. Each
// element adds its products in increasing l, so the SIMD bodies (one fused
// multiply-add per product) agree bit for bit, and differ from the
// portable body only where the compiler leaves its multiply and add
// unfused. External linkage keeps each one a single function under its own
// name: scripts/check_isa_isolation.sh allows VEX/EVEX code only in
// functions named *_avx2 and *_avx512.

static_assert(MR == 8 && NR == 8, "the SIMD bodies hard-code an 8x8 tile");

/// Plain loops over one 4-row half of the tile (rows [h, h+4) of ap's
/// 8-vectors). The sums build in a local array, which the compiler keeps in
/// registers (acc itself might alias the panels); a single 8x8 sweep would
/// spill them out of a default x86-64 build's 16 SSE registers.
inline void portable_half(std::size_t kc, const double* ap, const double* bp,
                          double acc[][NR]) {
  constexpr std::size_t H = MR / 2;
  double sum[H][NR] = {};
  for (std::size_t l = 0; l < kc; ++l) {
    const double* av = ap + l * MR;
    const double* bv = bp + l * NR;
    for (std::size_t i = 0; i < H; ++i) {
      const double ai = av[i];
      for (std::size_t j = 0; j < NR; ++j) sum[i][j] += ai * bv[j];
    }
  }
  std::memcpy(acc, sum, sizeof(sum));
}

void micro_kernel_portable(std::size_t kc, const double* ap, const double* bp,
                           double acc[MR][NR]) {
  portable_half(kc, ap, bp, acc);
  portable_half(kc, ap + MR / 2, bp, acc + MR / 2);
}

#if defined(__x86_64__)

/// AVX2+FMA: each 4-row half keeps 8 ymm accumulators (row i, columns 0-3
/// and 4-7) plus the two B halves in registers.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const double* ap, const double* bp, double acc[MR][NR]) {
  for (std::size_t h = 0; h < MR; h += 4) {
    __m256d c0l = _mm256_setzero_pd();
    __m256d c0h = _mm256_setzero_pd();
    __m256d c1l = _mm256_setzero_pd();
    __m256d c1h = _mm256_setzero_pd();
    __m256d c2l = _mm256_setzero_pd();
    __m256d c2h = _mm256_setzero_pd();
    __m256d c3l = _mm256_setzero_pd();
    __m256d c3h = _mm256_setzero_pd();
    for (std::size_t l = 0; l < kc; ++l) {
      const double* av = ap + l * MR + h;
      const __m256d bl = _mm256_loadu_pd(bp + l * NR);
      const __m256d bh = _mm256_loadu_pd(bp + l * NR + 4);
      __m256d a = _mm256_broadcast_sd(av + 0);
      c0l = _mm256_fmadd_pd(a, bl, c0l);
      c0h = _mm256_fmadd_pd(a, bh, c0h);
      a = _mm256_broadcast_sd(av + 1);
      c1l = _mm256_fmadd_pd(a, bl, c1l);
      c1h = _mm256_fmadd_pd(a, bh, c1h);
      a = _mm256_broadcast_sd(av + 2);
      c2l = _mm256_fmadd_pd(a, bl, c2l);
      c2h = _mm256_fmadd_pd(a, bh, c2h);
      a = _mm256_broadcast_sd(av + 3);
      c3l = _mm256_fmadd_pd(a, bl, c3l);
      c3h = _mm256_fmadd_pd(a, bh, c3h);
    }
    _mm256_storeu_pd(acc[h + 0], c0l);
    _mm256_storeu_pd(acc[h + 0] + 4, c0h);
    _mm256_storeu_pd(acc[h + 1], c1l);
    _mm256_storeu_pd(acc[h + 1] + 4, c1h);
    _mm256_storeu_pd(acc[h + 2], c2l);
    _mm256_storeu_pd(acc[h + 2] + 4, c2h);
    _mm256_storeu_pd(acc[h + 3], c3l);
    _mm256_storeu_pd(acc[h + 3] + 4, c3h);
  }
}

/// AVX-512F: one zmm accumulator per tile row; each step loads one B row
/// and issues 8 broadcast-FMAs.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    std::size_t kc, const double* ap, const double* bp, double acc[MR][NR]) {
  __m512d c0 = _mm512_setzero_pd();
  __m512d c1 = _mm512_setzero_pd();
  __m512d c2 = _mm512_setzero_pd();
  __m512d c3 = _mm512_setzero_pd();
  __m512d c4 = _mm512_setzero_pd();
  __m512d c5 = _mm512_setzero_pd();
  __m512d c6 = _mm512_setzero_pd();
  __m512d c7 = _mm512_setzero_pd();
  for (std::size_t l = 0; l < kc; ++l) {
    const double* av = ap + l * MR;
    const __m512d b = _mm512_loadu_pd(bp + l * NR);
    c0 = _mm512_fmadd_pd(_mm512_set1_pd(av[0]), b, c0);
    c1 = _mm512_fmadd_pd(_mm512_set1_pd(av[1]), b, c1);
    c2 = _mm512_fmadd_pd(_mm512_set1_pd(av[2]), b, c2);
    c3 = _mm512_fmadd_pd(_mm512_set1_pd(av[3]), b, c3);
    c4 = _mm512_fmadd_pd(_mm512_set1_pd(av[4]), b, c4);
    c5 = _mm512_fmadd_pd(_mm512_set1_pd(av[5]), b, c5);
    c6 = _mm512_fmadd_pd(_mm512_set1_pd(av[6]), b, c6);
    c7 = _mm512_fmadd_pd(_mm512_set1_pd(av[7]), b, c7);
  }
  _mm512_storeu_pd(acc[0], c0);
  _mm512_storeu_pd(acc[1], c1);
  _mm512_storeu_pd(acc[2], c2);
  _mm512_storeu_pd(acc[3], c3);
  _mm512_storeu_pd(acc[4], c4);
  _mm512_storeu_pd(acc[5], c5);
  _mm512_storeu_pd(acc[6], c6);
  _mm512_storeu_pd(acc[7], c7);
}

#endif

bool kernel_path_supported(KernelPath path) {
#if defined(__x86_64__)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("fma") != 0;
  }();
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  switch (path) {
    case KernelPath::Portable:
      return true;
    case KernelPath::Avx2:
      return avx2;
    case KernelPath::Avx512:
      return avx512;
  }
  return false;
#else
  return path == KernelPath::Portable;
#endif
}

KernelPath best_kernel_path() {
  static const KernelPath best = [] {
    if (kernel_path_supported(KernelPath::Avx512)) return KernelPath::Avx512;
    if (kernel_path_supported(KernelPath::Avx2)) return KernelPath::Avx2;
    return KernelPath::Portable;
  }();
  return best;
}

namespace {

using MicroKernel = void (*)(std::size_t, const double*, const double*,
                             double[MR][NR]);

MicroKernel kernel_for(KernelPath path) {
#if defined(__x86_64__)
  if (path == KernelPath::Avx512) return micro_kernel_avx512;
  if (path == KernelPath::Avx2) return micro_kernel_avx2;
#endif
  return micro_kernel_portable;
}

/// Write acc back into C(gi.., gj..). With lower_only, rows above the
/// diagonal are skipped element-wise when the tile straddles it.
inline void write_back(double* c, std::size_t ldc, std::size_t gi,
                       std::size_t gj, std::size_t rows, std::size_t cols,
                       double alpha, double beta_eff,
                       const double acc[MR][NR], bool lower_only) {
  const bool straddles = lower_only && gi + 1 < gj + cols;
  for (std::size_t j = 0; j < cols; ++j) {
    double* cj = c + (gj + j) * ldc + gi;
    std::size_t i = 0;
    if (straddles && gj + j > gi) i = gj + j - gi;  // first row with gi+i >= gj+j
    if (beta_eff == 0.0) {
      for (; i < rows; ++i) cj[i] = alpha * acc[i][j];
    } else {
      for (; i < rows; ++i) cj[i] = beta_eff * cj[i] + alpha * acc[i][j];
    }
  }
}

/// Scale one C by beta (the k == 0 / alpha == 0 degenerate case); with
/// lower_only only the stored triangle is touched.
void scale_c(double* c, std::size_t ldc, std::size_t m, std::size_t n,
             double beta, bool lower_only) {
  if (beta == 1.0) return;
  for (std::size_t j = 0; j < n; ++j) {
    double* col = c + j * ldc;
    const std::size_t i0 = lower_only ? std::min(j, m) : 0;
    if (beta == 0.0) {
      if (m > i0) std::memset(col + i0, 0, (m - i0) * sizeof(double));
    } else {
      for (std::size_t i = i0; i < m; ++i) col[i] *= beta;
    }
  }
}

/// Barrier wrapper: no-op in the serial (parts == 1) path.
struct SyncCtx {
  std::barrier<>* bar = nullptr;
  void sync() const {
    if (bar != nullptr) bar->arrive_and_wait();
  }
};

/// Per-thread pack scratch, grown to the largest call this thread has run
/// and never shrunk or cleared: the packers write every element the
/// microkernel reads.
class PackScratch {
 public:
  double* get(std::size_t len) {
    if (len > cap_) {
      buf_.reset();  // free before allocating: never hold both
      cap_ = 0;
      buf_ = std::make_unique_for_overwrite<double[]>(len);
      cap_ = len;
    }
    return buf_.get();
  }

 private:
  std::unique_ptr<double[]> buf_;
  std::size_t cap_ = 0;
};

/// Fused-k body: one C, the batch rides in the contraction dimension with
/// KC slabs clipped at item boundaries (bit-equal to a per-item gemm loop).
/// Packing is split panel-wise across parts; the compute phase partitions
/// micro tiles round-robin. All parts execute identical loop bounds, so the
/// barrier arrival counts always match.
void fused_body(const EngineArgs& g, MicroKernel kernel, double* a_pack,
                double* b_pack, int part, int parts, const SyncCtx& ctx) {
  const OpStrides sa = strides_for(g.ta, g.lda);
  const OpStrides sb = strides_for(g.tb, g.ldb);
  const std::size_t k_total = g.k * g.batch;
  alignas(64) double acc[MR][NR];
  for (std::size_t jc = 0; jc < g.n; jc += NC) {
    const std::size_t nc = std::min(NC, g.n - jc);
    const std::size_t n_panels = (nc + NR - 1) / NR;
    std::size_t pc = 0;
    while (pc < k_total) {
      const std::size_t r = pc / g.k;
      const std::size_t k0 = pc - r * g.k;
      const std::size_t kc = std::min(KC, (r + 1) * g.k - pc);
      const double beta_eff = (pc == 0) ? g.beta : 1.0;
      pack_b(g.b + r * g.stride_b, sb, k0, jc, kc, nc, b_pack, part, parts);
      ctx.sync();
      for (std::size_t ic = 0; ic < g.m; ic += MC) {
        const std::size_t mc = std::min(MC, g.m - ic);
        const std::size_t m_panels = (mc + MR - 1) / MR;
        pack_a(g.a + r * g.stride_a, sa, ic, k0, mc, kc, a_pack, part, parts);
        ctx.sync();
        const std::size_t tiles = m_panels * n_panels;
        for (std::size_t t = static_cast<std::size_t>(part); t < tiles;
             t += static_cast<std::size_t>(parts)) {
          const std::size_t ip = t % m_panels;
          const std::size_t jp = t / m_panels;
          const std::size_t i0 = ip * MR;
          const std::size_t j0 = jp * NR;
          const std::size_t rows = std::min(MR, mc - i0);
          const std::size_t cols = std::min(NR, nc - j0);
          const std::size_t gi = ic + i0;
          const std::size_t gj = jc + j0;
          if (g.lower_only && gi + rows <= gj) continue;  // strictly upper
          kernel(kc, a_pack + ip * (kc * MR), b_pack + jp * (kc * NR), acc);
          write_back(g.c, g.ldc, gi, gj, rows, cols, g.alpha, beta_eff, acc,
                     g.lower_only);
        }
        ctx.sync();
      }
      pc += kc;
    }
  }
}

/// Strided-C body: per-item C with a shared op(B) packed once per KC slab
/// (stride_b == 0). Work units are (item, MC-tile) pairs; each part packs
/// the op(A) tiles it owns into its own private buffer, so the only shared
/// state is the B panel (two barriers per KC slab). \p a_pack is this
/// part's private buffer, allocated by the caller *before* the fork: a
/// barrier-synchronized body must never throw (an allocation failure here
/// would strand the other parts at the barrier), so it performs no
/// allocation at all.
void strided_body(const EngineArgs& g, MicroKernel kernel, double* b_pack,
                  double* a_pack, int part, int parts, const SyncCtx& ctx) {
  const OpStrides sa = strides_for(g.ta, g.lda);
  const OpStrides sb = strides_for(g.tb, g.ldb);
  const std::size_t m_tiles = (g.m + MC - 1) / MC;
  const std::size_t units = g.batch * m_tiles;
  alignas(64) double acc[MR][NR];
  for (std::size_t jc = 0; jc < g.n; jc += NC) {
    const std::size_t nc = std::min(NC, g.n - jc);
    const std::size_t n_panels = (nc + NR - 1) / NR;
    for (std::size_t pc = 0; pc < g.k; pc += KC) {
      const std::size_t kc = std::min(KC, g.k - pc);
      const double beta_eff = (pc == 0) ? g.beta : 1.0;
      pack_b(g.b, sb, pc, jc, kc, nc, b_pack, part, parts);
      ctx.sync();
      for (std::size_t u = static_cast<std::size_t>(part); u < units;
           u += static_cast<std::size_t>(parts)) {
        const std::size_t r = u / m_tiles;
        const std::size_t ic = (u % m_tiles) * MC;
        const std::size_t mc = std::min(MC, g.m - ic);
        const std::size_t m_panels = (mc + MR - 1) / MR;
        pack_a(g.a + r * g.stride_a, sa, ic, pc, mc, kc, a_pack, 0, 1);
        double* c_item = g.c + r * g.stride_c;
        for (std::size_t jp = 0; jp < n_panels; ++jp) {
          const std::size_t j0 = jp * NR;
          const std::size_t cols = std::min(NR, nc - j0);
          for (std::size_t ip = 0; ip < m_panels; ++ip) {
            const std::size_t i0 = ip * MR;
            const std::size_t rows = std::min(MR, mc - i0);
            kernel(kc, a_pack + ip * (kc * MR), b_pack + jp * (kc * NR), acc);
            write_back(c_item, g.ldc, ic + i0, jc + j0, rows, cols, g.alpha,
                       beta_eff, acc, false);
          }
        }
      }
      ctx.sync();
    }
  }
}

/// Threading decision: aggregate batch flops above the threshold, enough
/// flops per barrier-synchronized KC slab to amortize the sync, never from
/// inside a pool worker, and capped at the number of independent work
/// units so every part has something to do.
int decide_parts(const EngineArgs& g, bool fused) {
  const int threads = gemm_threads();
  if (threads <= 1 || ThreadPool::in_worker()) return 1;
  double flops = 2.0 * static_cast<double>(g.m) * static_cast<double>(g.n) *
                 static_cast<double>(g.k) * static_cast<double>(g.batch);
  if (g.lower_only) flops *= 0.5;  // upper micro tiles are skipped
  if (flops <= kThreadFlopThreshold) return 1;
  // Fused slabs are clipped at item boundaries: a tiny per-item k with a
  // huge batch means thousands of thin slabs, each paying barriers. The
  // strided path barriers once per (jc, pc) block regardless of batch.
  const std::size_t k_slabs = (g.k + KC - 1) / KC;
  const std::size_t slabs = ((g.n + NC - 1) / NC) *
                            (fused ? g.batch * k_slabs : k_slabs);
  if (flops / static_cast<double>(slabs) < kThreadFlopsPerSlabMin) return 1;
  std::size_t units;
  if (fused) {
    units = ((std::min(g.m, MC) + MR - 1) / MR) *
            ((std::min(g.n, NC) + NR - 1) / NR);
  } else {
    units = g.batch * ((g.m + MC - 1) / MC);
  }
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), units));
}

}  // namespace

void run_engine(const EngineArgs& g) { run_engine(g, best_kernel_path()); }

void run_engine(const EngineArgs& g, KernelPath path) {
  PT_CHECK(kernel_path_supported(path),
           "run_engine: this CPU cannot run the requested kernel path");
  if (g.m == 0 || g.n == 0 || g.batch == 0) return;
  if (g.k == 0 || g.alpha == 0.0) {
    if (g.stride_c == 0 || g.batch == 1) {
      scale_c(g.c, g.ldc, g.m, g.n, g.beta, g.lower_only);
    } else {
      for (std::size_t r = 0; r < g.batch; ++r) {
        scale_c(g.c + r * g.stride_c, g.ldc, g.m, g.n, g.beta, g.lower_only);
      }
    }
    return;
  }

  const bool fused = g.stride_c == 0 || g.batch == 1;
  PT_CHECK(fused || g.stride_b == 0,
           "run_engine: strided-C batches require a shared B "
           "(the public wrapper loops the general case)");
  PT_CHECK(!g.lower_only || fused, "run_engine: lower_only requires fused C");

  // All scratch is allocated on the calling thread *before* any fork and
  // reused across calls; pool workers receive raw pointers through the job
  // closure. The bodies themselves never allocate: a throw between barrier
  // phases would strand the sibling parts at the barrier. Panels are packed
  // at the slab's depth (kc <= min(k, KC)), so the sizes follow the call.
  const int parts = decide_parts(g, fused);
  const std::size_t kc_max = std::min(g.k, KC);
  const std::size_t b_len = (std::min(g.n, NC) + NR - 1) / NR * NR * kc_max;
  const std::size_t a_len = (std::min(g.m, MC) + MR - 1) / MR * MR * kc_max;
  const std::size_t a_slabs = fused ? 1 : static_cast<std::size_t>(parts);
  thread_local PackScratch t_scratch;
  double* b_pack = t_scratch.get(b_len + a_len * a_slabs);
  double* a_packs = b_pack + b_len;  // one private slab per strided part
  const MicroKernel kernel = kernel_for(path);

  if (parts <= 1) {
    const SyncCtx ctx{};
    if (fused) {
      fused_body(g, kernel, a_packs, b_pack, 0, 1, ctx);
    } else {
      strided_body(g, kernel, b_pack, a_packs, 0, 1, ctx);
    }
    return;
  }
  std::barrier<> bar(parts);
  const SyncCtx ctx{&bar};
  ThreadPool::local().run(parts, [&](int part) {
    if (fused) {
      fused_body(g, kernel, a_packs, b_pack, part, parts, ctx);
    } else {
      strided_body(g, kernel, b_pack,
                   a_packs + a_len * static_cast<std::size_t>(part), part,
                   parts, ctx);
    }
  });
}

}  // namespace ptucker::blas::detail
