#!/usr/bin/env bash
# Regenerate EXPERIMENTS.md from the figure/table benches.
#
# Usage: scripts/run_benches.sh [build_dir] [> EXPERIMENTS.md]
# Sizes are scaled for a laptop; pass larger --dim/--ranks by editing below.
set -euo pipefail

BUILD=${1:-build}

run() {
  echo '```'
  echo "\$ $*"
  "$@"
  echo '```'
  echo
}

echo "# EXPERIMENTS — bench output snapshots"
echo
echo "Generated by scripts/run_benches.sh; each block is one paper artifact"
echo "(see README.md for the mapping). Machine-dependent timings vary;"
echo "the shapes of the curves and the paper notes are the point."
echo

run "$BUILD/fig6_modewise_error" --scale 0.02 --ranks 2
run "$BUILD/fig8a_grid_sweep" --dim 12 --reduced 3 --ranks 4 --max_grids 4
run "$BUILD/fig9b_weak_scaling" --base_dim 16 --max_ranks 2
run "$BUILD/ablate_gram_symmetry" --dim 96
run "$BUILD/ablate_factor_routes" --dim 64 --skinny 8 --ranks 8
run "$BUILD/ablate_io_paths" --dim 48 --ranks 4
run "$BUILD/grid_tuning" --ranks 4 --dim 16 --rank 4

# Baselines whose code paths are gone: their last measured numbers, kept
# verbatim so regenerating this file does not lose the history.
cat <<'EOF_RETIRED'
## Retired baselines

The code of the alternatives below was removed; these are their last
snapshots, frozen as history. `Auto` never picked the per-slice kernels,
the flat funnel or the reduce-scatter TTM on a benchmark workload, and no
benchmark workload ran them. The stepwise ring was `Auto`'s schedule at
Pn <= 2: `Auto` picks `ExploitSymmetry` there, which
ran the stepwise ring, so the Pn = 2 modes of the compress-sp and
stream-append workloads ran it. It went because the overlapped ring gives
bit-identical Gram columns with the same traffic at Pn = 2, and a 10-pair
A/B of all five workloads found no metric worse than its bound; three
rows stay unresolved because the parent's own spread exceeds the bound
(docs/GRAM_RING_AB.md).

Per-slice local TTM (one gemm per right-slice, the paper's "multiple
subroutine calls to respect the local layout") vs the batched engine,
from a section of the `ablate_ttm_paths` bench that was removed after
commit 0f5f025 (the bench itself is retired too, see below). Both paths
were bit-identical.

```
Ablation: local TTM path — 128x128x128 x_n M (K = 12), single rank
  mode  slices  per-slice(s)  batched(s)  speedup
  ----  ------  ------------  ----------  -------
  0     16384   0.0386        0.0065      5.95
  1     128     0.0076        0.0073      1.04
  2     1       0.0085        0.0085      1.00
```

Stepwise Gram ring (one blocking send/recv per step) vs the overlapped
ring, from `ablate_gram_overlap --dim 32 --ranks 4`. The overlapped ring
keeps a 2-deep eager send window and pre-posts the next receive while the
current cross-Gram runs, so at most two copies of the local block are in
flight per mailbox. Both rings were bit-identical.

```
Ablation: Gram ring overlap — mode-0 Gram of 32x32x32 with P0 = 4
  variant          time(s)  speedup
  ---------------  -------  -------
  stepwise ring    0.0004   1.00
  overlapped ring  0.0004   1.22
```

Flat root funnel (direct-send gather/scatter loops at rank 0) next to the
binomial-tree funnel and the parallel PTB1 path, from
`ablate_io_paths --dim 48 --ranks 4`.

```
Ablation: IO paths — write+read a 48x48x48 DistTensor on 4 ranks
  path               write(s)  read(s)  words/rank(max)  msgs/rank(max)
  -----------------  --------  -------  ---------------  --------------
  root-funnel(flat)  0.0017    0.0013   82951            9
  root-funnel(tree)  0.0019    0.0018   82957            8
  parallel-chunk     0.0027    0.0007   1                6
```

Chunk-pipelined reduce-scatter TTM (one multiply of all K rows, then a
reduce-scatter) next to Alg. 3's blocked reduces, from
`ablate_ttm_paths --dim 32 --ranks 8`. The "auto picks" column is the
bench's own K*Pn <= Jn test, not `TtmAlgo::Auto`'s choice: `Auto` priced
blocked on every row (Pn = 2). No benchmark workload ran the
reduce-scatter schedule (0 `mps.words_per_rank.reduce_scatter` on all
five), and `Auto` priced it from each rank's local block size, so ranks
with uneven blocks could pick different schedules and deadlock
(docs/TUNING.md). The schedule, the switch and the bench were deleted; the
A/B of that change is in docs/TTM_SCHEDULE_AB.md.

```
Ablation: TTM paths — 32x32x32 x_0 M, K sweep on a 2x2x2 grid
  K   blocked(s)  blocked words/rank  rs(s)   rs words/rank  auto picks
  --  ----------  ------------------  ------  -------------  --------------
  2   0.0017      256                 0.0015  256            reduce-scatter
  4   0.0013      512                 0.0013  512            reduce-scatter
  8   0.0012      1024                0.0010  1024           reduce-scatter
  16  0.0012      2048                0.0011  2048           reduce-scatter
  32  0.0014      4096                0.0013  4096           blocked
```

Duplicate benchmarks, retired when `bench/suite` became the only
performance record. Their programs were deleted and their correctness
gates moved to ctest; `micro_local_kernels` (Google Benchmark, no snapshot
here) measured what `blas.*_gflops` and `blas.gram_pct_peak` report.

One PTA1 archive vs one model file per window, from
`ablate_archive --windows 6 --window 2 --ranks 2 --reps 3`. The
`stream-append` and `serve-cold` workloads now measure the archive's write
and load paths.

```
Ablation: model archive — 6 windows of 2 steps of 24x24x6 on 2 ranks
  layout               write(s)  ranged load(s)  files opened
  -------------------  --------  --------------  ------------
  PTA1 archive         0.0022    0.0001          1
  one .ptz per window  0.0003    0.0001          6
archive vs per-window files: load 0.98x
```

Historical run, kept for the record: query latency by client count with a
cold and a warm panel cache, from a `serve_qps` bench (`--dim 24 --species
6 --windows 4 --queries 200 --max_clients 4`), then the same with
`--queue_depth 1 --shed --deadline_ms 1000` (executor line only). The
bench, load shedding and deadlines have since been removed; `serve-cold`
and `serve-hot` now measure the latency, and `fault_test`'s
`ServeDegradation.*` cases check entry quarantine only.

```
Serve QPS: concurrent reconstruction queries — 4 windows of 4 steps of 24x24x6
  clients  cache  p50(us)  p90(us)  p99(us)  qps     hit%   ddl_miss  shed
  -------  -----  -------  -------  -------  ------  -----  --------  ----
  1        cold   22.0     24.0     52.0     28100   0.0    0         0
  1        warm   3.0      4.0      4.0      165623  100.0  0         0
  2        cold   20.0     24.0     44.0     38593   0.0    0         0
  2        warm   3.0      4.0      7.0      186394  100.0  0         0
  4        cold   15.0     24.0     480.0    37287   1.0    0         0
  4        warm   3.0      4.0      352.0    154570  100.0  0         0
executor (4 clients -> 4 workers, queue 8): p50 7.0 us, p99 2304.0 us, 31646 qps, 0/200 submits blocked, peak queue 3, 0 shed, 0 deadline misses
executor (4 clients -> 4 workers, queue 1, shedding): p50 18.0 us, p99 2304.0 us, 16723 qps, 0/62 submits blocked, peak queue 1, 138 shed, 0 deadline misses
```
EOF_RETIRED
