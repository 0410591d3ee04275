#!/usr/bin/env bash
# Records the benchmark baselines: builds the release preset and runs
#   * bench_table1_containment (the P/coNP grid, the chunked-parallel sweep
#     and the incremental sweep by branch count, reporting the
#     `dp_cells_filled`/`dp_cells_reused` and `dp_words_folded`/
#     `dp_rows_skipped` kernel counters) into BENCH_table1.json, and
#   * bench_table45_schema_containment (the schema-aware P/coNP/EXPTIME
#     cells, including the antichain on/off A/B twins) into
#     BENCH_table45.json, and
#   * bench_service (the query-service fast path: zipf stream baseline vs
#     cold vs warm cache, and the probe-prefilter vs sweep A/B on the coNP
#     refutation family, with `dp_words_folded` and the
#     `programs_compiled`/`program_exec_hits` counters recorded per run)
#     into BENCH_service.json, and
#   * bench_compile (pattern compilation: compile latency, the compiled
#     sweep's per-decision DP work units, the compiled vs generic executor
#     pair on one hot tree — `folded_per_decision` must be >= 5x smaller
#     compiled — and the zipf steady state, which must report
#     `programs_compiled_steady` == 0, i.e. compile cost fully amortized
#     into warmup) into BENCH_compile.json, and
#   * bench_persist (the warm-start tier: cold vs warm time-to-first-verdict
#     — the warm restart must win by >= 10x — the transitive-chain stitch
#     conversion with its 30% floor enforced in-bench, the mmap-open vs
#     heap-rebuild twin, and the non-identity remap load: the same snapshot
#     adopted into a shifted label pool must still serve cache hits with
#     snapshot_trees_mapped == 0) into BENCH_persist.json, and
#   * bench_group (the grouped canonical sweep: grouped vs independent
#     rebuilds-per-decision across group sizes — the in-bench amortization
#     floor skips-with-error unless the group-of-8 reduction is >= 5x —
#     the mixed early-retire family, and the daemon coalescing-window
#     round-trip floor) into BENCH_group.json, and
#   * bench_serve (the daemon under adversarial multi-tenancy: the PTIME
#     wire floor solo vs with a coNP aggressor window — the in-bench
#     isolation assert skips-with-error if the light tenant's p95 degrades
#     to the aggressor's whole backlog, i.e. FIFO behaviour — plus the O(1)
#     admission-shed round-trip) into BENCH_serve.json
# at the repo root, for before/after comparison across PRs.
#
# Baselines from non-optimized builds are worse than useless — they look
# like regressions to the next PR — so the script refuses to run unless the
# release preset's cache really selected an optimized CMAKE_BUILD_TYPE.
# (The system Google Benchmark library reports library_build_type=debug no
# matter what, so the check reads the repo's own cache instead; the real
# build type is also stamped into every JSON as tpc_build_type.)
#
# Usage: scripts/bench_baseline.sh [benchmark_filter_regex [suite]]
# The optional regex is passed to --benchmark_filter of every suite run
# (default: all).  The optional suite name (table1, table45, service,
# compile, persist, group or serve) builds and runs that suite alone, so
# only its BENCH_<suite>.json is rewritten (default: all seven).
set -euo pipefail
cd "$(dirname "$0")/.."

filter="${1:-.}"
declare -A bins=(
  [table1]=bench_table1_containment
  [table45]=bench_table45_schema_containment
  [service]=bench_service
  [compile]=bench_compile
  [persist]=bench_persist
  [group]=bench_group
  [serve]=bench_serve
)
suites=(table1 table45 service compile persist group serve)
if [[ $# -ge 2 ]]; then
  if [[ -z ${bins[$2]:-} ]]; then
    echo "usage: $0 [benchmark_filter_regex" \
      "[table1|table45|service|compile|persist|group|serve]]" >&2
    exit 2
  fi
  suites=("$2")
fi

cmake --preset release

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: refusing to record baselines from a '$build_type' build;" >&2
    echo "       the release preset must select Release or RelWithDebInfo" >&2
    exit 1
    ;;
esac

targets=()
for suite in "${suites[@]}"; do targets+=(--target "${bins[$suite]}"); done
cmake --build --preset release -j "$(nproc)" "${targets[@]}"

run_suite() {
  local bin="$1" out="$2"
  "./build/bench/$bin" \
    --benchmark_filter="$filter" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_format=console \
    --benchmark_context=tpc_build_type="$build_type"
  echo "wrote $(pwd)/$out"
}

for suite in "${suites[@]}"; do
  run_suite "${bins[$suite]}" "BENCH_$suite.json"
done
