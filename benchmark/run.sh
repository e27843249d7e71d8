#!/usr/bin/env bash
# Builds the PolyAST benchmark (build-bench/ at the repository root) and
# runs it. JIT caches and traces go to build-bench/work/.
#
#   bash benchmark/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#       one workload; the last stdout line is its JSON result
#   bash benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       every workload in turn; with --trace 1 also a traced run of each,
#       and the tracing overhead between the two
#   bash benchmark/run.sh --repeat K [--write-bounds] [...]
#       K alternating runs per workload with their spread (sweep.py)
#
# Exits non-zero when a run fails verification.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
work="$build/work"
bench="$build/polyast_bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "error: the PolyAST sources are not next to $here" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 1)
(( jobs > 4 )) && jobs=4
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target polyast_bench >&2

has() {
  local a
  for a in "${@:2}"; do [[ $a == "$1" || $a == "$1="* ]] && return 0; done
  return 1
}

if has --repeat "$@"; then
  exec python3 "$here/sweep.py" --bench "$bench" --spec "$root/BENCHMARK.json" \
    --work-dir "$work" "$@"
fi
if has --workload "$@"; then
  exec "$bench" --work-dir "$work" "$@"
fi

seed=1
trace=0
rest=()
while (( $# )); do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seed=*) seed=${1#*=}; shift ;;
    --trace) trace=$2; shift 2 ;;
    --trace=*) trace=${1#*=}; shift ;;
    *) rest+=("$1"); shift ;;
  esac
done

status=0
for workload in suite-compile scop-scale jit-cold run-serial run-parallel; do
  out=$("$bench" --work-dir "$work" --workload "$workload" --seed "$seed" \
        --trace 0 "${rest[@]}") || status=1
  echo "$out"
  if [[ $trace == 1 ]]; then
    traced=$("$bench" --work-dir "$work" --workload "$workload" \
             --seed "$seed" --trace 1 "${rest[@]}") || status=1
    echo "$traced"
    awk -v w="$workload" '
      $1 == "metric" && $2 == "op_ms_p50_geomean" { plain = $3 }
      $1 == "metric" && $2 == "trace.op_ms_p50_geomean" { traced = $3 }
      END { if (plain > 0) printf "info %s tracing_overhead %.4f " \
              "(traced / untraced op_ms_p50_geomean - 1)\n", w, traced / plain - 1 }
    ' <<<"$out"$'\n'"$traced"
  fi
done
exit $status
