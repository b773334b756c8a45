#!/usr/bin/env bash
# Builds the benchmark in release mode, runs every workload (untraced and
# traced) R times interleaved, seeds SEED..SEED+R-1, and writes
# out/<git-sha>.json with each metric's median, quartiles and values.
#
#   benchmark/run.sh [--repeats R] [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")"

repeats=3
pass_on=()
while [ $# -gt 0 ]; do
  case "$1" in
    --repeats) repeats="$2"; shift 2 ;;
    *) pass_on+=("$1"); shift ;;
  esac
done

label=$(git -C .. rev-parse --short HEAD 2>/dev/null || echo worktree)
cargo build --release --offline --quiet
exec cargo run --release --offline --quiet -- suite \
  --repeats "$repeats" --label "$label" --out "out/$label.json" "${pass_on[@]}"
