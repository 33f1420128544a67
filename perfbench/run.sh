#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig6-bdd --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, scratch data directories and trace files
# all live under .bench_build/ in the repository root, so the benchmark
# reads and writes nothing outside the tree. Without the repository's own
# go.mod beside perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
# Not exec: the benchmark reads RUSAGE_CHILDREN for its serve workers'
# peak memory, and an exec'd process would inherit the compiler's.
"$out/perfbench" "$@"
