#!/bin/sh
# Prints the tracked size of the verifier: non-test Go lines and files,
# leaving out the benchmark module (perfbench/) and its build directory
# (.bench_build/). Run it from the repository root, or via `make loc`.
set -eu
files=$(find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune \
	-o -name '*.go' ! -name '*_test.go' -type f -print)
lines=$(printf '%s\n' "$files" | tr '\n' '\0' | xargs -0 cat | wc -l)
printf 'non-test Go: %d lines in %d files\n' "$lines" "$(printf '%s\n' "$files" | wc -l)"
