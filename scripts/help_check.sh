#!/bin/sh
# help-check: builds the front ends whose flags come from shared bindings
# (ttacampaign, ttactl submit, ttamc, ttalint, ttasim, ttasimfuzz,
# ttaserved), prints each one's -h text, and diffs the result against
# scripts/help.golden. Any change to a flag's name, default or help line
# shows up here. After an intended change, regenerate the golden with
#
#	sh scripts/help_check.sh -update
#
# Run it from the repository root, or via `make help-check`.
set -eu

golden=scripts/help.golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for cmd in ttacampaign ttactl ttamc ttalint ttasim ttasimfuzz ttaserved; do
	go build -o "$tmp/$cmd" "./cmd/$cmd"
done

# The usage line names the binary's path; keep only its base name. The
# exit status is not recorded: flag's -h exits 0 on ExitOnError sets and
# ttactl's subcommand sets report it as an error.
{
	for cmd in ttacampaign ttamc ttalint ttasim ttasimfuzz ttaserved; do
		echo "== $cmd -h"
		"$tmp/$cmd" -h 2>&1 || true
	done
	echo "== ttactl submit -h"
	TTASERVED_ADDR=127.0.0.1:1 "$tmp/ttactl" submit -h 2>&1 || true
} | sed "s|^Usage of $tmp/|Usage of |" >"$tmp/help.txt"

if [ "${1:-}" = "-update" ]; then
	cp "$tmp/help.txt" "$golden"
	echo "help-check: wrote $golden"
	exit 0
fi
if ! diff -u "$golden" "$tmp/help.txt"; then
	echo "help-check: -h output differs from $golden (regenerate with: sh scripts/help_check.sh -update)"
	exit 1
fi
echo "help-check: -h output matches $golden"
