#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh repeat -k 10 -seconds 10
#
# Everything the build and the runs write (Go build cache, binary, store
# directories, span files) stays under .bench_build/ in the current
# directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"

# The module needs nothing beyond the repository itself, so the build runs
# offline; XDG_CONFIG_HOME keeps the go command's own state in $out too.
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
