#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-repro --seed 42 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, toolchain config) stays under
# .bench_build at the checkout root, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -root "$root" "$@"
