#!/usr/bin/env bash
# Builds sptc-serve and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sptc-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sptc-serve and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/sptc-serve" ./cmd/sptc-serve
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --work-dir "$out/work" --serve-bin "$out/bin/sptc-serve" "$@"
