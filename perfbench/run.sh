#!/usr/bin/env bash
# Builds the benchmark and summit-repro from the sources of the checkout it
# is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload <train-cnn|train-wide|repro> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Builds, the Go build cache and run
# artefacts (checkpoints, spans) all stay under .bench_build/ there.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Without the program's sources there is nothing to build or measure.
if [[ ! -f go.mod || ! -d cmd/summit-repro ]]; then
	echo "run.sh: no summitscale sources in $PWD; run it from the root of a checkout" >&2
	exit 1
fi

# The go command forks a telemetry process that may outlive it; with
# telemetry off in the private config dir, every go command ends with itself.
mkdir -p "$out/bin" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/summit-repro" ./cmd/summit-repro
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --repro-bin "$out/bin/summit-repro" --workdir "$out/work" "$@"
