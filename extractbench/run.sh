#!/usr/bin/env bash
# Builds cmd/extractd and the extractbench load generator from the
# checkout's source, then runs one benchmark invocation, for example:
#
#   bash extractbench/run.sh --workload ingest_routed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache and run
# artefacts (spans files, daemon data directories) stay under
# .bench_build in that directory; nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/extractd" ]]; then
	echo "extractbench: no extractd source under $root (run from the repository root)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on, the go command starts a detached upload process that
# outlives the build; switching it off (in the config dir above) stops that.
go telemetry off >&2
go build -o "$out/extractd" ./cmd/extractd >&2
(cd "$root/extractbench" && go build -o "$out/extractbench" .) >&2
exec "$out/extractbench" -extractd "$out/extractd" -out "$out" "$@"
