#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload engine-grid --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the toolchain's scratch files and
# traced-run spans all stay under .bench_build/ in the checkout.
# Outside a full checkout (no simulator
# sources next to perfbench/) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD)"
fi

cd "$root"
exec "$out/perfbench" --commit "$commit" --spans-dir "$out/spans" "$@"
