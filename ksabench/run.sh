#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash ksabench/run.sh --workload theorem --seed 1 --seconds 30 --trace 0
#
# Every build artefact, the Go build cache, the toolchain's temporary and
# config files (telemetry counters) stay under .bench_build in the
# checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go -C "$root/ksabench" build -o "$out/ksabench" .

# Run context: the git commit when the checkout is a work tree, and a
# digest of the Go sources either way.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
digest=$(cd "$root" && find . \( -name .git -o -name .bench_build \) -prune -o \
  -type f \( -name '*.go' -o -name go.mod \) -print0 | LC_ALL=C sort -z |
  xargs -0 sha256sum | sha256sum | cut -c1-16)
export KSABENCH_COMMIT="$commit" KSABENCH_SOURCE="$digest"
exec "$out/ksabench" "$@"
