#!/usr/bin/env bash
# Builds and runs the layered simulation benchmark. Run from the repository
# root:
#
#   bash simbench/run.sh --workload coremark-rocket --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the benchmark binary and Go's config all stay under
# .bench_build/ in the checkout. The build needs the repository's own Go
# module next to simbench/; without it the build fails and so does this
# script, before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" "$@"
