#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository:
#
#	bash perfbench/run.sh --workload http-real --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and result file stays under .bench_build in
# the checkout, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
