#!/usr/bin/env bash
# Builds the gem-perf benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload incast-spill --seed 1 --seconds 20 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ at the root of
# the checkout, so the run reads and writes nothing outside it. Without the
# gem module beside this directory the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$out/gem-perf" .) >&2
exec "$out/gem-perf" "$@"
