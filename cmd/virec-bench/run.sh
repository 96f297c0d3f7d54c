#!/usr/bin/env bash
# Builds virec-bench from the sources of the repository it sits in and runs
# it with the given flags. Run it from the repository root:
#
#   bash cmd/virec-bench/run.sh -workload stall -seed 3
#
# The build cache, the binary, Go's own settings and temporary files, and
# the benchmark's output all stay under .bench_build/ in the working
# directory.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp PPROF_TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/virec-bench" .)
exec "$build/virec-bench" -root "$root" "$@"
