#!/usr/bin/env bash
# Builds the benchmark of record from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, temporary stores, span dumps) stays under the
# build directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-mod" "$out/tmp" "$out/work"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
