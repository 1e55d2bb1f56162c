#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload node-4lco --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files (the go command's
# and the C compiler's), the go command's configuration and telemetry,
# and span files all go under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout. The build needs no network.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
