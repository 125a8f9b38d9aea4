#!/usr/bin/env bash
# Builds the benchmark and the servesim daemon from this checkout's sources
# and runs the benchmark. Run it from the repository root:
#
#   bash _e2ebench/run.sh --workload paper-regen --seed 1 --seconds 30 --trace 0
#   bash _e2ebench/run.sh compare <base-dir> <head-dir>
#
# Everything the build and the runs write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/trace" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The daemon is cmd/servesim plus one build-tagged file (overlay/) that
# writes its Go heap counters on SIGUSR1.
cat > "$out/overlay.json" <<EOF
{"Replace": {"$root/cmd/servesim/zz_benchmemstats.go": "$root/_e2ebench/overlay/servesim_memstats.go"}}
EOF
(
  cd "$root/_e2ebench"
  go build -o "$out/bin/e2ebench" .
  go build -tags benchmemstats -overlay "$out/overlay.json" -o "$out/bin/servesim" llmbw/cmd/servesim
)

if [ "${1:-}" = compare ]; then
  exec "$out/bin/e2ebench" "$@"
fi
exec "$out/bin/e2ebench" "$@" -bin "$out/bin" -out "$out/trace"
