#!/usr/bin/env bash
# Committed deterministic baselines under bench/baselines/.
#
# Every artifact here is a pure function of its flags and the toolchain.
# `check` regenerates them into a temporary directory and compares each
# against the committed copy; `update` rewrites bench/baselines/ in place.
# A baseline that changes is a deliberate change: say why in CHANGES.md.
#
# The simulation artifacts (fig2, fig5, mobility, fault, incidents) print
# milliseconds to three decimals from the simulator's own RNG, so a Release
# build must reproduce them byte for byte: `mecdns_report --diff-bytes`.
# BENCH_throughput.json also carries allocs/query and bytes/query from the
# counting allocator, which follow the C++ standard library's allocation
# pattern, so another libstdc++ may move them: it is held to the
# `mecdns_report --diff` regression rules (5% by default) instead.
#
# The committed files were generated with g++ 12.2.0 (Debian 12), glibc
# 2.36, -DCMAKE_BUILD_TYPE=Release.
#
# The configurations are the paper-figure defaults (fig2, fig5) and the
# gate configurations of tools/check.sh: throughput as in stage 6,
# mobility as in stage 7, the fault matrix and incidents as in stage 8.
#
# Usage: tools/baselines.sh check|update [release-build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-check}"
build="${2:-build}"
baselines="bench/baselines"

generate() {
  local out="$1"
  "$build/bench/bench_fig2_lookup_latency" \
      --json-out "$out/BENCH_fig2.json" > /dev/null
  "$build/bench/bench_fig5_deployments" \
      --json-out "$out/BENCH_fig5.json" > /dev/null
  "$build/bench/bench_throughput" --ues 20000 --rate-hz 0.05 \
      --duration-s 10 --journal \
      --json-out "$out/BENCH_throughput.json" > /dev/null
  "$build/bench/bench_mobility_churn" --ues 150 --rate-hz 8 \
      --duration-s 12 --event-start-s 3 --event-end-s 8 --seed 42 \
      --json-out "$out/BENCH_mobility.json" \
      --incidents-out "$out/BENCH_mobility_incidents.json" > /dev/null
  "$build/bench/bench_fault_availability" --requests 40 --spacing-ms 500 \
      --fault-start-ms 8000 --fault-end-ms 14000 --seed 42 \
      --json-out "$out/BENCH_fault_availability.json" \
      --incidents-out "$out/BENCH_incidents.json" > /dev/null
}

case "$mode" in
  update)
    mkdir -p "$baselines"
    generate "$baselines"
    echo "+ regenerated $baselines"
    ;;
  check)
    fresh="$(mktemp -d)"
    trap 'rm -rf "$fresh"' EXIT
    generate "$fresh"
    for baseline in "$baselines"/BENCH_*.json; do
      name="$(basename "$baseline")"
      compare=--diff-bytes
      [ "$name" = BENCH_throughput.json ] && compare=--diff
      "$build/tools/mecdns_report" "$compare" "$baseline" \
          --against "$fresh/$name"
    done
    ;;
  *)
    echo "usage: $0 check|update [release-build-dir]" >&2
    exit 2
    ;;
esac
