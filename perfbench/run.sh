#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and
# everything the workloads write (service cache, span files) stay under
# .bench_build/ at the root, so a run reads and writes nothing outside the
# checkout. A directory without the ugf source tree fails fast, before
# any result is printed.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/sim ] || [ ! -d internal/service ]; then
	echo "perfbench: no ugf source tree at $root to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
