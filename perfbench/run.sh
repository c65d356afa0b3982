#!/usr/bin/env bash
# Builds the benchmark from source and runs it, e.g.
#
#   bash perfbench/run.sh --workload spec_chain --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' spans go to
# .bench_build/ at the repository root; nothing is written elsewhere.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The go command's cache, temporary files and telemetry counters (kept
# under the user config directory) all go to .bench_build/ as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" CGO_ENABLED=0
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
