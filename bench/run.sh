#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the runner from this checkout's
# source and runs it with the driver's arguments. Everything the build and
# the run write stays under bench/.build/ and bench/out/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/bench/.build/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$root/bench/.build/bin"
(cd "$root/bench" && go build -o "$root/bench/.build/bin/trustbench" .)
cd "$root"
exec "$root/bench/.build/bin/trustbench" "$@"
