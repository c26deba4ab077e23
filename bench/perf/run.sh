#!/usr/bin/env bash
# Build secmem-perf (Release) into build-bench/ and run it. Every
# argument is forwarded to the binary:
#
#     bash bench/perf/run.sh --workload enc-mem --seed 1 --seconds 30 --trace 0
#     bash bench/perf/run.sh --smoke
#
# Build output goes to stderr so that the last line of stdout is the
# benchmark's JSON result. The binary writes its result and span files to
# build-bench/results/, relative to the repository root it runs from.
set -euo pipefail

cd "$(dirname "$0")/../.."
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: no secmem source tree at $(pwd)" >&2
    exit 1
fi

build=build-bench
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S bench/perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target secmem-perf >&2

exec "$build/secmem-perf" "$@"
