#!/bin/sh
# Builds bin/i3d and the benchmark from source, then runs the benchmark
# from the repository root with the given arguments (README.md lists
# them).  Build output goes to stderr; the last line of stdout is the
# result.
set -eu
cd "$(dirname "$0")/../.."
dune build --root . ./bin/i3d.exe ./bench/e2e/i3bench.exe >&2
exec ./_build/default/bench/e2e/i3bench.exe --i3d ./_build/default/bin/i3d.exe "$@"
