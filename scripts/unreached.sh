#!/bin/sh
# Lists the maqs:: functions of src/ that no shipped binary keeps. Every
# example, every bench, qidlc and perfbench/ are linked with
# -ffunction-sections and --gc-sections, so each binary keeps only the
# functions it can reach; -O0 stops inlining from hiding a live one. A
# function an object file of src/ defines that none of the binaries kept is
# printed, demangled, under that object file. Tests are not linked: code
# reachable only from its own tests shows up here.
#
# Usage: scripts/unreached.sh [build-dir]
#   build-dir  build tree, default ./build-unreached; perfbench/ is
#              configured as its own project under <build-dir>/perfbench
#              (its sources are only read)
#
# The -O0 build of every library and binary takes minutes.
set -e

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-unreached}
JOBS=$(nproc)

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS=-ffunction-sections \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
}

# Each examples/<name>.cpp and bench/bench_*.cpp is the target <name>.
targets=qidlc
binaries="$BUILD_DIR/src/qidl/qidlc $BUILD_DIR/perfbench/perfbench"
for src in examples/*.cpp bench/bench_*.cpp; do
  name=$(basename "$src" .cpp)
  targets="$targets $name"
  binaries="$binaries $BUILD_DIR/$(dirname "$src")/$name"
done
configure . "$BUILD_DIR"
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j "$JOBS" --target $targets >/dev/null
configure perfbench "$BUILD_DIR/perfbench"
cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" --target perfbench >/dev/null

# Function symbols (global, local, weak) an object or binary defines.
functions() {
  nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u
}

kept=$(mktemp)
unreached=$(mktemp)
trap 'rm -f "$kept" "$unreached"' EXIT
# shellcheck disable=SC2086
functions $binaries >"$kept"

# Mangled names of functions declared in namespace maqs, or local to one
# (lambdas); std:: templates instantiated on maqs types are left out.
find "$BUILD_DIR/src" -name '*.o' | sort | while read -r obj; do
  functions "$obj" | comm -23 - "$kept" | grep -E '^_ZZ?NK?4maqs' |
    c++filt | sort -u >"$unreached"
  if [ -s "$unreached" ]; then
    # <build>/src/<dir>/CMakeFiles/<lib>.dir/<file>.o -> src/<dir>/<file>
    echo "$obj" |
      sed 's|.*/src/\(.*\)/CMakeFiles/[^/]*\.dir/|src/\1/|; s|\.o$||'
    sed 's/^/  /' "$unreached"
  fi
done
