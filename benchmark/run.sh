#!/usr/bin/env bash
# Build the benchmark and run it with the arguments given; this is the
# `command` of BENCHMARK.json. Run it from the root of the repository.
#
# The package is built against the published crates the workspace depends
# on. Only where no registry can be reached (the sandbox this repository
# grows in) is it built with offline/config.toml instead, which swaps in
# the stand-ins under offline/. The choice is made once per build directory
# and kept beside the build outputs, so every run of a checkout links the
# same crates; the result file records it as `serde_is_stub`.
set -euo pipefail

manifest=benchmark/Cargo.toml
target=${CARGO_TARGET_DIR:-benchmark/target}
deps=$target/swallow-benchmark.deps

if [ ! -f "$deps" ]; then
    mkdir -p "$target"
    if CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=15 \
        cargo fetch --quiet --manifest-path "$manifest" 2>/dev/null; then
        echo registry >"$deps"
    else
        rm -f benchmark/Cargo.lock
        echo offline >"$deps"
    fi
fi

flags=()
if [ "$(cat "$deps")" = offline ]; then
    flags=(--offline --config benchmark/offline/config.toml)
fi
# glibc hands freed memory back to the kernel and faults it in again on the
# next rep; on fabric-idle (750 MB a rep) that alone moved rep times by
# 5-10 %. Keeping freed memory makes every rep after the first see the same
# warm heap (wall_s spread across ten seeds 4-6 % -> under 1 %). The result
# file records the setting.
export MALLOC_TRIM_THRESHOLD_=2147483647

# Start every function on a 64-byte boundary. Without it, where a hot loop
# falls relative to a cache line depends on the order the linker puts the
# functions in, which follows symbol hashes that contain the path of the
# checkout: two builds of one source in two directories differed by 15 % on
# fabric-loaded (4.71 s against 5.40 s a rep). With it they agree to 0.2 %.
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6"

CARGO_TARGET_DIR=$target cargo build --release --quiet ${flags[@]+"${flags[@]}"} \
    --manifest-path "$manifest" >&2
exec "$target/release/swallow-benchmark" "$@"
