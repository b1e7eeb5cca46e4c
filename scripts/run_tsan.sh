#!/usr/bin/env bash
# Builds the repo under ThreadSanitizer (-DVIST5_SANITIZE=thread, see the
# top-level CMakeLists) into build-tsan/ and runs the concurrency-sensitive
# test binaries: the rt thread pool, the obs metrics/trace registry, the
# thread-count determinism pins, the shared-tokenizer concurrent encode,
# the serve scheduler/server, and the shared prefix cache (whose
# admit/evict/scrape lock discipline is exercised by prefix_cache_test and
# serve_test's PrefixCacheConcurrency suite — docs/SERVING.md). Any data
# race fails the run.
#
# The rt pool (its concurrent-caller and parked-worker cases among them),
# determinism, serve, serve-stream (event-loop streaming parity and
# slow-reader drop — docs/SERVING.md), prefix-cache, and decode-parity
# binaries (the last carries the speculative draft-verify parity suite —
# docs/SPECULATIVE.md) run once per SIMD backend
# (VIST5_ISA=scalar, then =avx2 on hosts that support it — see
# docs/KERNELS.md), so races in the dispatch layer, the quantized-weight
# caches, and each backend's kernels are all covered. Hosts without AVX2
# skip that leg with a notice rather than failing.
#
# Usage: scripts/run_tsan.sh [extra ctest -R regex]
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
cmake -B "$BUILD_DIR" -S . -DVIST5_SANITIZE=thread
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target rt_test obs_test determinism_test text_test serve_test \
           serve_stream_test prefix_cache_test decode_parity_test

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
status=0
for t in obs_test text_test; do
  echo "===== tsan: $t ====="
  "$BUILD_DIR/tests/$t" || status=$?
done

# avx2 is in the matrix only when the host can run it; the probe mirrors
# simd::CpuSupportsAvx2 (grep is portable across x86 kernels, and non-x86
# hosts simply have no avx2 flag).
ISAS="scalar"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  ISAS="scalar avx2"
else
  echo "===== tsan: host lacks AVX2, skipping the avx2 ISA leg ====="
fi
for isa in $ISAS; do
  for t in rt_test determinism_test serve_test serve_stream_test \
           prefix_cache_test decode_parity_test; do
    echo "===== tsan: $t (VIST5_ISA=$isa) ====="
    VIST5_ISA=$isa "$BUILD_DIR/tests/$t" || status=$?
  done
done

if [ -n "${1:-}" ]; then
  cmake --build "$BUILD_DIR" -j"$(nproc)"
  ctest --test-dir "$BUILD_DIR" -R "$1" --output-on-failure || status=$?
fi

exit $status
