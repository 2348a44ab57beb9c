#!/usr/bin/env bash
# Full verification: configure, build, run all tests, all benchmarks, and
# all examples. This is what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build -j"$(nproc)" --output-on-failure

# TSan pass over the shared thread pool and the parallel kernels. Forces an
# oversubscribed pool so races surface even on small CI machines. MatMul*
# takes in the packed GEMM oracle suite (MatMulKernelTest.*, the
# accumulating TransA included): chunks of column panels, each packed into a
# per-thread buffer.
cmake -B build-tsan -G Ninja -DMAGNETO_SANITIZE=thread
cmake --build build-tsan --target common_test obs_test nn_test core_test \
  platform_test preprocess_test
MAGNETO_THREADS=8 ./build-tsan/tests/common_test \
  --gtest_filter='Parallel*:MatMul*:MatrixTest.*:Logging*'
# Telemetry under TSan with tracing forced on: the metrics registry, the
# per-thread trace rings, the seqlock flight recorder, and the SLO monitor's
# epoch ring must stay race-free while 8 producer threads hammer them
# (FlightRecorderTest.ConcurrentProducers / SloMonitorTest.ConcurrentObservers
# run inside this binary).
MAGNETO_THREADS=8 MAGNETO_TRACE=1 ./build-tsan/tests/obs_test
# The batch preprocessing loop: each ParallelFor chunk of windows owns its
# own WindowFeaturizer and writes only its own rows; a shared featurizer
# would be a race here.
MAGNETO_THREADS=8 ./build-tsan/tests/preprocess_test --gtest_filter='Pipeline*'
# The lock-free embed contract: many threads forward through one shared
# const Sequential, each with its own workspace, no locks anywhere.
MAGNETO_THREADS=8 ./build-tsan/tests/nn_test \
  --gtest_filter='WorkspaceConcurrencyTest.*'
# The concurrent serving path: AsyncUpdater worker-handle lock order,
# EdgeRuntime's updates (synchronous ones too run on the updater's thread),
# concurrent NCM classify over the shared fp32 prototype rows with
# per-thread scratch, and the EdgeFleet stress tests (closed-loop sessions +
# open-loop SubmitWindow producers, both with a bundle promotion landing
# mid-run).
MAGNETO_THREADS=8 ./build-tsan/tests/core_test \
  --gtest_filter='AsyncUpdaterStressTest.*:EdgeRuntimeAsyncTest.*:NcmClassifierTest.Concurrent*'
MAGNETO_THREADS=8 ./build-tsan/tests/platform_test \
  --gtest_filter='EdgeFleet*'
# The cloud server under TSan: the CloudServer once_flag quantize cache and
# the thread-local RemoteInfer workspaces (both former data races), and many
# devices running the edge protocol against one server at once.
MAGNETO_THREADS=8 ./build-tsan/tests/platform_test \
  --gtest_filter='CloudServer*:ProtocolsTest.MultiDeviceConcurrentEdgeProtocolRuns'

# ASan pass over the untrusted-input surface: serializer corruption and
# overflow regressions, the atomic-write fault hook, and the lossy-transport
# state machine. A bounds slip anywhere here is a remote-input memory bug.
cmake -B build-asan -G Ninja -DMAGNETO_SANITIZE=address
cmake --build build-asan --target common_test core_test platform_test \
  nn_test integration_test preprocess_test
./build-asan/tests/common_test \
  --gtest_filter='Crc32*:BinarySerial*:*FileIo*:QGemm*'
# The batch-1 window path: the row denoiser and the feature sweeps index
# caller-owned buffers by hand (the window featurizer reads the raw rows from
# its caller's buffer as they arrive), and the segmentation reader guards the
# sizes those buffers come from.
./build-asan/tests/preprocess_test \
  --gtest_filter='Denoise*:FeatureExtractor*:WindowFeaturizer*:Pipeline*:Segmentation*'
# ModelBundle* includes the section-agreement tests: a backbone, classifier
# or normaliser whose width or method disagrees with the pipeline is
# Corruption at load (and a checkpoint load falls back to its .lkg copy)
# instead of a bundle that loads and fails on every window.
# UpdateTransaction* stages/commits/rolls back full model snapshots — the
# exact place a dangling pointer into swapped-out state would hide.
# The quantized legs cover the int8 deserializers: the wire-v3 bundle
# truncation/bit-flip tests, the SupportSet reader in both row encodings,
# and the kQuantizedLinearTag payload fuzz — the validate-before-allocate fix
# in QuantizedLinear::Deserialize only proves itself under ASan.
# ValidPayloadFuzzTest.* parses every prefix of a valid chunk frame, support
# set (both row encodings), recording and backbone from an exact-size copy,
# so a read past the end traps here. Sequential* covers the backbone's layer
# reader: retired tags and stacks whose widths do not chain.
# EdgeRuntime*/StreamSession* (and EdgeFleet* below) drive the one stream
# session both owners share: it pushes each frame into its featurizer, which
# reads the raw rows out of the session's shifted frame buffer, and replays
# the retained frames of an overlapping stride into it.
./build-asan/tests/core_test \
  --gtest_filter='ModelBundle*:UpdateTransaction*:SupportSet*:EdgeRuntime*:StreamSession*'
./build-asan/tests/nn_test \
  --gtest_filter='QuantizedLinear*:QuantizedMatrix*:Sequential*'
./build-asan/tests/integration_test \
  --gtest_filter='*QuantizedLinearPayloadFuzz*:ValidPayloadFuzzTest.*'
./build-asan/tests/platform_test \
  --gtest_filter='FaultInjector*:BundleTransport*:ChunkFrame*:EdgeFleet*'

# UBSan pass over the whole suite: every test binary that
# tests/CMakeLists.txt declares, built under UBSan and run unfiltered. The
# build aborts on the first report (-fno-sanitize-recover=all), so any UB
# anywhere fails the leg.
test_bins="$(sed -n 's/^magneto_add_test(\([a-z_]*\).*/\1/p' tests/CMakeLists.txt)"
cmake -B build-ubsan -G Ninja -DMAGNETO_SANITIZE=undefined
# shellcheck disable=SC2086  # one target name per word
cmake --build build-ubsan --target $test_bins
for t in $test_bins; do
  echo "== ubsan $t =="
  "./build-ubsan/tests/$t"
done

# CLI telemetry smoke: every run must leave a parseable metrics snapshot and
# a trace with events.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./build/tools/magneto pretrain --out "$smoke_dir/m.magneto" \
  --users 3 --epochs 3 --metrics-out "$smoke_dir/pretrain_metrics.json"
./build/tools/magneto simulate --bundle "$smoke_dir/m.magneto" --seconds 3 \
  --metrics-out "$smoke_dir/metrics.json" --trace-out "$smoke_dir/trace.json"
for f in pretrain_metrics.json metrics.json trace.json; do
  [ -s "$smoke_dir/$f" ] || { echo "missing/empty $f" >&2; exit 1; }
done
grep -q '"schema_version"' "$smoke_dir/metrics.json"
# The GEMM dispatcher reports the instantiation it picked (0 portable,
# 1 avx2, 2 avx512f) the first time a GEMM runs; pretraining runs many.
grep -Eq '"common\.gemm\.isa": [0-2]' "$smoke_dir/pretrain_metrics.json" \
  || { echo "telemetry smoke: missing common.gemm.isa gauge" >&2; exit 1; }
grep -q '"traceEvents"' "$smoke_dir/trace.json"
grep -q '"ph":"B"' "$smoke_dir/trace.json"

# Fault-injection smoke: a 20% drop + 5% corruption link must still deliver
# the bundle (seeded, so this never flakes), and the retry machinery must
# actually have fired — a zero retry count means the injector was bypassed.
./build/tools/magneto simulate --bundle "$smoke_dir/m.magneto" --seconds 3 \
  --fault-drop-rate 0.2 --fault-corrupt-rate 0.05 --net-seed 7 \
  --metrics-out "$smoke_dir/fault_metrics.json"
grep -Eq '"net\.retries": [1-9]' "$smoke_dir/fault_metrics.json" \
  || { echo "fault smoke: expected nonzero net.retries" >&2; exit 1; }
grep -Eq '"net\.transport\.deliveries": [1-9]' "$smoke_dir/fault_metrics.json" \
  || { echo "fault smoke: delivery did not complete" >&2; exit 1; }

# Quantized-bundle smoke: compress to the wire-v3 int8 bundle, provision it
# over the same faulty link, and prove the quantized payload arrives
# byte-identical (the transport retried, not silently passed corruption) and
# still classifies.
./build/tools/magneto compress --bundle "$smoke_dir/m.magneto" \
  --method int8 --out "$smoke_dir/q.magneto" | tee "$smoke_dir/compress.txt"
grep -q 'wire v3' "$smoke_dir/compress.txt" \
  || { echo "quant smoke: compress did not emit a wire-v3 bundle" >&2; exit 1; }
./build/tools/magneto inspect "$smoke_dir/q.magneto" | grep -q 'wire v3' \
  || { echo "quant smoke: inspect does not report wire v3" >&2; exit 1; }
./build/tools/magneto simulate --bundle "$smoke_dir/q.magneto" --seconds 3 \
  --fault-drop-rate 0.2 --fault-corrupt-rate 0.05 --net-seed 7 \
  --metrics-out "$smoke_dir/quant_metrics.json" | tee "$smoke_dir/quant_sim.txt"
grep -q 'delivery: wire v3, byte-identical: yes' "$smoke_dir/quant_sim.txt" \
  || { echo "quant smoke: v3 bundle not delivered byte-identical" >&2; exit 1; }
grep -Eq '"net\.retries": [1-9]' "$smoke_dir/quant_metrics.json" \
  || { echo "quant smoke: expected nonzero net.retries" >&2; exit 1; }
# The int8 forward sums in exact integers, so the quantized deployment must
# classify identically on one pool lane and on four.
MAGNETO_THREADS=1 ./build/tools/magneto simulate --bundle "$smoke_dir/q.magneto" \
  --seconds 2 > "$smoke_dir/quant_sim_t1.txt"
MAGNETO_THREADS=4 ./build/tools/magneto simulate --bundle "$smoke_dir/q.magneto" \
  --seconds 2 > "$smoke_dir/quant_sim_t4.txt"
diff "$smoke_dir/quant_sim_t1.txt" "$smoke_dir/quant_sim_t4.txt" \
  || { echo "quant smoke: int8 output differs across thread counts" >&2; exit 1; }

# Fleet smoke: concurrent sessions over one shared deployment with a mid-run
# promotion. The serving path must actually have been exercised — zero
# fleet.requests means the sessions never classified anything.
./build/tools/magneto fleet --bundle "$smoke_dir/m.magneto" --sessions 6 \
  --seconds 3 --metrics-out "$smoke_dir/fleet_metrics.json"
grep -Eq '"fleet\.requests": [1-9]' "$smoke_dir/fleet_metrics.json" \
  || { echo "fleet smoke: expected nonzero fleet.requests" >&2; exit 1; }
grep -Eq '"fleet\.promotions": [1-9]' "$smoke_dir/fleet_metrics.json" \
  || { echo "fleet smoke: mid-run promotion did not land" >&2; exit 1; }

# Open-loop fleet smoke: an unthrottled generator (--rate 0) must overdrive
# the serve workers so cross-session micro-batching actually engages — the
# run fails unless the mean embed batch exceeds one window.
./build/tools/magneto fleet --bundle "$smoke_dir/m.magneto" --sessions 6 \
  --seconds 4 --open-loop 1 --rate 0 --windows 600 --serve-threads 6 \
  --concurrent-batches 2 --threads 1 \
  --metrics-out "$smoke_dir/fleet_open_metrics.json" \
  --trace-out "$smoke_dir/fleet_open_trace.json" \
  --flight-record-out "$smoke_dir/fleet_open_flight.json" \
  | tee "$smoke_dir/fleet_open.txt"
mean_batch="$(grep -o 'mean batch [0-9.]*' "$smoke_dir/fleet_open.txt" \
  | awk '{print $3}')"
awk -v m="$mean_batch" 'BEGIN { exit (m > 1.0) ? 0 : 1 }' \
  || { echo "open-loop fleet smoke: mean batch $mean_batch is not > 1" >&2; exit 1; }
grep -Eq '"fleet\.requests": [1-9]' "$smoke_dir/fleet_open_metrics.json" \
  || { echo "open-loop fleet smoke: nothing was classified" >&2; exit 1; }
# Request-scoped observability smoke: the exported trace must hold the
# exporter's invariants (balanced B/E stacks, every flow begin finished,
# monotonic per-track timestamps), the flight recorder must have captured
# served requests with stage timings, and the per-stage histograms + SLO
# health gauge must be present in the snapshot.
python3 tools/validate_trace.py "$smoke_dir/fleet_open_trace.json"
grep -q '"ph":"s"' "$smoke_dir/fleet_open_trace.json" \
  || { echo "obs smoke: trace has no flow-begin events" >&2; exit 1; }
grep -q '"outcome": "ok"' "$smoke_dir/fleet_open_flight.json" \
  || { echo "obs smoke: flight record has no served requests" >&2; exit 1; }
grep -q '"fleet.stage.embed_us"' "$smoke_dir/fleet_open_metrics.json" \
  || { echo "obs smoke: missing per-stage histograms" >&2; exit 1; }
grep -q '"slo.health_state"' "$smoke_dir/fleet_open_metrics.json" \
  || { echo "obs smoke: missing SLO health gauge" >&2; exit 1; }
grep -q '^slo: ' "$smoke_dir/fleet_open.txt" \
  || { echo "obs smoke: missing SLO health summary line" >&2; exit 1; }

# Transactional-update smoke: inject a failure mid-update and prove the
# all-or-nothing contract end to end. The checkpoint written before the
# failed update must be byte-identical to the input bundle (nothing staged
# leaked), still load, and classify exactly like the original. The rollback
# must be counted, and the recovery must NOT have needed the .lkg fallback.
./build/tools/magneto learn --bundle "$smoke_dir/m.magneto" \
  --out "$smoke_dir/rollback.magneto" --fail-step train \
  --metrics-out "$smoke_dir/learn_fail_metrics.json"
cmp "$smoke_dir/m.magneto" "$smoke_dir/rollback.magneto" \
  || { echo "learn smoke: rolled-back checkpoint differs from pre-update bundle" >&2; exit 1; }
./build/tools/magneto simulate --bundle "$smoke_dir/m.magneto" --seconds 2 \
  > "$smoke_dir/sim_before.txt"
./build/tools/magneto simulate --bundle "$smoke_dir/rollback.magneto" \
  --seconds 2 > "$smoke_dir/sim_after.txt"
diff "$smoke_dir/sim_before.txt" "$smoke_dir/sim_after.txt" \
  || { echo "learn smoke: rolled-back checkpoint classifies differently" >&2; exit 1; }
grep -Eq '"learner\.rollbacks": [1-9]' "$smoke_dir/learn_fail_metrics.json" \
  || { echo "learn smoke: expected nonzero learner.rollbacks" >&2; exit 1; }
grep -Eq '"learner\.commits": 0' "$smoke_dir/learn_fail_metrics.json" \
  || { echo "learn smoke: failed update must not count as a commit" >&2; exit 1; }
if grep -Eq '"edge\.checkpoint\.fallbacks": [1-9]' "$smoke_dir/learn_fail_metrics.json"; then
  echo "learn smoke: recovery should not have needed the .lkg fallback" >&2
  exit 1
fi
# The committed path: same capture without the fault lands, checkpoints the
# updated model to --out, and rotates the pre-update state to the .lkg slot.
./build/tools/magneto learn --bundle "$smoke_dir/m.magneto" \
  --out "$smoke_dir/updated.magneto" \
  --metrics-out "$smoke_dir/learn_ok_metrics.json"
grep -Eq '"learner\.commits": [1-9]' "$smoke_dir/learn_ok_metrics.json" \
  || { echo "learn smoke: expected nonzero learner.commits" >&2; exit 1; }
cmp "$smoke_dir/m.magneto" "$smoke_dir/updated.magneto.lkg" \
  || { echo "learn smoke: .lkg must hold the pre-update bundle" >&2; exit 1; }
./build/tools/magneto inspect "$smoke_dir/updated.magneto" | grep -q 'Gesture Hi' \
  || { echo "learn smoke: committed bundle lacks the new activity" >&2; exit 1; }

# Only the benches bench/CMakeLists.txt declares: a binary left in build/
# by a deleted bench must not keep running here.
for b in $(sed -n 's/^magneto_add_bench(\([a-z_]*\).*/\1/p' \
    bench/CMakeLists.txt); do
  echo "== build/bench/$b =="
  "build/bench/$b"
done

# bench_quant enforces its own acceptance gates (int8 per-window speedup vs
# the bench's own serial fp32-dequant forward, bundle ratio, accuracy delta);
# here just pin the artifact schema.
for key in '"schema_version"' '"speedup_int8_vs_reference"' \
    '"bundle_ratio"' '"accuracy_delta"'; do
  grep -q "$key" BENCH_quant.json \
    || { echo "bench_quant: BENCH_quant.json missing $key" >&2; exit 1; }
done

for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "== $e =="
  "$e"
done
