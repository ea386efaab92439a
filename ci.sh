#!/usr/bin/env bash
# PR verification lanes — run from the repo root on every PR.
#
#   ./ci.sh            tier-1 tests, the slow marker, and the
#                      gated-benchmark smoke lane
#   ./ci.sh --full     additionally runs the remaining quick benchmark
#                      gates (bench-infer, bench-adapt)
#
# The smoke lane exists so the benchmark regression loop (archive to
# benchmarks/results/*.json, diff p95/fps against the previous run's
# baseline via repro.experiments.regression) is exercised on every PR,
# not just when a human runs the benchmarks by hand; it ends with the
# bench-e2e self-check (benchmarks/e2e/run.py --smoke) and the line
# counts of src/repro/{engine,serve,hw} and of the cgen backend.  Lane 4
# exercises the cgen C plan backend (its line count beside the parent
# commit's, the kernel library's cold build and
# its reuse by a second plan shape, the parity tests twice — single-thread
# and with a 2-wide worker pool — the conv, BN and max-pool kernels under
# ASan + UBSan, the bitwise engine suites under REPRO_BACKEND=cgen-strict,
# plus quick C-served bench runs and the per-kernel micro gates of
# benchmarks/bench_micro_ops.py: convs, train-BN, max-pool); on
# hosts without a C compiler it prints a visible skip notice and runs
# only the compiler-free fallback/registry tests, and on single-core
# hosts the threaded bench smoke loud-skips (the threaded code path is
# still covered by the REPRO_CGEN_THREADS=2 test rerun).

set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== lane 1: tier-1 tests (pytest -x -q) ==="
# wall time and the libraries it left in the cgen cache: against an empty
# $REPRO_CGEN_CACHE that is one .so per (pool width, parity) the suite
# touches (9; 291 per-plan units before the kernel library)
tier1_start=$(date +%s)
python -m pytest -x -q
cgen_cache="${REPRO_CGEN_CACHE:-$HOME/.cache/repro_cgen}"
echo "tier-1: $(( $(date +%s) - tier1_start )) s wall," \
    "$(find "$cgen_cache" -name '*.so' 2>/dev/null | wc -l) .so in $cgen_cache"

echo "=== lane 2: slow marker (pytest -m slow) ==="
python -m pytest -m slow -q

echo "=== lane 3: gated benchmark smoke (bench-serve --quick + check_regression) ==="
python -m repro.experiments bench-serve --quick
# the 2-device quick run exercises the sharded device-pool path (and its
# >= 1.8x scaling gate) on every PR, not just when the full benchmark runs
python -m repro.experiments bench-serve --quick --devices 2
# telemetry must stay inert: the overhead study re-serves the 2-device
# fleet traced vs untraced, asserts bitwise output parity and archives
# both rows under the same regression gate
python -m repro.experiments bench-serve --quick --trace
# fault tolerance: checkpointing must be bitwise inert fault-free, a
# seeded crash+join must recover every hosted session with bounded
# frame loss, and the identical schedule must replay bitwise; rows are
# archived under the same regression gate
python -m repro.experiments bench-serve --quick --recovery
# scenario matrix smoke: 3 scenarios served with and without drift
# resets, per-scenario accuracy/recovery gates asserted and rows
# archived under the same regression gate
python -m repro.experiments bench-scenarios --quick
# seeded crash+join fleet smoke: the elastic-pool path end to end
# through the CLI (fault/recovery tables printed, results are scratch)
python -m repro.experiments fleet --streams 3 --frames 12 --devices 2 \
    --migrate --faults "crash@200:0,join@300:orin-30w" \
    --checkpoint-interval 4 --results-dir "$(mktemp -d)" > /dev/null
# traced fleet smoke: dashboard + Chrome-trace export end to end (the
# trace files are scratch, not archived benchmark results)
python -m repro.experiments fleet --trace --streams 2 --frames 8 \
    --results-dir "$(mktemp -d)" > /dev/null
if [[ "${1:-}" == "--full" ]]; then
    python -m repro.experiments bench-infer --quick
    python -m repro.experiments bench-adapt --quick
fi
python benchmarks/check_regression.py
# bench-e2e self-check at 1/20 size: metric names/units vs BENCHMARK.json,
# span nesting, self times tiling each window within 2 % — so a change
# under src/ that breaks the benchmark's wrappers fails on the PR, not at
# measurement time.  Two of its workloads serve through cgen, so without
# a C compiler it loud-skips, exactly as lane 4 does
if python -c 'import sys; from repro.engine.backends import find_cc; sys.exit(0 if find_cc() else 1)'; then
    python benchmarks/e2e/run.py --smoke
else
    echo "NOTICE: bench-e2e smoke SKIPPED — no C compiler on this host;"
    echo "        its cgen workloads would only measure the numpy fallback"
fi
# the meter of ROADMAP item 2 ("engine + serve + hw down >= 15 % together"),
# the cgen backend (a package since the kernel library) on its own line
for layer in engine serve hw engine/backends/cgen; do
    echo "src/repro/$layer: $(find "src/repro/$layer" -name '*.py' | xargs cat | wc -l) lines"
done

echo "=== lane 4: cgen backend (C plan renderer parity + quick bench) ==="
# ROADMAP item 6 asks a kernel PR to come in at net zero lines here: the
# package now, next to what the parent commit had
cgen_pkg=src/repro/engine/backends/cgen
cgen_was=$(git ls-tree -r --name-only HEAD^ -- "$cgen_pkg" 2>/dev/null \
    | { grep '\.py$' || true; } \
    | while read -r f; do git show "HEAD^:$f"; done | wc -l) || cgen_was="?"
echo "$cgen_pkg: $(find "$cgen_pkg" -name '*.py' | xargs cat | wc -l) lines" \
    "(parent commit: $cgen_was)"
# the C backend needs a host compiler; when there is none the engine
# falls back to numpy closures by design, so this lane degrades to a
# loud skip rather than a silent pass-through
if python - <<'EOF'
import sys
from repro.engine.backends import find_cc
sys.exit(0 if find_cc() else 1)
EOF
then
    # one kernel library per host: its cold build (the parts compiled side
    # by side, then linked) into a fresh cache, and two plan shapes that
    # must find it there instead of compiling anything
    python - <<'PYEOF'
import os, tempfile, time
import numpy as np

with tempfile.TemporaryDirectory() as cache:
    os.environ["REPRO_CGEN_CACHE"] = cache
    from repro.engine import compile_model
    from repro.engine.backends.cgen import K, _cflags, _plan_variant, build
    from repro.models import build_model

    start = time.perf_counter()
    so, hit, err = build._ensure_so(
        K.library_source(2), cache, _cflags(False), _plan_variant(2, False),
        K.LIBRARY_PARTS,
    )
    assert so and not hit, err
    print(f"cgen library: cold cc {time.perf_counter() - start:.2f} s "
          f"({K.LIBRARY_PARTS} parts side by side + link)")
    model = build_model("small-r18", rng=np.random.default_rng(0))
    model.eval()
    h, w = model.config.input_hw
    engine = compile_model(model, backend="cgen", threads=2)
    for batch in (1, 2):
        start = time.perf_counter()
        engine(np.zeros((batch, 3, h, w), dtype=np.float32))
        info = engine.plan_for((batch, 3, h, w), np.float32).backend_info
        assert info["cache_hit"] is True and info["so"] == so, info
        assert info["rendered"] == info["stages"], info
        print(f"cgen plan batch {batch}: {time.perf_counter() - start:.2f} s, "
              f"cache_hit {info['cache_hit']}, program {info['program']}")
PYEOF
    python -m pytest tests/test_backends.py -q
    # the same parity suite with a 2-wide worker pool: exercises the
    # threaded dispatch/barrier/teardown paths even on 1-core hosts
    # (correctness is thread-count-invariant by construction)
    REPRO_CGEN_THREADS=2 python -m pytest tests/test_backends.py -q
    # the library's conv kernels, driven row by row from a generated main,
    # under -fsanitize=address,undefined on exact-size heap buffers: the implicit GEMM's last panel reads up to
    # NR - 1 cells past the last valid position of its padded copy, and
    # only this harness would notice that slack missing.  The same main
    # runs bn_train / bn_bwd (whole-vector loads up to a plane's last
    # full one, a scalar remainder that must stop at its end), the
    # geometry-walked max-pool and the two small-grid conv kernels
    # (convk_* / convt_*: row, result, parked-accumulator and Z blocks in
    # scratch) over the grids on either side of conv_small — built and
    # run a second time at 32-byte vectors where the host has AVX-512 —
    # every buffer starting one element past its block.  Without a
    # sanitizer runtime it skips, and -rs prints the NOTICE
    python -m pytest tests/test_conv_sanitizer.py -q -rs
    # the bitwise-vs-eager engine suites through the strict renderer (and
    # the only lane that resolves the backend from $REPRO_BACKEND): strict
    # plans must stay bitwise on adapted BN states, not just the probe
    REPRO_BACKEND=cgen-strict python -m pytest tests/test_engine.py \
        tests/test_adapt_engine.py -q
    # quick end-to-end run with the C backend serving the compiled
    # column: band parity vs eager is asserted inside the command
    python -m repro.experiments bench-infer --quick --backend cgen
    # thread-scaling bench smoke: adds the MT columns (threaded parity
    # asserted inside); the >= 1.3x wallclock speedup gate itself lives
    # in bench_infer_engine.py and loud-skips on single-core hosts and
    # when the renderer tiled no stage (cgen_mt_stages == 0: every stage
    # is below _MT_MIN_US, so both widths run the same inline code)
    if [[ "$(python -c 'import os; print(os.cpu_count() or 1)')" -ge 2 ]]; then
        python -m repro.experiments bench-infer --quick --backend cgen --threads 2
        # per-kernel gates: the rendered conv kernels vs the numpy/BLAS
        # closure on every serving shape, forward and input gradient,
        # down to layer 4's 2x5 grid (the small-grid kernels), the
        # train-BN and max-pool stages vs their closures from 160
        # elements a plane up, and the *_mt rows (2 threads must win, or
        # the stage runs inline and ties)
        python -m pytest benchmarks/bench_micro_ops.py -q -k backends
    else
        echo "NOTICE: threaded bench smoke and micro-kernel gates SKIPPED —"
        echo "        single-core host; the pool cannot beat single-thread"
        echo "        kernels here"
    fi
else
    echo "NOTICE: cgen lane SKIPPED — no C compiler on this host;"
    echo "        plans will fall back to numpy closures at runtime"
    # the fallback contract itself is still testable without a compiler
    python -m pytest tests/test_backends.py -q -k "Fallback or Config or Registry"
fi

echo "ci.sh: all lanes passed"
