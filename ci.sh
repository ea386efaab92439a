#!/usr/bin/env bash
# PR verification lanes — run from the repo root on every PR.
#
#   ./ci.sh            tier-1 tests (with their 15 slowest listed), the
#                      slow marker, the CLI smoke lane (bench-adapt
#                      --quick among them) and the cgen lane
#   ./ci.sh --full     additionally runs the quick bench-infer CLI smoke
#
# Timing claims rest on the bench-e2e pair protocol
# (benchmarks/e2e/compare.py over alternating parent/change runs), not on
# this script.  The serving studies' properties (slack admission, device
# scaling, inert tracing, crash recovery, drift resets, thread pricing)
# are tier-1 tests (tests/test_experiments.py); lane 3 runs one CLI smoke
# per subcommand not already run by a test (bench-adapt --quick, which
# prints a plan's per-stage table, on every run), then the bench-e2e
# self-check (benchmarks/e2e/run.py --smoke), the line counts of
# src/repro/{engine,serve,hw,nn}, the combined byte digest of
# benchmarks/byte_digest.py and the memory line of
# benchmarks/stream_memory.py, each beside the parent commit's (printed,
# not gated: a change may move bytes on purpose).  Lane 4 exercises
# the cgen C plan backend (its line count beside the parent commit's,
# the kernel library's cold build and its reuse by a second plan shape,
# the parity tests with a 2-wide worker pool (tier-1 ran them
# single-thread), the conv, BN and max-pool kernels under ASan + UBSan,
# plus quick C-served bench runs and the per-kernel micro gates of
# benchmarks/bench_micro_ops.py: convs, train-BN, max-pool); on hosts
# without a C compiler it prints a visible skip notice and runs only the
# compiler-free fallback/registry tests, and on single-core hosts the
# threaded bench smoke loud-skips (the threaded code path is still
# covered by the REPRO_CGEN_THREADS=2 test rerun).  Every lane prints its
# wall time, and the script fails if any lane changed the git status of
# the checkout (a tracked file rewritten, an unignored file left behind).

set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# the checkout as found: git status plus the bytes of every change to a
# tracked file, so a lane rewriting an already-modified file shows too
checkout_state() {
    git status --porcelain
    git diff HEAD --binary | cksum
}
in_git=$(git rev-parse --is-inside-work-tree 2>/dev/null || echo false)
if [[ "$in_git" == true ]]; then
    state_before=$(checkout_state)
fi

# a package's python line count, beside what the parent commit had
meter() {
    local pkg="src/repro/$1" was
    was=$(git ls-tree -r --name-only HEAD^ -- "$pkg" 2>/dev/null \
        | { grep '\.py$' || true; } \
        | while read -r f; do git show "HEAD^:$f"; done | wc -l) || was="?"
    echo "$pkg: $(find "$pkg" -name '*.py' | xargs cat | wc -l) lines" \
        "(parent commit: $was)"
}

lane_start=$SECONDS
lane_done() {
    echo "--- $1: $(( SECONDS - lane_start )) s wall ---"
    lane_start=$SECONDS
}

echo "=== lane 1: tier-1 tests (pytest -x -q --durations=15) ==="
# the 15 slowest tests are listed (where tier-1's wall time goes), then
# the libraries it left in the cgen cache: against an empty
# $REPRO_CGEN_CACHE that is one .so per (pool width, compute-type set)
# the suite touches (11-13: the hypothesis sweep's dtype draws decide
# which sets appear; 6 when every library held both types, one per
# width; 291 per-plan units before the kernel library)
python -m pytest -x -q --durations=15
cgen_cache="${REPRO_CGEN_CACHE:-$HOME/.cache/repro_cgen}"
echo "tier-1: $(find "$cgen_cache" -name '*.so' 2>/dev/null | wc -l) .so in $cgen_cache"
lane_done "lane 1"

echo "=== lane 2: slow marker (pytest -m slow) ==="
python -m pytest -m slow -q
lane_done "lane 2"

echo "=== lane 3: CLI smokes (bench-scenarios, bench-adapt, fleet) + bench-e2e --smoke ==="
# one CLI smoke per subcommand no test runs: bench-serve --quick is
# tests/test_utils_train_visualize_cli.py (slow marker, lane 2),
# bench-infer --quick is tier-1, and the studies' claims are tier-1
# tests, so what is left here is the scenario matrix's table printer and
# bench-adapt's per-stage table (each backend's plan stage table, timed
# by plan.stage_ms; parity against eager asserted inside, ~15 s)
python -m repro.experiments bench-scenarios --quick
python -m repro.experiments bench-adapt --quick
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
fi
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
# the line meter of ROADMAP item 6 ("engine + serve + hw down >= 15 %
# together") and item 12's engine + nn, each package beside the parent
# commit's count
for layer in engine serve hw nn; do
    meter "$layer"
done
# the served bytes' digest, beside the parent commit's (its src/ and
# digest script extracted to a temporary tree), then the memory line of
# benchmarks/stream_memory.py (traced compile high-water of the small-r18
# batch-4 inference and group-2 adaptation plans, the bytes one
# add_stream retains), this checkout's script over both trees; printed only
echo "byte digest: $(python benchmarks/byte_digest.py | tail -n 1)"
parent_tree=$(mktemp -d)
if [[ "$in_git" == true ]] && git archive HEAD^ -- src benchmarks/byte_digest.py \
        2>/dev/null | tar -x -C "$parent_tree"; then
    echo "byte digest (parent commit): $(cd "$parent_tree" \
        && python benchmarks/byte_digest.py | tail -n 1)"
    parent_ok=true
else
    echo "byte digest (parent commit): ?"
    parent_ok=false
fi
python benchmarks/stream_memory.py
if [[ "$parent_ok" == true ]]; then
    cp benchmarks/stream_memory.py "$parent_tree/benchmarks/"
    echo "parent commit's $(python "$parent_tree/benchmarks/stream_memory.py")"
fi
rm -rf "$parent_tree"
lane_done "lane 3"

echo "=== lane 4: cgen backend (C plan renderer parity + quick bench) ==="
# ROADMAP item 6 asks a kernel PR to come in at net zero lines here: the
# package now, next to what the parent commit had
meter engine/backends/cgen
# the C backend needs a host compiler; when there is none the engine
# falls back to numpy closures by design, so this lane degrades to a
# loud skip rather than a silent pass-through
if python - <<'EOF'
import sys
from repro.engine.backends import find_cc
sys.exit(0 if find_cc() else 1)
EOF
then
    # one kernel library per (pool width, compute-type set): the cold build
    # (the parts compiled side by side, then linked) of {double}, the set
    # every served model computes in, beside {double, float}'s, into a
    # fresh cache, and two plan shapes that must find {double}'s there
    # instead of compiling anything
    python - <<'PYEOF'
import os, tempfile, time
import numpy as np

with tempfile.TemporaryDirectory() as cache:
    os.environ["REPRO_CGEN_CACHE"] = cache
    from repro.engine import compile_model
    from repro.engine.backends.cgen import K, _cflags, _plan_variant, build
    from repro.models import build_model

    for types in (("double", "float"), ("double",)):
        start = time.perf_counter()
        so, hit, err = build._ensure_so(
            K.library_source(2, types), cache, _cflags(), _plan_variant(2),
            K.library_parts(types),
        )
        assert so and not hit, err
        print(f"cgen library {{{', '.join(types)}}}: cold cc "
              f"{time.perf_counter() - start:.2f} s "
              f"({K.library_parts(types)} parts side by side + link)")
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
    # the parity suite (single-thread in tier-1) again with a 2-wide
    # worker pool: exercises the threaded dispatch/barrier/teardown paths
    # even on 1-core hosts (correctness is thread-count-invariant by
    # construction), and the no-reuse oracle (TestArenaReuse: every
    # small-r18 plan kind replays the bytes of its twin compiled with no
    # arena reuse, so the one liveness analysis frees nothing early)
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
        # the stage runs inline and ties); its rows go to a scratch
        # directory, not over the committed micro_ops.json
        REPRO_RESULTS_DIR="$(mktemp -d)" \
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
lane_done "lane 4"

if [[ "$in_git" == true ]]; then
    if [[ "$(checkout_state)" != "$state_before" ]]; then
        echo "FAILURE: a lane changed the checkout; git status now:"
        git status --porcelain
        exit 1
    fi
else
    echo "NOTICE: checkout check SKIPPED — not a git work tree"
fi
echo "ci.sh: all lanes passed in $SECONDS s"
