#!/usr/bin/env python3
"""bench-e2e: the frame-budget benchmark, one command.

    python benchmarks/e2e/run.py                      # the whole suite
    python benchmarks/e2e/run.py --trace              # ... plus per-layer pass
    python benchmarks/e2e/run.py --smoke              # self-check, < 90 s
    python benchmarks/e2e/run.py --workload vehicle_b1 --seed 11 \\
        --seconds 15 --trace 0                        # one run (BENCHMARK.json)

One run of one workload prints every metric by name with its unit and, as
the last line of stdout, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  It exits
non-zero when a correctness check fails.  Without ``--workload`` the
command interleaves ``--repeats`` fresh subprocesses per workload, reports
the median and quartiles of every metric, checks that the seeded counts
repeat exactly, and writes ``result.json`` for ``compare.py``.

Every time is in *reference-host time*: wall time divided by the host
speed a fixed yardstick kernel measured around it (README.md, "Reference-
host time"); the wall-clock values are printed beside it.

See README.md next to this file for the metric and workload glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
#: the seed the workloads were sized and the first baseline was taken with;
#: README.md names the second seed reserved for verifying later claims
DEFAULT_SEED = 11


def load_catalog() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def prepare_process() -> None:
    """Pin the BLAS pools and make ``repro`` and the benchmark importable.

    Must run before numpy is imported: OpenBLAS reads its thread count
    once, at load.  numpy and cgen lowerings get the same cores and the
    load never exceeds the machine.
    """
    threads = str(min(2, os.cpu_count() or 1))
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"bench-e2e: no program to measure under {src}")
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def host_facts() -> dict:
    import numpy as np

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        except OSError:
            return "unavailable"
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else "unavailable"

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "openblas configuration"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cc": first_line(["cc", "--version"]),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def run_one(args) -> int:
    import layers
    import spans
    import workloads

    catalog = load_catalog()
    units = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}
    facts = host_facts()
    if facts["loadavg"][0] > facts["nproc"]:
        print(f"WARNING: load average {facts['loadavg'][0]:.2f} exceeds "
              f"{facts['nproc']} cores; clocks will be noisy", file=sys.stderr)
    print(f"bench-e2e {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} threads={facts['threads']}")

    run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    problems = list(run.problems)
    attempted = max(sum(s.offered for s in run.segments), 1)
    e2e, per_layer, trace_facts = {}, {}, {}
    if run.untraced:
        e2e = workloads.end_to_end(run)
    if args.trace and len(run.traced) == 2 and run.untraced:
        per_layer = layers.per_layer(run, e2e)
        trace_facts = {
            "tiling_gap_share": layers.tiling_gap_share(run),
            "spans": sum(len(s.spans) for s in run.traced),
        }
        fallbacks = trace_facts["cgen_fallback_stages"] = layers.cgen_fallback_stages(run)
        if fallbacks:
            print(f"WARNING: {args.workload}: {fallbacks} plan stages offered to "
                  "the C renderer fell back to numpy closures", file=sys.stderr)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            spans.write_chrome_trace(
                os.path.join(args.out, f"{args.workload}.trace.json"),
                [(f"segment-{i}", s.spans) for i, s in enumerate(run.segments)],
                args.workload,
            )
    if run.degraded:
        print(f"WARNING: {args.workload} is DEGRADED: no C compiler, every "
              "cgen stage ran as numpy", file=sys.stderr)

    wanted = catalog["per_layer"] if args.trace else catalog["end_to_end"]
    source = per_layer if args.trace else e2e
    metrics = {}
    for entry in wanted:
        if entry["name"] not in source:
            problems.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": source[entry["name"]], "unit": entry["unit"]}

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    failed = attempted if problems else sum(s.unaccounted for s in run.segments)
    samples = int(e2e.get("samples", 0))
    wall = workloads.clocks(run.untraced, reference_host=False) if run.untraced else {}
    speeds = [s.host_speed for s in run.untraced]
    for name, value in list(e2e.items()) + sorted(per_layer.items()):
        if name in units:
            note = f"  (n={samples})" if name.startswith("frame_ms") else ""
            if name in wall:
                note += f"  [wall clock: {wall[name]:.6g}]"
            print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    if speeds:
        print(f"  times are reference-host time = wall time / host speed; host "
              f"speed per segment: {' '.join(f'{v:.3f}' for v in speeds)}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(
                {
                    "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "scale": args.scale,
                    "trace": bool(args.trace), "host": facts,
                    "degraded": run.degraded, "fixture_s": run.fixture_s,
                    "segments": len(run.segments), "samples": samples,
                    "end_to_end": e2e, "per_layer": per_layer,
                    "wall_clock": wall, "host_speed": speeds,
                    "counts": run.segments[0].counts if run.segments else {},
                    "trace_facts": trace_facts, "problems": problems,
                    "segment_samples_ms": [
                        s.samples_ms(False).tolist() for s in run.untraced],
                    "segment_speeds": [s.speeds.tolist() for s in run.untraced],
                    "segment_setup_s": [s.setup_s for s in run.untraced],
                    "segment_readings": [s.readings for s in run.untraced],
                    "attempted": attempted, "failed": failed,
                },
                fh, indent=1,
            )
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# the suite: interleaved repeats in fresh subprocesses
# ----------------------------------------------------------------------
def child(workload: str, args, trace: int, report: str, scale: float = 1.0) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(scale), "--report", report, "--out", args.out,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if not os.path.exists(report):
        raise SystemExit(f"bench-e2e: {workload} produced no report:\n{proc.stdout}")
    with open(report) as fh:
        detail = json.load(fh)
    detail["exit_code"] = proc.returncode
    detail["last_line"] = proc.stdout.strip().splitlines()[-1]
    return detail


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_suite(args) -> int:
    import compare

    catalog = load_catalog()
    spec_of = {m["name"]: m for m in catalog["end_to_end"] + catalog["per_layer"]}
    os.makedirs(args.out, exist_ok=True)
    names = [w["name"] for w in catalog["workloads"]]
    runs = {name: [] for name in names}
    traced = {}
    ok = True
    for repeat in range(args.repeats):
        for name in names:  # round-robin, so drift hits every workload alike
            print(f"[{repeat + 1}/{args.repeats}] {name}", file=sys.stderr)
            detail = child(name, args, 0, os.path.join(args.out, f"{name}.{repeat}.json"))
            ok &= detail["exit_code"] == 0
            runs[name].append(detail)
    if args.trace:
        for name in names:
            print(f"[trace] {name}", file=sys.stderr)
            traced[name] = child(name, args, 1, os.path.join(args.out, f"{name}.trace.json.report"))
            ok &= traced[name]["exit_code"] == 0

    result = {"seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
              "host": runs[names[0]][0]["host"], "workloads": {}}
    for name in names:
        details = runs[name]
        table = {}
        for metric in details[0]["end_to_end"]:
            if metric == "samples":
                continue
            values = [d["end_to_end"][metric] for d in details]
            q1, median, q3 = quartiles(values)
            entry = spec_of[metric]
            table[metric] = {
                "unit": entry["unit"], "better": entry["better"],
                "bound": entry.get("bound"), "values": values,
                "median": median, "q1": q1, "q3": q3,
            }
            # the seeded counts compare.py holds to absolute rules must be
            # identical in every repeat of a seed
            if metric in compare.ABSOLUTE and len(set(values)) > 1:
                ok = False
                print(f"CHECK FAILED: {name}: {metric} did not repeat exactly "
                      f"across repeats of seed {args.seed}: {values}", file=sys.stderr)
        if any(d["counts"] != details[0]["counts"] for d in details):
            ok = False
            print(f"CHECK FAILED: {name}: seeded counts differ between repeats",
                  file=sys.stderr)
        result["workloads"][name] = {
            "end_to_end": table,
            "samples": [d["samples"] for d in details],
            # what the wall clock read, and the host speeds that relate it
            # to the reference-host times above (one list per repeat)
            "wall_clock": [d["wall_clock"] for d in details],
            "host_speed": [d["host_speed"] for d in details],
            "counts": details[0]["counts"],
            "degraded": details[0]["degraded"],
            "per_layer": {
                metric: {"unit": spec_of[metric]["unit"], "value": value}
                for metric, value in traced.get(name, {}).get("per_layer", {}).items()
            },
        }
    path = os.path.join(args.out, "result.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    for name in names:
        speeds = [v for repeat in result["workloads"][name]["host_speed"] for v in repeat]
        print(f"\n== {name}  (samples per run: {result['workloads'][name]['samples']}; "
              f"host speed {min(speeds):.2f}-{max(speeds):.2f}, "
              f"median {statistics.median(speeds):.2f})")
        for metric, row in result["workloads"][name]["end_to_end"].items():
            print(f"  {metric:28s} {row['median']:12.5g} {row['unit']:6s} "
                  f"[q1 {row['q1']:.5g}, q3 {row['q3']:.5g}]")
        for metric, row in sorted(result["workloads"][name]["per_layer"].items()):
            if metric not in result["workloads"][name]["end_to_end"]:
                print(f"  {metric:40s} {row['value']:12.5g} {row['unit']}")
    print(f"\nwrote {path}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --smoke: the benchmark checks itself
# ----------------------------------------------------------------------
def run_smoke(args) -> int:
    catalog = load_catalog()
    e2e_names = {m["name"]: m["unit"] for m in catalog["end_to_end"]}
    layer_names = {m["name"]: m["unit"] for m in catalog["per_layer"]}
    os.makedirs(args.out, exist_ok=True)
    failures = []
    for name in list(e2e_names) + list(layer_names) + [w["name"] for w in catalog["workloads"]]:
        if not NAME_RE.match(name):
            failures.append(f"name {name!r} has characters outside [A-Za-z0-9_.-]")
    start = time.perf_counter()
    for workload in [w["name"] for w in catalog["workloads"]]:
        detail = child(workload, args, 1,
                       os.path.join(args.out, f"{workload}.smoke.json"), scale=0.05)
        if detail["exit_code"] != 0:
            failures.append(f"{workload}: exit code {detail['exit_code']}: {detail['problems']}")
            continue
        line = json.loads(detail["last_line"])
        if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"{workload}: last line has keys {sorted(line)}")
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        if emitted != layer_names:
            failures.append(
                f"{workload}: per-layer names/units differ from BENCHMARK.json: "
                f"{sorted(set(emitted) ^ set(layer_names))}")
        missing = set(e2e_names) - set(detail["end_to_end"])
        extra = set(detail["end_to_end"]) - set(e2e_names) - set(layer_names) - {"samples"}
        if missing or extra:
            failures.append(f"{workload}: end-to-end names missing {sorted(missing)}, "
                            f"not in BENCHMARK.json {sorted(extra)}")
        if detail["trace_facts"]["tiling_gap_share"] > 0.02:
            failures.append(
                f"{workload}: span self times miss the timed window by "
                f"{detail['trace_facts']['tiling_gap_share']:.1%}")
        print(f"smoke {workload}: ok, {detail['trace_facts']['spans']} spans, "
              f"{detail['samples']} samples")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}", file=sys.stderr)
    print(f"smoke: {'FAILED' if failures else 'passed'} in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives scenario pools and arrival seeds, nothing else")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-window seconds per run (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: the traced per-layer pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every tick count by this factor")
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite: fresh subprocesses per workload (>= 5)")
    parser.add_argument("--out", help="where reports, result.json and Chrome traces "
                        "go (suite default: .bench_build/e2e/results)")
    parser.add_argument("--report", help="one run: also write its full detail here")
    parser.add_argument("--smoke", action="store_true", help="self-check at 1/20 size")
    parser.add_argument("--build-fixtures", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_catalog()["run_seconds"])
    prepare_process()
    if args.build_fixtures:
        import workloads

        workloads.build_fixtures()
        return 0
    if args.workload:
        if args.workload not in [w["name"] for w in load_catalog()["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args)
    if args.out is None:
        args.out = os.path.join(ROOT, ".bench_build", "e2e", "results")
    return run_smoke(args) if args.smoke else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
