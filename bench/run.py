"""The mconvex benchmark: one workload, closed loop, checked reports.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {exact-sweep,disc-search,collar}
                         [--seed N] [--seconds S] [--trace 0|1]

One client in one process runs passes back to back (see worker.py); each
pass runs ``cli.run`` on every config of the workload (see workloads.py)
and emits the reports. Every report is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics:
  setup_s          median over fresh interpreters, started before and after
                   the timed passes, of the time from start to the first
                   pipeline call (import, config load, validation)
  pass_s           median wall seconds per pass
  peak_rss_mb      peak resident memory of the workload process
  bound_ratio_max  largest certified bound over the exact Klein-ball metric
                   among the ball pairs; workloads without ball pairs, which
                   certify nothing against an exact value, report 1
  bound_ratio_median
                   the median of the same ratios (1 without ball pairs); it
                   moves when the search loosens its bounds on most pairs,
                   while the largest ratio depends mostly on whether the
                   seed drew one of the rare pairs near the 1.01 gate

``--trace 1`` reports the per-layer metrics instead. It runs untraced passes
in one process and traced passes in another, wrapping the package's public
functions from outside (see spans.py). Layer values are per pass, except
``config.validate.total_s``, which is per set-up. For a span name, ``calls``
counts its spans, ``points`` sums the points they were handed, ``self_s``
sums their time outside child spans and ``total_s`` the time of those not
nested in a span of the same name. ``trace.uncovered_s`` is pass time
outside every span, next to ``trace.overhead_frac``, the traced over the
untraced pass time, minus one.

A pipeline run fails when its report has a failure record or a failing
verdict, when its bytes differ from the first pass of the run (or, traced,
from the untraced process), or when a ball-pair record disagrees with an
independently computed Klein metric. ``failed_frac`` is failed over
attempted. Records whose value moved from the reference report of the
default seed (``reference/``) by more than a relative 1e-9 are counted and
printed, not failed.

Worker processes get an environment without ``MCONVEX_*`` variables (the
config loader applies them as overrides), with one BLAS/OpenMP thread, and a
worker pool capped at the number of usable cores. A host-speed probe, a fixed
numpy kernel, is timed before and after each run and only printed, never
used to scale a metric.

To refresh the reference after a change that moves values on purpose, run
each workload with the default seed and ``--trace 0``, check that it is
correct, and copy ``.bench_runs/<workload>-trace0/*.jsonl`` into
``reference/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 5  # before and again after the timed passes
# a run gives up after DEADLINE_BASE_S + DEADLINE_PER_S * --seconds
DEADLINE_BASE_S = 130.0
DEADLINE_PER_S = 1.5
DRIFT_RTOL = 1e-9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "bound_ratio_max": "ratio",
    "bound_ratio_median": "ratio",
}

# span name -> statistics reported for it
SPAN_STATS = {
    "tubular.project_batch.cold": ("calls", "points", "self_s"),
    "tubular.project_batch.warm": ("calls", "points", "self_s"),
    "tubular.project_batch.exact": ("calls", "points", "self_s"),
    "tubular.reach_estimate": ("calls", "total_s"),
    "surfaces.phi": ("calls", "points", "self_s"),
    "surfaces.grad": ("calls", "points", "self_s"),
    "surfaces.hess": ("calls", "points", "self_s"),
    "surfaces.principal_curvatures": ("calls", "self_s"),
    "numkit.sym_eigen": ("calls", "self_s"),
    "mpsh.grid_verdict": ("points", "self_s"),
    "mpsh.min_m_trace": ("calls", "self_s"),
    "barrier.hessian_batch": ("points", "self_s", "total_s"),
    "barrier.value_batch": ("calls", "points", "total_s"),
    "barrier.verify_barrier": ("total_s",),
    "barrier.build_barrier": ("total_s",),
    "discs.subharmonicity_sweep": ("self_s", "total_s"),
    "discs.composition_laplacian": ("calls", "self_s"),
    "hyperbolicity.metric_upper_bound": ("calls", "self_s", "total_s"),
    "hyperbolicity.omega_d_distance_chain": ("self_s",),
    "hyperbolicity.plane_escape_trials": ("self_s",),
    "cli.run": ("self_s",),
    "cli.chunked_map": ("total_s",),
    "config.validate": ("total_s",),
    "report.emit": ("total_s",),
}
SETUP_SPANS = {"config.validate"}
STAT_UNITS = {"calls": "count", "points": "count", "self_s": "s", "total_s": "s"}

# ROADMAP baseline rows: inclusive seconds per 10^4 points (or calls)
PER_1E4 = {
    "tubular.project_batch.cold.s_per_1e4": ("tubular.project_batch.cold", "points"),
    "tubular.project_batch.warm.s_per_1e4": ("tubular.project_batch.warm", "points"),
    "tubular.project_batch.exact.s_per_1e4": ("tubular.project_batch.exact", "points"),
    "surfaces.principal_curvatures.s_per_1e4": ("surfaces.principal_curvatures", "calls"),
    "numkit.sym_eigen.s_per_1e4": ("numkit.sym_eigen", "calls"),
    "barrier.hessian_batch.s_per_1e4": ("barrier.hessian_batch", "points"),
}

DERIVED_UNITS = {
    "tubular.project_batch.multi_foot": "count",
    "tubular.project_batch.cold.grad_points_per_point": "ratio",
    "hyperbolicity.metric_upper_bound.phi_points_per_call": "count",
    "process.runtime_warnings": "count",
    "trace.spans": "count",
    "trace.traced_pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_s": "s",
}


def per_layer_units() -> dict:
    units = {
        f"{name}.{stat}": STAT_UNITS[stat]
        for name, stats in SPAN_STATS.items()
        for stat in stats
    }
    units.update({name: "s/1e4" for name in PER_1E4})
    units.update(DERIVED_UNITS)
    return units


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# environment and processes


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCONVEX_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_worker(manifest_path: Path, out: Path, deadline: float, seconds=0.0,
               setup_only=False, spans_path=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
           "--out", str(out), "--seconds", repr(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    log = out.with_suffix(".log")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    with open(log, "wb") as fh:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=clean_env(),
                                  stdout=fh, stderr=subprocess.STDOUT, timeout=remaining,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the time limit; log in {log}")
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    if Path(result["package"]).resolve() != (ROOT / "src" / "mconvex").resolve():
        raise BenchError(f"imported mconvex from {result['package']}, not from src/")
    return result


def host_probe(reps: int = 5) -> float:
    """Median seconds of a fixed numpy kernel: batched 3x3 eigen and products."""
    a = np.random.default_rng(0).standard_normal((4096, 3, 3))
    a = a + a.transpose(0, 2, 1)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(8):
            np.linalg.eigvalsh(a)
            np.matmul(a, a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "mconvex").glob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {name: clean_env()[name] for name in THREAD_VARS},
        "src_mconvex_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# report checks


def klein_length(p: np.ndarray, v: np.ndarray) -> float:
    """Klein-ball length of v at p, from the chord through p along v.

    The Hilbert metric of the unit ball: |v|/2 * (1/a + 1/b), with a and b
    the distances from p to the sphere along +v and -v. It is computed
    independently of the package's closed form.
    """
    u = v / np.linalg.norm(v)
    pu = float(p @ u)
    root = math.sqrt(pu * pu + 1.0 - float(p @ p))
    return 0.5 * float(np.linalg.norm(v)) * (1.0 / (root - pu) + 1.0 / (root + pu))


def read_records(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def ball_pair_check(records: list):
    """Return (bound-over-exact ratios, list of problems) over the pair records."""
    ratios, problems = [], []
    for rec in records:
        if rec.get("record") != "check" or not rec["name"].startswith("pair-"):
            continue
        loc = np.asarray(rec["location"], dtype=float)
        exact = klein_length(loc[:3], loc[3:])
        match = re.search(r"vs exact ([0-9.eE+-]+)", rec["detail"])
        if match is None or abs(float(match.group(1)) - exact) > 1e-7 * exact:
            problems.append(f"{rec['name']}: exact metric disagrees ({rec['detail']})")
        ratios.append(float(rec["value"]))
    if not ratios:
        problems.append("no ball pairs in the report")
    return ratios or [1.0], problems


def drift_count(records: list, reference: list) -> int:
    """Check records missing, added, renamed or moved beyond DRIFT_RTOL."""
    mine = [r for r in records if r.get("record") == "check"]
    ref = [r for r in reference if r.get("record") == "check"]
    drift = abs(len(mine) - len(ref))
    for a, b in zip(mine, ref):
        va, vb = float(a["value"]), float(b["value"])
        same = va == vb or abs(va - vb) <= DRIFT_RTOL * abs(vb)
        drift += int(a["name"] != b["name"] or not same)
    return drift


def check_runs(results: list, run_dir: Path, workload: str, seed: int):
    """Count attempted and failed pipeline runs over one or more workers."""
    first = results[0]["runs"][0]
    attempted = 0
    failed, problems = set(), []
    for w, res in enumerate(results):
        for k, pass_runs in enumerate(res["runs"]):
            for ref_run, run in zip(first, pass_runs):
                attempted += 1
                why = None
                if run["failure"] is not None:
                    why = f"failure record: {run['failure']}"
                elif run["verdict"] != "pass":
                    why = f"verdict {run['verdict']}"
                elif run["sha256"] != ref_run["sha256"]:
                    why = "report bytes differ from the first pass"
                if why:
                    failed.add((w, k, run["name"]))
                    problems.append(f"{run['name']} process {w + 1} pass {k + 1}: {why}")

    ratios = [1.0]
    drift = 0 if seed == DEFAULT_SEED else None
    for run in first:
        records = read_records(run_dir / f"{run['name']}.jsonl")
        if run["name"] == "metric_ball":
            ratios, pair_problems = ball_pair_check(records)
            if pair_problems:
                failed.add((0, 0, run["name"]))
                problems += pair_problems
        if drift is not None:
            ref = HERE / "reference" / workload / f"{run['name']}.jsonl"
            drift += drift_count(records, read_records(ref)) if ref.is_file() else len(records)
    return attempted, len(failed), problems, ratios, drift


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(npz_path: Path, traced: dict) -> tuple[dict, float]:
    """Per-pass layer metrics from the saved spans; also the smallest self time."""
    data = np.load(npz_path)
    names = [str(n) for n in data["names"]]
    nid, parent, thread = data["name_id"], data["parent"], data["thread"]
    start, end, points = data["start"], data["end"], data["points"]
    self_s = spans.self_times(parent, thread, start, end)
    dur = end - start
    in_pass = start >= traced["passes_began"]
    passes = len(traced["pass_s"])

    def name_id(name):
        return names.index(name) if name in names else -1

    def mask(name):
        return nid == name_id(name)

    def outermost(name):
        return mask(name) & (spans.nearest_named_ancestor(parent, nid, name_id(name)) < 0)

    out = {}
    totals = {}
    for name, stats in SPAN_STATS.items():
        phase = ~in_pass if name in SETUP_SPANS else in_pass
        per = 1.0 if name in SETUP_SPANS else passes
        m = mask(name) & phase
        values = {
            "calls": float(np.count_nonzero(m)),
            "points": float(points[m].sum()),
            "self_s": float(self_s[m].sum()),
            "total_s": float(dur[outermost(name) & phase].sum()),
        }
        totals[name] = values
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat] / per
    for metric, (name, base) in PER_1E4.items():
        count = totals[name][base]
        out[metric] = 1e4 * totals[name]["total_s"] / count if count else 0.0

    def points_under(child, ancestor):
        under = spans.nearest_named_ancestor(parent, nid, name_id(ancestor)) >= 0
        return float(points[mask(child) & in_pass & under].sum())

    cold = totals["tubular.project_batch.cold"]["points"]
    out["tubular.project_batch.cold.grad_points_per_point"] = (
        points_under("surfaces.grad", "tubular.project_batch.cold") / cold if cold else 0.0
    )
    calls = totals["hyperbolicity.metric_upper_bound"]["calls"]
    out["hyperbolicity.metric_upper_bound.phi_points_per_call"] = (
        points_under("surfaces.phi", "hyperbolicity.metric_upper_bound") / calls
        if calls else 0.0
    )
    out["tubular.project_batch.multi_foot"] = traced["multi_foot"] / passes
    out["process.runtime_warnings"] = traced["runtime_warnings"] / passes
    out["trace.spans"] = float(np.count_nonzero(in_pass)) / passes
    roots = in_pass & (parent < 0) & (thread == 0)
    out["trace.uncovered_s"] = (sum(traced["pass_s"]) - float(dur[roots].sum())) / passes
    return out, float(self_s.min()) if self_s.size else 0.0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds

    for need in ("src/mconvex/__init__.py", "src/mconvex/cli.py", "configs"):
        if not (ROOT / need).exists():
            print(f"bench: {need} is missing; run from the root of an mconvex "
                  "checkout", file=sys.stderr)
            return 2
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(
        workloads.manifest(args.workload, args.seed, ROOT, run_dir), indent=1))

    probe_before = host_probe()
    try:
        if args.trace == 0:
            def setup_probes(tag):
                return [
                    run_worker(manifest_path, run_dir / f"setup-{tag}{i}.json", deadline,
                               setup_only=True)["setup_s"]
                    for i in range(SETUP_PROBES)
                ]

            # the first start compiles bytecode, which installed users pay once
            run_worker(manifest_path, run_dir / "warmup.json", deadline, setup_only=True)
            setups = setup_probes("before")
            timed = run_worker(manifest_path, run_dir / "timed.json", deadline,
                               seconds=args.seconds)
            setups += setup_probes("after")
            results = [timed]
        else:
            half = args.seconds / 2.0
            untraced = run_worker(manifest_path, run_dir / "untraced.json", deadline,
                                  seconds=half)
            traced = run_worker(manifest_path, run_dir / "traced.json", deadline,
                                seconds=half,
                                spans_path=run_dir / "spans.npz")
            results = [untraced, traced]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    probe_after = host_probe()

    attempted, failed, problems, ratios, drift = check_runs(
        results, run_dir, args.workload, args.seed)

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(timed["pass_s"]),
            "peak_rss_mb": timed["peak_rss_mb"],
            "bound_ratio_max": max(ratios),
            "bound_ratio_median": statistics.median(ratios),
        }
        units = END_TO_END
        notes = [
            f"setup_s samples: {len(setups)}; passes: {len(timed['pass_s'])} "
            f"({', '.join(f'{s:.3f}' for s in timed['pass_s'])} s)",
            "byte identity between passes: " + (
                f"checked over {len(timed['pass_s'])} passes" if len(timed["pass_s"]) > 1
                else "not checked, the run held one pass"),
            "median seconds per config: " + ", ".join(
                f"{run['name']} {statistics.median(p[i]['seconds'] for p in timed['runs']):.3f}"
                for i, run in enumerate(timed["runs"][0])
            ),
        ]
    else:
        metrics, min_self = layer_metrics(run_dir / "spans.npz", traced)
        metrics["trace.untraced_pass_s"] = statistics.median(untraced["pass_s"])
        metrics["trace.traced_pass_s"] = statistics.median(traced["pass_s"])
        metrics["trace.overhead_frac"] = (
            metrics["trace.traced_pass_s"] / metrics["trace.untraced_pass_s"] - 1.0
        )
        units = per_layer_units()
        notes = [f"smallest span self time: {min_self:.3e} s",
                 f"passes: untraced {len(untraced['pass_s'])}, traced "
                 f"{len(traced['pass_s'])}"]
        if min_self < -1e-6:
            problems.append(f"negative self time {min_self:.3e} s")

    correct = not problems
    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    print("machine " + json.dumps(info, sort_keys=True)
          + f"  workers capped at {results[0]['workers_cap']}")
    print(f"host_probe_s before {probe_before:.5f}  after {probe_after:.5f}")
    for note in notes:
        print(note)
    for name in sorted(metrics):
        print(f"{name:<58} {metrics[name]:>14.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} pipeline runs)")
    print("drift vs reference: " + (
        f"{drift} records beyond relative {DRIFT_RTOL:g}" if drift is not None
        else f"not checked (reference is for seed {DEFAULT_SEED})"))
    for problem in problems:
        print(f"problem: {problem}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "host_probe_s": [probe_before, probe_after],
              "attempted": attempted, "failed": failed, "drift": drift,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
