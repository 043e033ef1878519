"""One workload process: load the configs, then run closed-loop passes.

run.py starts this script in a fresh interpreter with a clean environment
and ``src`` alone on PYTHONPATH. A pass runs ``cli.run`` on every config of
the workload, one after another, and emits each report to bytes; the next
pass starts when the previous one has finished, as long as less than
``--seconds`` have gone by since the first began; there is always at least
one.

Results go to ``--out`` as JSON: the set-up time (from ``--spawned-at``, the
parent's monotonic clock just before it started this process, to the first
pipeline call), the wall time of each pass, the peak resident memory, and
per pass and config the wall time, report digest, verdict and failure
message. The reports of the first pass are written next to it. With
``--spans`` the package is traced (see spans.py) and the spans are saved
there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import warnings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import mconvex
    from mconvex import cli, config, report

    tracer = None
    warning_count = 0
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(mconvex)
        warnings.simplefilter("always", RuntimeWarning)

        def count_warning(message, category, *rest, **kw):
            nonlocal warning_count
            if issubclass(category, RuntimeWarning):
                warning_count += 1

        warnings.showwarning = count_warning

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cap = len(os.sched_getaffinity(0))
    cfgs = []
    for entry in manifest["configs"]:
        cfg = config.validate(config.load_config(entry["path"], entry["overrides"]))
        # the echoed config keeps its worker count; the pool never exceeds nproc
        cfg.workers = min(cfg.workers, cap)
        cfgs.append((entry["name"], cfg))
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "package": os.path.dirname(mconvex.__file__)}
    if args.setup_only:
        _write(args.out, result)
        return 0

    out_dir = os.path.dirname(os.path.abspath(args.out))
    pass_s, runs = [], []
    began = time.perf_counter()
    while not pass_s or time.perf_counter() - began < args.seconds:
        t0 = time.perf_counter()
        payloads = []
        for name, cfg in cfgs:
            t1 = time.perf_counter()
            rep = cli.run(cfg)
            payloads.append((name, rep, report.emit(rep, "json-lines"),
                             time.perf_counter() - t1))
        pass_s.append(time.perf_counter() - t0)
        runs.append([
            {
                "name": name,
                "seconds": seconds,
                "sha256": hashlib.sha256(data).hexdigest(),
                "verdict": rep.verdict,
                "failure": rep.failure,
            }
            for name, rep, data, seconds in payloads
        ])
        if len(runs) == 1:
            for name, _, data, _ in payloads:
                with open(os.path.join(out_dir, f"{name}.jsonl"), "wb") as fh:
                    fh.write(data)

    result.update(
        pass_s=pass_s,
        passes_began=began,
        runs=runs,
        workers_cap=cap,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.save(args.spans)
        result.update(runtime_warnings=warning_count, multi_foot=tracer.multi_foot)
    _write(args.out, result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
