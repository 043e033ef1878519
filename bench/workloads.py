"""The benchmark workloads: which configs each one runs, made from a seed.

Every workload is a list of pipeline configs. Committed configs are read
from ``configs/`` with the workload seed put in; generated ones are derived
from a committed config and written as YAML into the run directory. The
program only ever sees these files.

Why each workload exists:

collar       Cold multi-start projection on domains without an exact
             distance carries all the cost: about 960 one-point calls in the
             reach bisections and 320-2000-point batches in the level
             bisection and the barrier jets, on the catenoid and on Scherk's
             surface (where some starts diverge). The pipelines draw nothing
             at random, so the seed changes only the echoed ``seed`` field.
disc-search  ``hyperbolicity.metric_upper_bound`` carries all the cost, with
             many small ``phi`` calls, and ``tubular`` is never called. Pairs
             follow the acceptance-7 law (radius 0.9 u^(1/3), Gaussian
             direction) from the seed. Ball pairs have an exact reference;
             catenoid ``phi`` costs more per point.
exact-sweep  The same ``barrier``, ``mpsh`` and ``numkit`` code as collar,
             but projection is exact, so the per-point eigen, jet and
             composed-Laplacian loops and the pipeline, config and report
             glue carry the cost. ``discs`` runs only here.
"""

from __future__ import annotations

from pathlib import Path

import yaml

# ball and catenoid pairs per disc-search pass
METRIC_PAIRS = 6


def _committed(root: Path, name: str) -> dict:
    with open(root / "configs" / f"{name}.yaml", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _derived(root: Path, base: str, domain: str) -> dict:
    data = _committed(root, base)
    data["domain"] = {"name": domain}
    return data


def _metric(root: Path, domain: str) -> dict:
    data = _derived(root, "metric_ball", domain)
    data["metric"]["pairs"] = METRIC_PAIRS
    return data


def _collar(root):
    barrier = _derived(root, "barrier_sphere", "catenoid")
    del barrier["barrier"]["epsilon"]  # taken from the reach estimate instead
    return (
        ["reach_catenoid", "verify_catenoid"],
        {"barrier_catenoid": barrier,
         "reach_scherk": _derived(root, "reach_catenoid", "scherk")},
    )


def _disc_search(root):
    return [], {"metric_ball": _metric(root, "sphere"),
                "metric_catenoid": _metric(root, "catenoid")}


def _exact_sweep(root):
    return (
        ["barrier_sphere", "subharmonicity_slab", "curvature_catenoid", "omega_d",
         "convex_classify"],
        {"subharmonicity_sphere": _derived(root, "subharmonicity_slab", "sphere")},
    )


WORKLOADS = {
    "exact-sweep": _exact_sweep,
    "disc-search": _disc_search,
    "collar": _collar,
}


def manifest(workload: str, seed: int, root: Path, run_dir: Path) -> dict:
    """The config list of one workload run, writing generated configs."""
    committed, generated = WORKLOADS[workload](root)
    entries = [
        {"name": name, "path": str(root / "configs" / f"{name}.yaml"),
         "overrides": {"seed": seed}}
        for name in committed
    ]
    for name, data in generated.items():
        data = dict(data, seed=seed)
        path = run_dir / f"{name}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(data, fh, sort_keys=False)
        entries.append({"name": name, "path": str(path), "overrides": {}})
    return {"workload": workload, "seed": seed, "configs": entries}
