"""Batch front end: argparse subcommands, pipeline dispatch, report emission.

Consumers are scripts and CI: no interactivity, deterministic output for a
fixed config and seed, and the exit-code contract 0 = pass, 1 = pipeline
failure, 2 = config schema violation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import barrier, discs, hyperbolicity, mpsh, surfaces, tubular
from .config import FORMATS, KINDS, AnalysisConfig, ConfigError, load_config, validate
from .report import CheckRecord, Report, emit, write_atomic

CHUNK = 256


def chunked_map(fn, items: np.ndarray):
    """Apply fn to fixed-size chunks of items, returning results in chunk order."""
    return [fn(items[i : i + CHUNK]) for i in range(0, len(items), CHUNK)]


def _barrier_for(cfg: AnalysisConfig, domain: surfaces.ImplicitDomain):
    p = cfg.params
    eps = p["epsilon"]
    if eps is None:
        pts = domain.boundary_samples(min(cfg.grid["boundary"], 256))
        eps = p["epsilon_fraction"] * tubular.reach_estimate(domain, pts, probe_count=8).value
    return barrier.build_barrier(
        domain,
        m=p["m"],
        eps=float(eps),
        alpha=p["alpha"],
        safety=p["safety"],
        ratios=tuple(p["ratios"]),
        cap_degree=p["cap_degree"],
    )


def _interior_grid(domain, bf, count: int) -> np.ndarray:
    n_collar = max(1, int(0.7 * count))
    pts = tubular.collar_points(domain, n_collar, 1e-3, 0.98 * bf.collar.eps0p)
    deep = tubular.collar_points(
        domain, count - n_collar, 0.98 * bf.collar.eps0p, 0.45 * bf.collar.reach
    )
    return np.concatenate([pts, deep]) if len(deep) else pts


# ---------------------------------------------------------------------------
# pipelines


def _run_curvature(cfg: AnalysisConfig, report: Report) -> None:
    domain = surfaces.make_domain(**cfg.domain)
    m = cfg.params["m"]
    samples = domain.boundary_samples(cfg.grid["boundary"])
    flat = surfaces.m_flatness_report(
        domain, samples, m, tol=cfg.params["flat_tol"], r0=cfg.params["r0"]
    )
    frames = surfaces.boundary_frames(domain, samples)
    # ties go to the first sample, and an all-zero column reports samples[0]
    normal_parts = frames.directions @ frames.inner_normal[..., None]
    tangency = np.max(np.abs(normal_parts[..., 0]), axis=-1)
    tangency_pt = samples[int(np.argmax(tangency))]
    worst_tangency = float(np.max(tangency))
    sigma = surfaces.m_convexity_defect(frames, m)
    worst_pt = samples[int(np.argmin(sigma))]
    worst_sigma = float(np.min(sigma))
    resid = np.abs(np.sum(frames.curvatures, axis=-1))
    minimal_pt = samples[int(np.argmax(resid))]
    minimal_resid = float(np.max(resid))
    report.add(
        CheckRecord(
            "tangency", worst_tangency, 1e-9, worst_tangency <= 1e-9,
            location=tangency_pt,
            detail="max |inner_normal . principal_direction|",
        )
    )
    report.add(
        CheckRecord(
            "m-convexity-min-sigma", float(worst_sigma), -1e-9,
            worst_sigma >= -1e-9, location=worst_pt,
            detail=f"minimum sum of the {m} smallest curvatures",
        )
    )
    if domain.name in ("catenoid", "scherk"):
        report.add(
            CheckRecord(
                "minimality-residual", minimal_resid, 1e-6,
                minimal_resid <= 1e-6, location=minimal_pt,
                detail="max |sum of curvatures|",
            )
        )
    report.add(
        CheckRecord(
            "flat-count", float(flat.flat_count), None, True,
            detail=f"of {flat.total} samples at tol {flat.tol:.3e}; "
            f"{flat.note}",
        )
    )
    report.add(
        CheckRecord(
            "flat-outside-fraction", flat.outside_fraction, None, True,
            detail=f"fraction of flat samples beyond radius {flat.r0}",
        )
    )


def _run_reach(cfg: AnalysisConfig, report: Report) -> None:
    domain = surfaces.make_domain(**cfg.domain)
    m = cfg.params["m"]
    samples = domain.boundary_samples(cfg.grid["boundary"])
    est = tubular.reach_estimate(domain, samples, probe_count=cfg.params["probes"])
    report.add(
        CheckRecord(
            "reach-estimate", est.value, None, True,
            detail=f"focal {est.focal_bound:.6g}, bottleneck "
            f"{est.bottleneck_bound:.6g}; {est.note}",
        )
    )
    eps = est.value
    bounds = tubular.curvature_bounds_check(domain, eps, m, samples)
    report.add(
        CheckRecord(
            "curvature-lower-margin", bounds.worst_lower, -1e-9,
            bounds.worst_lower >= -1e-9,
            detail=f"min over samples of nu_j + (m-1)/eps at eps={eps:.6g}",
        )
    )
    report.add(
        CheckRecord(
            "curvature-upper-margin", bounds.worst_upper, -1e-9,
            bounds.worst_upper >= -1e-9,
            detail="min over samples of 1/eps - nu_j",
        )
    )
    report.add(
        CheckRecord(
            "negative-sum-margin", bounds.worst_negative_sum, -1e-9,
            bounds.worst_negative_sum >= -1e-9,
            detail="min over samples of sum(nu_j <= 0) + (m-1)/eps",
        )
    )
    report.add(
        CheckRecord(
            "bound-violations", float(len(bounds.violations)), 0.0,
            len(bounds.violations) == 0,
            location=bounds.violations[0].point if bounds.violations else None,
            detail=bounds.violations[0].check if bounds.violations else "",
        )
    )


def _run_barrier(cfg: AnalysisConfig, report: Report) -> None:
    domain = surfaces.make_domain(**cfg.domain)
    bf = _barrier_for(cfg, domain)
    interior = _interior_grid(domain, bf, cfg.grid["interior"])
    boundary = domain.boundary_samples(cfg.grid["boundary"])
    rep = barrier.verify_barrier(
        bf,
        interior,
        boundary,
        psh_tol=cfg.params["psh_tol"],
        level_count=cfg.params["levels"],
        fd_check_count=cfg.params["fd_checks"],
    )
    report.add(
        CheckRecord(
            "collar-radii", bf.collar.eps0p, None, True,
            detail=f"eps0={bf.collar.eps0:.6g} eps2={bf.collar.eps2:.6g} "
            f"eps1={bf.collar.eps1:.6g} scale={bf.scale:.6g}",
        )
    )
    for c in rep.checks:
        report.add(
            CheckRecord(
                c.name, c.worst_value, c.threshold, c.passed,
                location=c.worst_point, detail=f"{c.count} samples",
            )
        )


def _run_verify(cfg: AnalysisConfig, report: Report) -> None:
    domain = surfaces.make_domain(**cfg.domain)
    bf = _barrier_for(cfg, domain)
    interior = _interior_grid(domain, bf, cfg.grid["interior"])
    chunks = chunked_map(lambda c: bf.hessian_batch(c)[0], interior)
    hessians = np.concatenate(chunks)
    verdict = mpsh.grid_verdict(
        bf, interior, bf.m, tol=cfg.params["psh_tol"], hessians=hessians
    )
    report.add(
        CheckRecord(
            "psh-violations", float(verdict.violated_count), 0.0,
            verdict.violated_count == 0, location=verdict.worst_point,
            detail=f"{verdict.total} samples "
            f"({verdict.strict_count} strict, {verdict.psh_count} marginal)",
        )
    )
    report.add(
        CheckRecord(
            "worst-margin", verdict.worst_margin, -cfg.params["psh_tol"],
            verdict.worst_margin >= -cfg.params["psh_tol"],
            location=verdict.worst_point,
        )
    )


def default_test_maps(domain_name: str):
    """Conformal harmonic maps fitted inside each catalog domain."""
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    diag = (e1 + e3) / np.sqrt(2.0)
    if domain_name == "sphere":
        return [
            discs.affine_disc(np.zeros(3), 0.9 * e1, 0.9 * e2, name="equator"),
            discs.affine_disc(np.array([0.5, 0.0, 0.0]), 0.4 * e2, 0.4 * e3,
                              name="cap-cross"),
            discs.affine_disc(np.array([0.0, 0.4, 0.3]), 0.3 * diag,
                              0.3 * e2, name="tilted"),
            discs.catenoid_map(scale=0.3, radius=0.6),
            discs.helicoid_map(scale=0.3, radius=0.7),
            discs.enneper_map(scale=0.25, radius=0.7),
            discs.weierstrass_map(discs.weierstrass_catenoid(), scale=0.3,
                                  shift=(0.3, 0.0, 0.0), center=1.0, radius=0.35),
            discs.weierstrass_map(discs.weierstrass_helicoid(), scale=0.3,
                                  radius=0.6),
        ]
    if domain_name == "slab":
        return [
            discs.affine_disc(np.zeros(3), 2.0 * e1, 2.0 * e2, name="midplane"),
            discs.affine_disc(np.array([0.0, 0.0, 0.9]), 1.5 * e1, 1.5 * e2,
                              name="collar-plane"),
            discs.affine_disc(np.zeros(3), 0.9 * diag, 0.9 * e2, name="tilted"),
            discs.catenoid_map(scale=0.4, radius=0.8),
            discs.helicoid_map(scale=0.4, radius=0.8),
            discs.enneper_map(scale=0.2, radius=0.8),
            discs.weierstrass_map(discs.weierstrass_enneper(), scale=0.2,
                                  radius=0.6),
        ]
    if domain_name == "catenoid":
        return [
            discs.affine_disc(np.zeros(3), 0.5 * e1, 0.5 * e3, name="axial"),
            discs.affine_disc(np.array([0.0, 0.0, 0.3]), 0.6 * e1, 0.6 * e2,
                              name="horizontal"),
            discs.affine_disc(np.zeros(3), 0.45 * e2, 0.45 * e3, name="axial-y"),
            discs.catenoid_map(scale=0.5, radius=0.8),
            discs.weierstrass_map(discs.weierstrass_catenoid(), scale=0.45,
                                  shift=(0.45, 0.0, 0.0), center=1.0, radius=0.4),
        ]
    raise ValueError(f"no standard test maps for domain {domain_name!r}")


def map_from_spec(entry: dict):
    """Build a conformal map from a validated ``subharmonicity.maps`` entry."""
    kind = entry["type"]
    if kind == "affine":
        return discs.affine_disc(
            entry["p"], entry["u"], entry["w"], radius=entry["radius"], name=entry["name"]
        )
    if kind in discs.CHART_MAPS:
        return discs.CHART_MAPS[kind](
            scale=entry["scale"], shift=entry["shift"], radius=entry["radius"]
        )
    return discs.weierstrass_map(
        discs.WEIERSTRASS_DATA[kind](), scale=entry["scale"], shift=entry["shift"],
        center=complex(entry["center"]), radius=entry["radius"],
    )


def _run_subharmonicity(cfg: AnalysisConfig, report: Report) -> None:
    domain = surfaces.make_domain(**cfg.domain)
    bf = _barrier_for(cfg, domain)
    tol = cfg.params["tol"]
    inside = lambda x: domain.phi(x) <= 1e-9
    maps = (
        default_test_maps(domain.name)
        if cfg.params["maps"] is None
        else [map_from_spec(entry) for entry in cfg.params["maps"]]
    )
    for cm in maps:
        sweep = discs.subharmonicity_sweep(bf, cm, tol=tol, inside=inside)
        report.add(
            CheckRecord(
                f"min-laplacian:{cm.name}", sweep.min_laplacian, -tol,
                sweep.violations == 0,
                location=[sweep.argmin.real, sweep.argmin.imag],
                detail=f"{sweep.total} samples, rho in "
                f"[{sweep.rho_min:.6g}, {sweep.rho_max:.6g}]",
            )
        )
    if cfg.params["negative_control"]:
        neg = mpsh.ScalarField(
            lambda x: -float(x @ x),
            hess=lambda x: -2.0 * np.eye(3),
            name="negative-control",
        )
        cm = default_test_maps(domain.name)[0]
        sweep = discs.subharmonicity_sweep(neg, cm, tol=tol)
        report.add(
            CheckRecord(
                "negative-control-flagged", float(sweep.violations), 1.0,
                sweep.violations >= 1,
                detail="violations must be detected for a concave field",
            )
        )


def _run_metric(cfg: AnalysisConfig, report: Report) -> None:
    domain = surfaces.make_domain(**cfg.domain)
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.params["tolerance"]
    # the reach of a ball is its radius
    is_ball = domain.name == "sphere" and domain.reach_hint == 1.0
    pairs = []
    if cfg.params["point"] is not None:
        pairs.append(
            (
                np.asarray(cfg.params["point"], dtype=float),
                np.asarray(cfg.params["direction"], dtype=float),
            )
        )
    else:
        for _ in range(cfg.params["pairs"]):
            direction = rng.standard_normal(3)
            radius = cfg.params["max_radius"] * rng.uniform() ** (1.0 / 3.0)
            point = rng.standard_normal(3)
            point *= radius / np.linalg.norm(point)
            pairs.append((point, direction / np.linalg.norm(direction)))
    worst_ratio = 0.0
    worst_deficit = 0.0
    points, directions = (np.array(side) for side in zip(*pairs))
    try:
        estimates, failure = hyperbolicity.metric_upper_bound(domain, points, directions), None
    except Exception as exc:
        # the records of the pairs before the failing one come first
        estimates, failure = getattr(exc, "estimates", ()), exc
    for i, ((p, v), est) in enumerate(zip(pairs, estimates)):
        if is_ball:
            ref = hyperbolicity.bck_metric(p, v)
            ratio = est.bound / ref
            worst_ratio = max(worst_ratio, ratio)
            worst_deficit = min(worst_deficit, est.bound - ref)
            report.add(
                CheckRecord(
                    f"pair-{i}", ratio, 1.0 + tol, ratio <= 1.0 + tol,
                    location=list(p) + list(v),
                    detail=f"bound {est.bound:.8g} vs exact {ref:.8g}",
                )
            )
        else:
            report.add(
                CheckRecord(
                    f"pair-{i}", est.bound, None, True,
                    location=list(p) + list(v),
                    detail="upper bound only",
                )
            )
    if failure is not None:
        raise failure
    if is_ball:
        report.add(
            CheckRecord("max-ratio", worst_ratio, 1.0 + tol, worst_ratio <= 1.0 + tol)
        )
        report.add(
            CheckRecord(
                "min-deficit", worst_deficit, -1e-6, worst_deficit >= -1e-6,
                detail="upper bounds may never undershoot the exact metric",
            )
        )


def _run_omega_d(cfg: AnalysisConfig, report: Report) -> None:
    dom = hyperbolicity.SLICES[cfg.params["slice"]]()
    prev = np.inf
    monotone = True
    for k in cfg.params["ks"]:
        cb = hyperbolicity.omega_d_distance_chain(dom, cfg.params["p"], cfg.params["q"], k)
        monotone = monotone and cb.total <= prev + 1e-12
        report.add(
            CheckRecord(
                f"chain-k{k}", cb.total, prev + 1e-12, cb.total <= prev + 1e-12,
                location=[float(k)],
                detail=f"vertical {cb.vertical_p:.6g}+{cb.vertical_q:.6g}, "
                f"horizontal {cb.horizontal:.6g}",
            )
        )
        prev = cb.total
    report.add(
        CheckRecord(
            "degeneration", prev, cfg.params["threshold"],
            monotone and prev < cfg.params["threshold"],
            detail="bound at the largest k must fall below the threshold",
        )
    )


def _run_convex(cfg: AnalysisConfig, report: Report) -> None:
    rng = np.random.default_rng(cfg.seed)
    for fx in cfg.params["fixtures"]:
        h = hyperbolicity.HalfspaceIntersection(fx["normals"], fx["constants"], fx["interior"])
        contains, rank, witness = hyperbolicity.convex_contains_2plane(h)
        expected = fx["contains_plane"]
        report.add(
            CheckRecord(
                f"{fx['name']}:rank", float(rank), None, True,
                detail=f"dimension {h.normals.shape[1]}; contains 2-plane: {contains}",
            )
        )
        if expected is not None:
            report.add(
                CheckRecord(
                    f"{fx['name']}:classification", float(contains),
                    float(expected), contains == bool(expected),
                )
            )
        if contains and witness is not None:
            ring = hyperbolicity.plane_ring(witness.base, witness.span, 1e6, 64)
            inside = bool(np.all(h.contains(ring)))
            report.add(
                CheckRecord(
                    f"{fx['name']}:witness-contained", float(inside), 1.0, inside,
                    detail="exhibited plane stays inside out to radius 1e6",
                )
            )
        else:
            hits, _ = hyperbolicity.plane_escape_trials(
                h, cfg.params["trials"], rng
            )
            report.add(
                CheckRecord(
                    f"{fx['name']}:escape-trials", float(hits), 0.0, hits == 0,
                    detail=f"{cfg.params['trials']} random 2-planes, all must exit",
                )
            )


_PIPELINES = {
    "curvature": _run_curvature,
    "reach": _run_reach,
    "barrier": _run_barrier,
    "verify": _run_verify,
    "subharmonicity": _run_subharmonicity,
    "metric": _run_metric,
    "omega-d": _run_omega_d,
    "convex-classify": _run_convex,
}


def run(cfg: AnalysisConfig) -> Report:
    """Dispatch the configured pipeline; failures become a failure record."""
    report = Report(kind=cfg.kind, seed=cfg.seed, config_echo=cfg.raw)
    try:
        _PIPELINES[cfg.kind](cfg, report)
    except Exception as exc:
        report.failure = f"{type(exc).__name__}: {exc}"
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mconvex",
        description="Batch analyses of m-convex domains: curvature, reach, "
        "distance barriers, subharmonicity, and hyperbolicity probes.",
    )
    # each flag's dest is the config path it overrides
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} pipeline")
        sp.add_argument("--config", help="YAML config path")
        sp.add_argument("--seed", type=int, help="RNG seed override")
        sp.add_argument("--out", dest="output.path", metavar="OUT",
                        help="output path (default stdout)")
        sp.add_argument("--format", dest="output.format", choices=FORMATS)
        sp.add_argument("--workers", type=int, help="accepted for existing configs; no effect")
    overrides = vars(parser.parse_args(argv))
    try:
        cfg = validate(load_config(overrides.pop("config"), overrides))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run(cfg)
    payload = emit(report, cfg.fmt)
    if cfg.out is not None:
        write_atomic(cfg.out, payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    if report.failure is not None:
        return 1
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
