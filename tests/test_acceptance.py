"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them). The
sample counts and runtime budgets are part of the contract and must not be
reduced.
"""

import time

import numpy as np
import pytest

from mconvex import (
    barrier,
    cli,
    config,
    discs,
    hyperbolicity as hyp,
    mpsh,
    numkit,
    report,
    surfaces,
    tubular,
)

M = 2
FIVE_SURFACES = ("sphere", "halfspace", "cylinder", "slab", "catenoid")
BARRIER_DOMAINS = ("sphere", "slab", "catenoid")


def criterion(num, passed, description, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description}  {detail}")
    assert passed, f"criterion {num} failed: {description} ({detail})"


def collar_band(domain):
    """A conservative working band inside the estimated tube."""
    reach = domain.reach_hint
    if reach is None or not np.isfinite(reach):
        reach = 1.0
    return 0.02 * reach, 0.35 * reach


def warm_values_fn(domain, feet):
    """Signed-distance evaluator for stencil batches around known feet."""

    def fn(flat_points):
        reps = len(flat_points) // len(feet)
        warm = np.repeat(feet, reps, axis=0)
        _, delta, _ = tubular.project_batch(domain, flat_points, warm_feet=warm)
        return delta

    return fn


def fd_gradients(domain, points, feet, step):
    n = points.shape[1]
    offsets = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        offsets.append(e)
        offsets.append(-e)
    offsets = np.array(offsets)
    grid = (points[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    vals = warm_values_fn(domain, feet)(grid).reshape(len(points), 2 * n)
    grads = np.empty((len(points), n))
    for i in range(n):
        grads[:, i] = (vals[:, 2 * i] - vals[:, 2 * i + 1]) / (2.0 * step)
    return grads


def test_criterion_1_distance_field_fidelity():
    worst_overall = 0.0
    for name in FIVE_SURFACES:
        domain = surfaces.make_domain(name)
        lo, hi = collar_band(domain)
        t0 = time.monotonic()
        pts = tubular.collar_points(domain, 10000, lo, hi)
        feet, _, _ = tubular.project_batch(domain, pts)
        step = 1e-4
        grads = fd_gradients(domain, pts, feet, step)
        grad_err = float(np.max(np.abs(np.linalg.norm(grads, axis=-1) - 1.0)))
        hess = numkit.hessian_fd_batch(warm_values_fn(domain, feet), pts, step)
        prod = np.einsum("bij,bj->bi", hess, grads)
        prod_err = float(np.max(np.linalg.norm(prod, axis=-1)))
        elapsed = time.monotonic() - t0
        ok = grad_err <= 1e-6 and prod_err <= 1e-6 and elapsed <= 60.0
        criterion(
            1,
            ok,
            f"distance-field fidelity on {name}",
            f"| |grad|-1 | = {grad_err:.2e}, |H.grad| = {prod_err:.2e}, "
            f"{elapsed:.1f}s for 10000 samples",
        )
        worst_overall = max(worst_overall, grad_err, prod_err)


def test_criterion_2_curvature_transport():
    for name in FIVE_SURFACES:
        domain = surfaces.make_domain(name)
        lo, hi = collar_band(domain)
        pts = tubular.collar_points(domain, 1000, lo, hi)
        feet, delta, _ = tubular.project_batch(domain, pts)
        predicted = np.empty((len(pts), 3))
        for i in range(len(pts)):
            sp = surfaces.principal_curvatures(domain, feet[i])
            moved = tubular.transport_curvatures(sp, delta[i])
            predicted[i] = np.sort(np.append(moved, 0.0))
        fd = numkit.hessian_fd_batch(warm_values_fn(domain, feet), pts, 1e-4)
        worst = 0.0
        for i in range(len(pts)):
            lam = numkit.sym_eigen(fd[i]).eigenvalues
            rel = np.max(np.abs(lam - predicted[i]) / (1.0 + np.abs(predicted[i])))
            worst = max(worst, float(rel))
        ok = worst <= 1e-4
        criterion(
            2, ok, f"curvature transport vs differenced Hessian on {name}",
            f"worst relative deviation {worst:.2e} at 1000 offsets",
        )
    # closed form on the sphere: curvature 1/(R - |t|) reproduced exactly
    ball = surfaces.sphere()
    sp = surfaces.principal_curvatures(ball, np.array([1.0, 0.0, 0.0]))
    worst = 0.0
    for t in np.linspace(-0.9, -0.01, 50):
        moved = tubular.transport_curvatures(sp, t)
        worst = max(worst, float(np.max(np.abs(moved - 1.0 / (1.0 - abs(t))))))
    criterion(
        2, worst <= 1e-8, "sphere closed-form transport 1/(R-|t|)",
        f"worst deviation {worst:.2e}",
    )


def test_criterion_3_curvature_bounds():
    for name in FIVE_SURFACES:
        domain = surfaces.make_domain(name)
        samples = domain.boundary_samples(256)
        est = tubular.reach_estimate(domain, samples, probe_count=12)
        rep = tubular.curvature_bounds_check(domain, est.value, M, samples)
        worst = min(rep.worst_lower, rep.worst_upper, rep.worst_negative_sum)
        ok = rep.passed and worst >= -1e-9
        criterion(
            3, ok, f"curvature bounds at estimated tube radius on {name}",
            f"eps = {est.value:.6g}, worst margin {worst:.2e}, "
            f"violations {len(rep.violations)}",
        )


def build_acceptance_barrier(name):
    domain = surfaces.make_domain(name)
    if domain.exact_projection is not None:
        eps = float(domain.reach_hint)
    else:
        est = tubular.reach_estimate(domain, domain.boundary_samples(128), probe_count=8)
        eps = 0.8 * est.value
    return domain, barrier.build_barrier(domain, m=M, eps=eps)


def interior_grid(domain, bf, count):
    n_collar = int(0.7 * count)
    pts = tubular.collar_points(domain, n_collar, 1e-3, 0.98 * bf.collar.eps0p)
    deep = tubular.collar_points(
        domain, count - n_collar, 0.98 * bf.collar.eps0p, 0.45 * bf.collar.reach
    )
    return np.concatenate([pts, deep])


def test_criterion_4_barrier_construction():
    t_start = time.monotonic()
    for name in BARRIER_DOMAINS:
        domain, bf = build_acceptance_barrier(name)
        interior = interior_grid(domain, bf, 10000)
        boundary = domain.boundary_samples(512)
        hessians, _ = bf.hessian_batch(interior)
        verdict = mpsh.grid_verdict(bf, interior, M, tol=1e-8, hessians=hessians)
        rep = barrier.verify_barrier(bf, interior, boundary, level_count=10)
        checks = {c.name: c for c in rep.checks}
        ok = (
            verdict.violated_count == 0
            and checks["boundary-zero"].passed
            and checks["gradient-floor"].passed
            and checks["level-set"].passed
            and checks["psh-margin"].passed
        )
        criterion(
            4, ok, f"defining-function construction on {name}",
            f"0 of {verdict.total} samples violated (worst margin "
            f"{verdict.worst_margin:.2e}); boundary residual "
            f"{checks['boundary-zero'].worst_value:.2e}; level error "
            f"{checks['level-set'].worst_value:.2e}",
        )
    elapsed = time.monotonic() - t_start
    criterion(4, elapsed <= 300.0, "construction runtime budget", f"{elapsed:.0f}s")


def test_criterion_5_eigen_list_identity():
    for name in BARRIER_DOMAINS:
        domain, bf = build_acceptance_barrier(name)
        pts = tubular.collar_points(domain, 1000, 1e-3, 0.9 * bf.collar.eps1)
        fd = numkit.hessian_fd_richardson_batch(bf.value_batch, pts, 1e-3)
        _, predicted = bf.hessian_batch(pts)
        worst = 0.0
        for i in range(len(pts)):
            lam = np.sort(np.linalg.eigvalsh(fd[i]))
            worst = max(worst, float(np.max(np.abs(lam - predicted[i]))))
        criterion(
            5, worst <= 1e-6, f"inner-collar Hessian spectrum identity on {name}",
            f"worst deviation vs differenced Hessian {worst:.2e} at 1000 samples",
        )


def test_criterion_6_subharmonicity():
    total_maps = 0
    worst = np.inf
    for name in BARRIER_DOMAINS:
        domain, bf = build_acceptance_barrier(name)
        inside = lambda x, d=domain: d.phi(x) <= 1e-9
        for cm in cli.default_test_maps(name):
            sweep = discs.subharmonicity_sweep(bf, cm, tol=1e-8, inside=inside)
            total_maps += 1
            worst = min(worst, sweep.min_laplacian)
            assert sweep.violations == 0, (name, cm.name)
    neg = mpsh.ScalarField(
        lambda x: -float(x @ x), hess=lambda x: -2.0 * np.eye(3)
    )
    flagged = discs.subharmonicity_sweep(
        neg, cli.default_test_maps("sphere")[0], tol=1e-8
    )
    ok = total_maps >= 20 and worst >= -1e-8 and flagged.violations > 0
    criterion(
        6, ok, "composed Laplacians nonnegative for the test-map catalog",
        f"{total_maps} maps, min Laplacian {worst:.2e}, negative control "
        f"flagged {flagged.violations} times",
    )


def test_criterion_7_bck_reproduction():
    ball = surfaces.sphere()
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst_ratio = 0.0
    worst_deficit = 0.0
    for _ in range(100):
        direction = rng.standard_normal(3)
        radius = 0.9 * rng.uniform() ** (1.0 / 3.0)
        point = rng.standard_normal(3)
        point *= radius / np.linalg.norm(point)
        est = hyp.metric_upper_bound(ball, point, direction)
        exact = hyp.bck_metric(point, direction)
        worst_ratio = max(worst_ratio, est.bound / exact)
        worst_deficit = min(worst_deficit, est.bound - exact)
    elapsed = time.monotonic() - t0
    ok = worst_ratio <= 1.01 and worst_deficit >= -1e-6 and elapsed <= 120.0
    criterion(
        7, ok, "disc search reproduces the Klein-ball metric",
        f"max ratio {worst_ratio:.5f}, min deficit {worst_deficit:.1e}, "
        f"{elapsed:.0f}s for 100 pairs",
    )


def test_criterion_8_omega_d_degeneration():
    dom = hyp.punctured_plane()
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([1.0, 0.0, 0.0])
    totals = []
    for k in (10, 100, 1000, 10000):
        totals.append(hyp.omega_d_distance_chain(dom, p, q, k).total)
    monotone = all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    ok = monotone and totals[-1] < 0.01
    criterion(
        8, ok, "internal distance bound degenerates on the product domain",
        f"bounds {['%.4g' % t for t in totals]}",
    )


def test_criterion_9_convex_classifier():
    slab = hyp.HalfspaceIntersection(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        np.array([1.0, 1.0]),
        np.zeros(3),
    )
    contains, rank, witness = hyp.convex_contains_2plane(slab)
    angles = 2.0 * np.pi * np.arange(64) / 64
    ring = (
        witness.base[None, :]
        + 1e6 * np.cos(angles)[:, None] * witness.span[0][None, :]
        + 1e6 * np.sin(angles)[:, None] * witness.span[1][None, :]
    )
    slab_ok = contains and rank == 1 and all(slab.contains(r) for r in ring)

    wedge = hyp.HalfspaceIntersection(
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.zeros(2),
        np.array([0.0, -1.0, -1.0]),
    )
    w_contains, w_rank, _ = hyp.convex_contains_2plane(wedge)
    rng = np.random.default_rng(99)
    hits, _ = hyp.plane_escape_trials(wedge, 10000, rng)
    wedge_ok = (not w_contains) and w_rank == 2 and hits == 0

    free = hyp.HalfspaceIntersection(np.zeros((0, 3)), np.zeros(0), np.zeros(3))
    f_contains, f_rank, _ = hyp.convex_contains_2plane(free)
    ok = slab_ok and wedge_ok and f_contains and f_rank == 0
    criterion(
        9, ok, "convex domains classified by their linear-functional rank",
        f"slab witness verified; wedge rank {w_rank}, {hits}/10000 trial planes "
        "contained",
    )


def test_criterion_10_determinism():
    configs = [
        {
            "kind": "metric",
            "seed": 7,
            "domain": {"name": "sphere"},
            "metric": {"pairs": 3, "max_radius": 0.8, "tolerance": 0.01},
        },
        {
            "kind": "barrier",
            "seed": 7,
            "domain": {"name": "sphere"},
            "grid": {"interior": 300, "boundary": 64},
            "barrier": {"m": 2, "epsilon": 1.0},
        },
        {
            "kind": "omega-d",
            "seed": 1,
            "omega_d": {"ks": [10, 100], "threshold": 0.5},
        },
    ]
    identical = True
    for data in configs:
        cfg = config.validate(dict(data))
        for fmt in ("json-lines", "csv-summary"):
            a = report.emit(cli.run(cfg), fmt)
            b = report.emit(cli.run(cfg), fmt)
            identical = identical and a == b
    criterion(10, identical, "repeated runs are byte-identical", "3 configs x 2 formats")
