import copy
import glob
import inspect
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from mconvex import cli, config, discs, report, surfaces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


BARRIER_CFG = {
    "kind": "barrier",
    "seed": 5,
    "domain": {"name": "sphere"},
    "grid": {"interior": 200, "boundary": 64},
    "barrier": {"m": 2, "epsilon": 1.0},
}


SUBHARMONICITY_CFG = {
    "kind": "subharmonicity",
    "domain": {"name": "slab"},
    "barrier": {"m": 2, "epsilon": 1.0},
}

SLAB_FIXTURE = {
    "name": "slab",
    "normals": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
    "constants": [1.0, 1.0],
    "interior": [0.0, 0.0, 0.0],
}


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def with_section(base, section, **keys):
    data = copy.deepcopy(base)
    data.setdefault(section, {}).update(keys)
    return data


# (subcommand, config document, environment, the field path the error names)
SCHEMA_VIOLATIONS = [
    # misspelt or unknown keys, which a run would otherwise ignore
    ("barrier", with_section(BARRIER_CFG, "barrier", epsilom=0.5), {}, "barrier.epsilom"),
    ("metric", {"metric": {"pairs": 1}, "metrc": {"pairs": 2}}, {}, "metrc"),
    ("barrier", BARRIER_CFG, {"MCONVEX_BARRIER__EPSILOM": "0.5"}, "barrier.epsilom"),
    # values the pipeline cannot use
    ("barrier", with_section(BARRIER_CFG, "domain", bogus=1), {}, "domain.bogus"),
    ("barrier", with_section(BARRIER_CFG, "domain", half_width=2.0), {}, "domain.half_width"),
    ("barrier", with_section(BARRIER_CFG, "barrier", ratios=["a", "b", "c"]), {},
     "barrier.ratios[0]"),
    ("barrier", with_section(BARRIER_CFG, "barrier", ratios=[0.9, 0.3, 0.6]), {},
     "barrier.ratios"),
    ("barrier", with_section(BARRIER_CFG, "barrier", cap_degree=4), {}, "barrier.cap_degree"),
    ("curvature", {"domain": {"name": "catenoid"}, "curvature": {"m": 5}}, {}, "curvature.m"),
    ("barrier", with_section(BARRIER_CFG, "barrier", m=3), {}, "barrier.m"),
    ("reach", {"domain": {"name": "catenoid"}, "reach": {"m": 2, "probes": 0}}, {},
     "reach.probes"),
    # fields needed together, or by a map entry's type
    ("metric", {"metric": {"point": [0.1, 0.0, 0.0]}}, {}, "metric.direction"),
    ("subharmonicity", with_section(SUBHARMONICITY_CFG, "subharmonicity", maps=[{"type": "nope"}]),
     {}, "subharmonicity.maps[0].type"),
    ("subharmonicity", with_section(SUBHARMONICITY_CFG, "subharmonicity", maps=[{"type": "affine"}]),
     {}, "subharmonicity.maps[0].p"),
    # values that would make a check vacuous
    ("metric", {"metric": {"pairs": -3}}, {}, "metric.pairs"),
    ("barrier", with_section(BARRIER_CFG, "barrier", levels=-2), {}, "barrier.levels"),
    ("convex-classify", {"convex": {"trials": 0, "fixtures": [SLAB_FIXTURE]}}, {},
     "convex.trials"),
    ("subharmonicity",
     with_section(SUBHARMONICITY_CFG, "subharmonicity", maps=[], negative_control=False), {},
     "subharmonicity.maps"),
    ("omega-d", {"omega_d": {"ks": [1, 10]}}, {}, "omega_d.ks[0]"),
    # endpoints off the z = 0 slice
    ("omega-d", {}, {"MCONVEX_OMEGA_D__P": "[0,0,0.5]"}, "omega_d.p"),
    ("omega-d", {"omega_d": {"q": [1.0, 0.0, -0.25]}}, {}, "omega_d.q"),
    # fixtures off the documented k x n normals, k constants, n interior shapes
    ("convex-classify", {"convex": {"fixtures": [
        {**SLAB_FIXTURE, "normals": [[0.0, 0.0, 1.0]], "constants": [1.0, 5.0]}]}}, {},
     "convex.fixtures[0].constants"),
    ("convex-classify", {"convex": {"fixtures": [
        SLAB_FIXTURE, {**SLAB_FIXTURE, "normals": [[0.0, 0.0, 1.0], [0.0, -1.0]]}]}}, {},
     "convex.fixtures[1].normals"),
    ("convex-classify", {"convex": {"fixtures": [
        SLAB_FIXTURE, {**SLAB_FIXTURE, "interior": [0.0, 0.0]}]}}, {},
     "convex.fixtures[1].interior"),
    ("convex-classify", {"convex": {"fixtures": [
        {**SLAB_FIXTURE, "normals": [], "constants": []}]}}, {},
     "convex.fixtures[0].normals"),
    ("convex-classify", {"convex": {"fixtures": [
        {**SLAB_FIXTURE, "normals": [[1.0]], "constants": [1.0], "interior": [0.0]}]}}, {},
     "convex.fixtures[0].interior"),
    # non-finite floats, which would otherwise run and report a vacuous pass
    ("metric", {"metric": {"point": [float("nan"), 0.0, 0.0], "direction": [1.0, 0.0, 0.0]}},
     {}, "metric.point[0]"),
    ("omega-d", {"omega_d": {"slice": "plane", "p": [float("nan"), 0.0, 0.0]}}, {},
     "omega_d.p[0]"),
    ("convex-classify", {"convex": {"fixtures": [
        {**SLAB_FIXTURE, "normals": [[0.0, 0.0, float("inf")], [0.0, 0.0, -1.0]]}]}}, {},
     "convex.fixtures[0].normals[0][2]"),
]


@pytest.mark.parametrize(
    "kind, data, env, path", SCHEMA_VIOLATIONS,
    ids=[next(iter(env), path) for _, _, env, path in SCHEMA_VIOLATIONS],
)
def test_schema_violation_exits_2_naming_path(tmp_path, monkeypatch, capsys, kind, data, env, path):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "report.jsonl"
    assert cli.main([kind, "--config", write_cfg(tmp_path, data), "--out", str(out)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, arg", [("sphere", "radius"), ("cylinder", "radius"),
                                       ("catenoid", "scale")])
def test_huge_domain_length_exits_2_naming_path(tmp_path, capsys, name, arg):
    # such a length overflowed in the fields' squares, and the run ended in a
    # failure record: a RuntimeWarning, or else a misleading SingularPointError
    out = tmp_path / "report.jsonl"
    cfg = write_cfg(tmp_path, {"domain": {"name": name, arg: 1.0e300}})
    assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: domain.{arg}: " in capsys.readouterr().err
    assert not out.exists()
    # the largest length admitted builds its domain without a warning
    assert config.validate({"kind": "metric", "domain": {"name": name, arg: 1e150}})
    surfaces.make_domain(name, **{arg: 1e150})


def test_reach_of_tiny_sphere_fails_naming_eps(tmp_path):
    # the reach of this sphere estimates to 0, and its curvature bounds
    # divided by it: the failure record read "ZeroDivisionError: float
    # division by zero"
    out = tmp_path / "report.jsonl"
    cfg = write_cfg(tmp_path, {"kind": "reach", "domain": {"name": "sphere", "radius": 1.0e-20},
                               "grid": {"boundary": 16}, "reach": {"m": 2, "probes": 4}})
    assert cli.main(["reach", "--config", cfg, "--out", str(out)]) == 1
    assert ('{"record":"failure","message":"ValueError: eps must be positive and finite, '
            'got eps = 0.0"}') in out.read_text().splitlines()


def test_yaml_syntax_error_exits_2_naming_file(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("kind: barrier\ndomain: {name: sphere}\nbarrier: {m: 2\n")
    out = tmp_path / "report.jsonl"
    assert cli.main(["barrier", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {path}: not valid YAML" in capsys.readouterr().err
    assert not out.exists()


def test_map_entries_take_documented_defaults():
    entries = [
        {"type": "affine", "p": [0, 0, 0.1], "u": [0.5, 0, 0], "w": [0, 0.5, 0]},
        {"type": "catenoid-chart", "scale": 0.4},
        {"type": "helicoid-chart", "shift": [0.1, 0, 0]},
        {"type": "enneper-chart", "radius": 0.3},
        {"type": "weierstrass-catenoid", "center": 1, "radius": 0.3},
        {"type": "weierstrass-helicoid"},
        {"type": "weierstrass-enneper", "scale": 0.2},
    ]
    expected = [
        discs.affine_disc([0, 0, 0.1], [0.5, 0, 0], [0, 0.5, 0], radius=1.0, name="affine"),
        discs.catenoid_map(scale=0.4, shift=(0, 0, 0), radius=0.5),
        discs.helicoid_map(scale=1.0, shift=(0.1, 0, 0), radius=0.5),
        discs.enneper_map(scale=1.0, shift=(0, 0, 0), radius=0.3),
        discs.weierstrass_map(discs.weierstrass_catenoid(), scale=1.0, shift=(0, 0, 0),
                              center=1.0, radius=0.3),
        discs.weierstrass_map(discs.weierstrass_helicoid(), scale=1.0, shift=(0, 0, 0),
                              center=0.0, radius=0.5),
        discs.weierstrass_map(discs.weierstrass_enneper(), scale=0.2, shift=(0, 0, 0),
                              center=0.0, radius=0.5),
    ]
    cfg = config.validate(with_section(SUBHARMONICITY_CFG, "subharmonicity", maps=entries))
    for entry, ref in zip(cfg.params["maps"], expected):
        cm = cli.map_from_spec(entry)
        assert (cm.name, cm.center, cm.radius) == (ref.name, ref.center, ref.radius)
        zs = ref.grid(rings=2, spokes=4)
        assert np.array_equal(cm(zs), ref(zs)), entry["type"]


BARRIER_PARAMS = {
    "m": 2, "epsilon": None, "epsilon_fraction": 0.8, "alpha": None, "safety": 0.99,
    "ratios": [0.9, 0.6, 0.3], "cap_degree": 3, "psh_tol": 1e-8, "levels": 10, "fd_checks": 0,
}
DEFAULT_GRID = {"interior": 2000, "boundary": 400}

# what each committed config validates to, pinned so that a schema change
# cannot move a pipeline's inputs: (kind, seed, workers, domain, grid, params)
COMMITTED = {
    "barrier_sphere": ("barrier", 7, 1, {"name": "sphere"}, {"interior": 1500, "boundary": 300},
                       {**BARRIER_PARAMS, "epsilon": 1.0}),
    "convex_classify": ("convex-classify", 3, 1, {"name": "sphere"}, DEFAULT_GRID, {
        "fixtures": [
            {**SLAB_FIXTURE, "contains_plane": True},
            {"name": "wedge", "normals": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
             "constants": [0.0, 0.0], "interior": [0.0, -1.0, -1.0], "contains_plane": False},
        ],
        "trials": 2000,
    }),
    "curvature_catenoid": ("curvature", 0, 1, {"name": "catenoid"},
                           {"interior": 2000, "boundary": 400},
                           {"m": 2, "flat_tol": None, "r0": 1.5}),
    "metric_ball": ("metric", 11, 1, {"name": "sphere"}, DEFAULT_GRID, {
        "pairs": 5, "max_radius": 0.9, "tolerance": 0.01, "point": None, "direction": None,
    }),
    "omega_d": ("omega-d", 0, 1, {"name": "sphere"}, DEFAULT_GRID, {
        "slice": "punctured-plane", "p": [0.0, 0.0, 0.0], "q": [1.0, 0.0, 0.0],
        "ks": [10, 100, 1000, 10000], "threshold": 0.01,
    }),
    "reach_catenoid": ("reach", 0, 1, {"name": "catenoid"}, {"interior": 2000, "boundary": 144},
                       {"m": 2, "probes": 12}),
    "subharmonicity_slab": ("subharmonicity", 0, 1, {"name": "slab"}, DEFAULT_GRID, {
        **BARRIER_PARAMS, "epsilon": 1.0, "tol": 1e-8, "negative_control": True, "maps": None,
    }),
    "verify_catenoid": ("verify", 0, 2, {"name": "catenoid"}, DEFAULT_GRID, BARRIER_PARAMS),
}


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(ROOT, "configs", "*.yaml"))), ids=os.path.basename
)
def test_committed_config_validates_unchanged(path):
    data = config.load_config(path)
    loaded = copy.deepcopy(data)
    cfg = config.validate(data)
    # the echo is the document as loaded, with no defaults written into it
    assert cfg.raw is data and data == loaded
    kind, seed, workers, domain, grid, params = COMMITTED[os.path.basename(path)[:-5]]
    assert (cfg.kind, cfg.seed, cfg.out, cfg.fmt, cfg.workers) == (
        kind, seed, None, "json-lines", workers
    )
    assert (cfg.domain, cfg.grid, cfg.params) == (domain, grid, params)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(ROOT, "configs", "*.yaml"))), ids=os.path.basename
)
def test_committed_config_matches_golden_report(path):
    """Each committed config reproduces its golden report byte for byte.

    A change that moves a reported value regenerates the file with
    ``mconvex <kind> --config configs/<name>.yaml > tests/golden/<name>.jsonl``
    and lists the old and new values in CHANGES.md.
    """
    name = os.path.basename(path)[:-5]
    cfg = config.validate(config.load_config(path))
    with open(os.path.join(ROOT, "tests", "golden", name + ".jsonl"), "rb") as fh:
        golden = fh.read()
    assert report.emit(cli.run(cfg), cfg.fmt) == golden


def schema_rows(rows, prefix=""):
    """Every (documented key, row) of a schema table; list records use ``[]``."""
    for path, key in rows.items():
        yield prefix + path, key
        for sub in (key.choices.values() if isinstance(key.choices, dict) else ()):
            yield from schema_rows(sub, prefix)
        if isinstance(key.item, dict):
            yield from schema_rows(key.item, f"{prefix}{path}[].")


def test_docs_tables_match_schema():
    ranges = {}
    for name, key in schema_rows(config.SCHEMA):
        ranges.setdefault(name, set()).add(key.range or "-")
    documented, domain_rows = {}, {}
    with open(os.path.join(ROOT, "docs", "config.md"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("| `"):
                cells = [cell.strip() for cell in line.split("|")[1:-1]]
                (name,) = re.findall(r"`([^`]+)`", cells[0])
                documented[name] = {cells[3].strip("`")}
                if name.startswith("domain."):
                    domain_rows[name] = (cells[2], cells[4])
    assert set(documented) == set(ranges)
    assert documented == ranges
    # the domain rows: each builder parameter with its default and the
    # builders taking it, in catalog order
    defaults = {}
    for builder, build in surfaces.DOMAIN_BUILDERS.items():
        for arg in inspect.signature(build).parameters.values():
            defaults.setdefault(f"domain.{arg.name}", {})[builder] = arg.default
    expected = {key: ({f"`{d!r}`" for d in by.values()}, ", ".join(f"`{b}`" for b in by))
                for key, by in defaults.items()}
    expected["domain.name"] = ({f"`{config.SCHEMA['domain.name'].default}`"},
                               ", ".join(f"`{b}`" for b in surfaces.DOMAIN_BUILDERS))
    assert {key: ({default}, notes) for key, (default, notes) in domain_rows.items()} == expected


def test_validate_fills_defaults():
    cfg = config.validate(dict(BARRIER_CFG))
    assert cfg.kind == "barrier"
    assert cfg.fmt == "json-lines"
    assert cfg.workers == 1
    assert cfg.params["safety"] == 0.99


def test_missing_field_reports_path():
    bad = {"kind": "barrier", "domain": {"name": "sphere"}}
    with pytest.raises(config.ConfigError) as err:
        config.validate(bad)
    assert err.value.path == "barrier.m"


def test_bad_kind_rejected():
    with pytest.raises(config.ConfigError) as err:
        config.validate({"kind": "frobnicate"})
    assert err.value.path == "kind"


def test_type_errors_report_path():
    bad = dict(BARRIER_CFG)
    bad["seed"] = "seven"
    with pytest.raises(config.ConfigError) as err:
        config.validate(bad)
    assert err.value.path == "seed"


def test_env_override(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, BARRIER_CFG)
    monkeypatch.setenv("MCONVEX_BARRIER__M", "1")
    monkeypatch.setenv("MCONVEX_SEED", "99")
    data = config.load_config(path)
    cfg = config.validate(data)
    assert cfg.params["m"] == 1
    assert cfg.seed == 99


def test_cli_override_beats_env(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, BARRIER_CFG)
    monkeypatch.setenv("MCONVEX_SEED", "99")
    data = config.load_config(path, {"seed": 3})
    assert config.validate(data).seed == 3


def test_emit_json_lines_fixed_order():
    rep = report.Report(kind="metric", seed=1, config_echo={"kind": "metric"})
    rep.add(report.CheckRecord("alpha", 1.0, 2.0, True, location=[0.5], detail="d"))
    payload = report.emit(rep, "json-lines").decode()
    lines = payload.splitlines()
    assert lines[0] == '{"record":"meta","tool":"mconvex","version":"0.1.0","kind":"metric","seed":1}'
    assert lines[2] == (
        '{"record":"check","name":"alpha","value":1,"threshold":2,'
        '"passed":true,"location":[0.5],"detail":"d"}'
    )
    assert lines[-1] == '{"record":"summary","verdict":"pass","checks":1,"failed":0}'


def test_emit_seventeen_digit_floats():
    rep = report.Report(kind="metric", seed=0, config_echo={})
    rep.add(report.CheckRecord("pi-ish", 0.1 + 0.2, None, True))
    payload = report.emit(rep, "json-lines").decode()
    assert "0.30000000000000004" in payload


def test_emit_empty_csv_header_only():
    rep = report.Report(kind="metric", seed=0, config_echo={})
    payload = report.emit(rep, "csv-summary").decode()
    assert payload == "record,name,value,threshold,passed,location,detail\n"


def test_emit_csv_rows():
    rep = report.Report(kind="metric", seed=0, config_echo={})
    rep.add(report.CheckRecord("a,b", 1.5, None, True, detail='say "hi"'))
    lines = report.emit(rep, "csv-summary").decode().splitlines()
    assert lines[1] == 'check,"a,b",1.5,,true,,"say ""hi"""'


def test_run_barrier_and_determinism(tmp_path):
    cfg = config.validate(dict(BARRIER_CFG))
    first = report.emit(cli.run(cfg), "json-lines")
    second = report.emit(cli.run(cfg), "json-lines")
    assert first == second
    assert b'"verdict":"pass"' in first


def test_main_exit_codes(tmp_path, capsys):
    ok_path = write_cfg(tmp_path, BARRIER_CFG)
    out_path = str(tmp_path / "out.jsonl")
    code = cli.main(["barrier", "--config", ok_path, "--out", out_path])
    assert code == 0
    assert os.path.exists(out_path)
    assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]

    bad_path = write_cfg(tmp_path, {"domain": {"name": "sphere"}}, "bad.yaml")
    assert cli.main(["barrier", "--config", bad_path]) == 2

    outside = dict(
        kind="metric",
        domain={"name": "sphere"},
        metric={"point": [2.0, 0.0, 0.0], "direction": [1.0, 0.0, 0.0]},
    )
    fail_path = write_cfg(tmp_path, outside, "outside.yaml")
    code = cli.main(["metric", "--config", fail_path, "--out", out_path])
    assert code == 1
    with open(out_path) as fh:
        text = fh.read()
    assert '"record":"failure"' in text
    assert "OutsideDomainError" in text


def test_main_writes_atomically(tmp_path):
    path = write_cfg(tmp_path, BARRIER_CFG)
    out = tmp_path / "nested" / "report.jsonl"
    assert cli.main(["barrier", "--config", path, "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [p for p in os.listdir(out.parent) if "tmp" in p]
    assert leftovers == []


def test_subcommand_sets_kind(tmp_path):
    data = dict(BARRIER_CFG)
    del data["kind"]
    path = write_cfg(tmp_path, data)
    out = str(tmp_path / "r.jsonl")
    assert cli.main(["barrier", "--config", path, "--out", out]) == 0
    with open(out) as fh:
        assert '"kind":"barrier"' in fh.read()


def test_worker_count_does_not_change_results():
    base = dict(BARRIER_CFG)
    base["kind"] = "verify"
    cfg1 = config.validate(dict(base))
    payload1 = report.emit(cli.run(cfg1), "json-lines")
    base["workers"] = 4
    cfg4 = config.validate(dict(base))
    payload4 = report.emit(cli.run(cfg4), "json-lines")
    # strip the config echo (it records the worker count) and compare checks
    lines1 = [l for l in payload1.splitlines() if b'"record":"check"' in l]
    lines4 = [l for l in payload4.splitlines() if b'"record":"check"' in l]
    assert lines1 == lines4


def test_chunked_map_order_independent():
    # fixed-size chunks, merged in chunk order
    items = np.arange(1000)
    chunks = cli.chunked_map(lambda c: c, items)
    assert [len(c) for c in chunks] == [cli.CHUNK] * 3 + [1000 - 3 * cli.CHUNK]
    assert np.array_equal(np.concatenate(chunks), items)


def test_metric_seeded_determinism():
    cfg_data = {
        "kind": "metric",
        "seed": 13,
        "domain": {"name": "sphere"},
        "metric": {"pairs": 2, "max_radius": 0.8, "tolerance": 0.01},
    }
    cfg = config.validate(dict(cfg_data))
    a = report.emit(cli.run(cfg), "json-lines")
    b = report.emit(cli.run(cfg), "json-lines")
    assert a == b


def test_metric_failure_keeps_the_records_before_it(tmp_path):
    # pair 1 of this draw lies outside the ball: pair 0 is reported, then the
    # failure; the config record between meta and pair 0 echoes the file
    data = dict(kind="metric", seed=2, domain={"name": "sphere"},
                metric={"pairs": 4, "max_radius": 1.5})
    out = tmp_path / "out.jsonl"
    assert cli.main(["metric", "--config", write_cfg(tmp_path, data), "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == '{"record":"meta","tool":"mconvex","version":"0.1.0","kind":"metric","seed":2}'
    assert lines[2:] == [
        '{"record":"check","name":"pair-0","value":1.0001958333030267,"threshold":1.01,"passed":true,"location":[0.56473583234554292,0.35903140271026679,-0.10211545410507374,0.27298068055600477,-0.75481445484455545,-0.59643665782788446],"detail":"bound 1.362822 vs exact 1.3625551"}',
        '{"record":"failure","message":"OutsideDomainError: base point [-0.42150233363675704, -0.44629567274297105, -1.0751398080589154] is not inside the domain"}',
        '{"record":"summary","verdict":"error","checks":1,"failed":0}',
    ]


def test_metric_nan_pair_fails_both_summaries(monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN ratio used to leave max-ratio at 0 and passing
    def estimates(domain, p, v):
        good = 1.001 * cli.hyperbolicity.bck_metric(p[0], v[0])
        return SimpleNamespace(bound=good), SimpleNamespace(bound=math.nan)

    monkeypatch.setattr(cli.hyperbolicity, "metric_upper_bound", estimates)
    rep = cli.run(config.validate({"kind": "metric", "metric": {"pairs": 2}}))
    records = {r.name: r for r in rep.records}
    assert records["pair-0"].passed and not records["pair-1"].passed
    for name in ("max-ratio", "min-deficit"):
        assert math.isnan(records[name].value) and not records[name].passed
        assert records[name].detail == "pair-1 is NaN"


def test_omega_d_pipeline():
    cfg = config.validate(
        {
            "kind": "omega-d",
            "omega_d": {"ks": [10, 100], "threshold": 0.5},
        }
    )
    rep = cli.run(cfg)
    assert rep.verdict == "pass"


def test_convex_pipeline_fixture_mismatch_fails():
    cfg = config.validate(
        {
            "kind": "convex-classify",
            "convex": {
                "trials": 50,
                "fixtures": [
                    {
                        "name": "slab",
                        "normals": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                        "constants": [1.0, 1.0],
                        "interior": [0.0, 0.0, 0.0],
                        "contains_plane": False,  # wrong on purpose
                    }
                ],
            },
        }
    )
    rep = cli.run(cfg)
    assert rep.verdict == "fail"
