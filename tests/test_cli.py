import os

import numpy as np
import pytest
import yaml

from mconvex import cli, config, report


BARRIER_CFG = {
    "kind": "barrier",
    "seed": 5,
    "domain": {"name": "sphere"},
    "grid": {"interior": 200, "boundary": 64},
    "barrier": {"m": 2, "epsilon": 1.0},
}


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


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
