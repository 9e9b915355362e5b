import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anisofield
from anisofield import cli
from anisofield.cli import main
from anisofield.errors import ModelError
from anisofield.fileio import (format_float, read_csv, read_field_afld,
                               read_json, write_csv, write_json)
from anisofield.kriging import Observations, krige
from anisofield.models import canonical_c, fbm, model_from_dict, model_to_dict
from anisofield.quadrature import QuadratureSpec
from anisofield.variogram import variogram_table

TIGHT_FLAGS = ["--rel-tol", "0.01"]


@pytest.fixture
def bm_model(tmp_path):
    path = tmp_path / "bm.json"
    write_json(path, model_to_dict(fbm(0.5, 1)))
    return str(path)


@pytest.fixture
def bad_model(tmp_path):
    # boundary case: gamma equals the divergence threshold
    path = tmp_path / "bad.json"
    write_json(path, model_to_dict(canonical_c(beta=(1.0,), gamma=1.0)))
    return str(path)


def test_simulate_reruns_are_byte_identical(tmp_path, bm_model, capsys):
    args = ["simulate", "--model", bm_model, "--grid", "0:1:8",
            "--lattice", "64", "--seed", "3"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "wrote" in capsys.readouterr().out


def test_simulate_output_ignores_thread_environment(tmp_path, bm_model,
                                                   monkeypatch):
    args = ["simulate", "--model", bm_model, "--grid", "0:1:8",
            "--lattice", "64", "--seed", "3"]
    out_env, out_plain = tmp_path / "env.csv", tmp_path / "plain.csv"
    monkeypatch.setenv("ANISOFIELD_THREADS", "abc")
    assert main(args + ["--out", str(out_env)]) == 0
    monkeypatch.delenv("ANISOFIELD_THREADS")
    assert main(args + ["--out", str(out_plain)]) == 0
    assert out_env.read_bytes() == out_plain.read_bytes()
    first = out_plain.read_text().splitlines()[0]
    assert first.startswith("# provenance: ")
    assert "threads" not in json.loads(first[len("# provenance: "):])


def test_simulate_afld_agrees_with_csv(tmp_path, bm_model):
    args = ["simulate", "--model", bm_model, "--grid", "0:1:8",
            "--lattice", "64", "--seed", "3"]
    csv_path, afld_path = tmp_path / "f.csv", tmp_path / "f.afld"
    assert main(args + ["--out", str(csv_path)]) == 0
    assert main(args + ["--out", str(afld_path)]) == 0
    table = read_csv(csv_path, min_columns=3)
    field = read_field_afld(afld_path)
    assert field.grid.shape == (8,)
    assert field.grid.spacing == (0.125,)  # endpoint excluded
    assert np.allclose(table[:, 2], field.values[:, 0], rtol=1e-9)


def test_simulate_format_flag_overrides_suffix(tmp_path, bm_model):
    out = tmp_path / "f.afld"
    assert main(["simulate", "--model", bm_model, "--grid", "0:1:8",
                 "--lattice", "64", "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("# provenance:")


def test_config_file_supplies_defaults_flags_win(tmp_path, bm_model):
    config = tmp_path / "config.json"
    write_json(config, {"seed": 7, "lattice": 64, "grid": "0:1:8"})
    base = ["simulate", "--model", bm_model, "--config", str(config)]

    out_cfg = tmp_path / "cfg.afld"
    assert main(base + ["--out", str(out_cfg)]) == 0
    assert read_field_afld(out_cfg).seed == 7

    out_flag = tmp_path / "flag.afld"
    assert main(base + ["--seed", "9", "--out", str(out_flag)]) == 0
    assert read_field_afld(out_flag).seed == 9


def test_analyze_report_content(tmp_path, bm_model):
    out = tmp_path / "report.json"
    assert main(["analyze", "--model", bm_model, "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["legitimate"] is True
    assert doc["h"] == [0.5]
    assert doc["q"] == pytest.approx(2.0)  # sum of 1/h over axes
    assert doc["ms_differentiable"] is False
    assert doc["axes"][0]["differentiable"] is False
    assert doc["provenance"]["model"]["kind"] == "fbm"


def test_dims_report_content(tmp_path, bm_model):
    out = tmp_path / "dims.json"
    assert main(["dims", "--model", bm_model, "--p", "1",
                 "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["range_dim"] == 1.0
    assert doc["graph_dim"] == 1.5
    assert doc["level_dim"] == 0.5
    assert doc["method"] == "generic"
    assert "positive probability" in doc["level_qualifier"]


def test_variogram_matches_library(tmp_path, bm_model):
    lags_path = tmp_path / "lags.csv"
    write_csv(lags_path, ["h_1"], [[0.5], [1.0], [2.0]])
    out = tmp_path / "vario.csv"
    assert main(["variogram", "--model", bm_model, "--lags", str(lags_path),
                 "--out", str(out)]) == 0
    table = read_csv(out, min_columns=3)
    direct = variogram_table(fbm(0.5, 1), [[0.5], [1.0], [2.0]],
                             QuadratureSpec())
    assert np.allclose(table[:, 1], direct.values, rtol=1e-9)


def test_krige_interpolation_and_extrapolation(tmp_path, bm_model):
    obs_path = tmp_path / "obs.csv"
    write_csv(obs_path, ["t_1", "value"], [[1.0, 0.7]])
    targets_path = tmp_path / "targets.csv"
    write_csv(targets_path, ["t_1"], [[1.0], [2.0], [0.5]])
    out = tmp_path / "pred.csv"
    assert main(["krige", "--model", bm_model, "--obs", str(obs_path),
                 "--targets", str(targets_path), "--out", str(out)]
                + TIGHT_FLAGS) == 0
    rows = read_csv(out, min_columns=3)
    assert rows[0, 1] == pytest.approx(0.7, abs=1e-8)
    assert rows[0, 2] == pytest.approx(0.0, abs=1e-8)
    assert rows[1, 1] == pytest.approx(0.7, abs=1e-6)
    assert rows[1, 2] == pytest.approx(1.0, abs=1e-4)
    assert rows[2, 1] == pytest.approx(0.35, abs=1e-6)
    assert rows[2, 2] == pytest.approx(0.25, abs=1e-4)
    obs = Observations(sites=[[1.0]], values=[0.7],
                       model=model_from_dict(read_json(bm_model)))
    quad = QuadratureSpec(rel_tol=0.01)
    for row in rows:
        result = krige(obs, row[:1], quad)
        assert row[1] == float(format_float(result.prediction))
        assert row[2] == float(format_float(result.variance))


def test_verify_suite_exits_zero(capsys):
    assert main(["verify", "--suite", "dims"]) == 0
    out = capsys.readouterr().out
    assert "dims" in out and "overall: PASS" in out


def test_exit_code_1_for_illegitimate_model(tmp_path, bad_model, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "--model", bad_model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "illegitimate" in err
    assert not out.exists()


def test_exit_code_1_for_oversized_lattice(tmp_path, bm_model, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--model", bm_model, "--grid", "0:1:8",
                 "--lattice", str(10**12), "--out", str(out)]) == 1
    assert "memory cap" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_1_for_oversized_output(tmp_path, bm_model, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--model", bm_model, "--grid", "0:1:8",
                 "--realizations", "100000000000", "--out", str(out)]) == 1
    assert "memory cap" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_1_for_bad_grid(bm_model, tmp_path, capsys):
    assert main(["simulate", "--model", bm_model, "--grid", "0:1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "start:stop:count" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("seed", "x"), ("panels", "abc"),
                                        ("seed", 1.5), ("seed", True),
                                        ("lattice", 64.9)])
def test_exit_code_1_for_mistyped_config_value(tmp_path, bm_model, capsys,
                                                key, value):
    config = tmp_path / "config.json"
    write_json(config, {"lattice": 64, key: value})
    assert main(["simulate", "--model", bm_model, "--config", str(config),
                 "--grid", "0:1:8", "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and repr(key) in err


def test_config_value_outside_choices_exits_1(tmp_path, bm_model, capsys):
    base = ["simulate", "--model", bm_model, "--grid", "0:1:8",
            "--lattice", "64", "--out", str(tmp_path / "x.csv")]
    assert main(base + ["--format", "xyz"]) == 1
    config = tmp_path / "config.json"
    for value in ("xyz", 5):
        write_json(config, {"format": value})
        assert main(base + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'format'" in err
        assert not (tmp_path / "x.csv").exists()
    write_json(config, {"format": "afld"})
    assert main(base + ["--config", str(config)]) == 0
    assert read_field_afld(tmp_path / "x.csv").seed == 0


def test_quadrature_settings_only_where_a_quadrature_runs(tmp_path, bm_model,
                                                        capsys):
    field, dims = tmp_path / "f.csv", tmp_path / "d.json"
    assert main(["simulate", "--model", bm_model, "--grid", "0:1:8",
                 "--lattice", "64", "--out", str(field)]) == 0
    first = field.read_text().splitlines()[0]
    assert "quadrature" not in json.loads(first[len("# provenance: "):])
    assert main(["dims", "--model", bm_model, "--out", str(dims)]) == 0
    assert "quadrature" not in read_json(dims)["provenance"]

    lags, vario = tmp_path / "lags.csv", tmp_path / "v.csv"
    write_csv(lags, ["h_1"], [[1.0]])
    assert main(["variogram", "--model", bm_model, "--lags", str(lags),
                 "--rel-tol", "0.01", "--out", str(vario)]) == 0
    first = vario.read_text().splitlines()[0]
    quad = json.loads(first[len("# provenance: "):])["quadrature"]
    assert quad == {"rel_tol": 0.01}

    # a config key is a flag name, so one simulate does not take is refused
    config = tmp_path / "config.json"
    write_json(config, {"rel_tol": 0.01})
    assert main(["simulate", "--model", bm_model, "--config", str(config),
                 "--grid", "0:1:8", "--out", str(field)]) == 1
    assert "'rel_tol'" in capsys.readouterr().err
    write_json(config, {"rel_tol": "abc"})
    assert main(["variogram", "--model", bm_model, "--config", str(config),
                 "--lags", str(lags), "--out", str(vario)]) == 1
    assert "'rel_tol'" in capsys.readouterr().err


_USAGE_ERRORS = ([["simulate", "--lattice", "abc"], ["analyze", "--bogus"],
                  ["bogus"]]
                 + [[cmd, flag, "64"] for cmd in ("simulate", "dims")
                    for flag in ("--truncation", "--panels", "--rel-tol")]
                 + [[cmd, flag, "64"] for cmd in ("analyze", "variogram", "krige")
                    for flag in ("--truncation", "--panels")]
                 + [[cmd, "--tail-order", "2"]
                    for cmd in ("analyze", "variogram", "krige")])


@pytest.mark.parametrize("argv", _USAGE_ERRORS,
                         ids=["_".join(a).replace("-", "") for a in _USAGE_ERRORS])
def test_exit_code_1_for_usage_error(tmp_path, bm_model, capsys, argv):
    out = tmp_path / "out.json"
    assert main(argv + ["--model", bm_model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["simulate", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "anisofield" in capsys.readouterr().out


@pytest.mark.parametrize("doc, field", [
    ({"kind": "fbm", "dims": 1, "hurst": "0.5"}, "hurst"),
    ({"kind": "canonical_c", "dims": 1, "beta": [2.0], "gamma": "x"}, "gamma"),
    ({"kind": "canonical_c", "dims": 1, "beta": 5, "gamma": 2.0}, "beta"),
    ({"kind": "stein", "dims": 1, "c": ["a"], "a": [1.0], "alpha": [1.0],
      "nu": 2.0}, "c"),
    ({"kind": "fbm", "dims": 1, "hurst": 0.5, "fbm_const": "x"}, "fbm_const"),
    ({"kind": "gneiting", "d": 2, "alpha": "x"}, "alpha"),
    ({"kind": "fbm", "dims": True, "hurst": 0.5}, "dims"),
    ({"kind": "gneiting", "d": True}, "d"),
], ids=["fbm-hurst", "canonical-gamma", "canonical-beta", "stein-c",
        "fbm-fbm_const", "gneiting-alpha", "fbm-dims-bool", "gneiting-d-bool"])
def test_exit_code_1_for_mistyped_model_field(tmp_path, capsys, doc, field):
    path, out = tmp_path / "model.json", tmp_path / "dims.json"
    write_json(path, doc)
    flag = "--gneiting" if doc["kind"] == "gneiting" else "--model"
    assert main(["dims", flag, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and repr(field) in err
    assert not out.exists()


def test_exit_code_1_for_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 1
    assert "unknown verify suite" in capsys.readouterr().err


# The CSV keeps 10 significant digits: half a unit in the last of them.
CSV_ROUNDING = 5e-10


def test_exit_code_2_for_quadrature_failure(tmp_path, bm_model, capsys):
    # near-zero lag with a tight tolerance cannot be certified (err 2.1e-11)
    model = tmp_path / "matern.json"
    write_json(model, model_to_dict(canonical_c((2.0,), 1.0)))
    lags_path = tmp_path / "lags.csv"
    write_csv(lags_path, ["h_1"], [[1e-4]])
    out = tmp_path / "v.csv"
    args = ["--lags", str(lags_path), "--rel-tol", "1e-12", "--out", str(out)]
    assert main(["variogram", "--model", str(model)] + args) == 2
    assert "error:" in capsys.readouterr().err
    # Brownian motion's closed form meets that tolerance: v = |h|
    assert main(["variogram", "--model", bm_model] + args) == 0
    _, value, err = read_csv(out, min_columns=3)[0]
    assert abs(value - 1e-4) <= err + CSV_ROUNDING * 1e-4


def test_exit_code_2_for_a_lag_out_of_float_range(tmp_path, capsys):
    # the time scale |h|^2 of a 1e-200 lag underflows
    model, fbm_model = tmp_path / "plane.json", tmp_path / "fbm2.json"
    write_json(model, model_to_dict(canonical_c((1.0, 2.0), 4.0)))
    write_json(fbm_model, model_to_dict(fbm(0.4, 2)))
    lags_path = tmp_path / "lags.csv"
    write_csv(lags_path, ["h_1", "h_2"], [[0.5, 0.5], [1e-200, 1e-200]])
    out = tmp_path / "v.csv"
    args = ["--lags", str(lags_path), "--out", str(out)]
    assert main(["variogram", "--model", str(model)] + args) == 2
    assert "[1e-200, 1e-200]" in capsys.readouterr().err
    # fbm's closed form has no time scale: |h|^0.8 = 2^0.4 1e-160
    assert main(["variogram", "--model", str(fbm_model)] + args) == 0
    _, _, value, err = read_csv(out, min_columns=4)[1]
    assert abs(value - 2.0**0.4 * 1e-160) <= err + CSV_ROUNDING * 2.0**0.4 * 1e-160
    # a beta = 0.05 axis whose numeric lambda bound overflows
    write_json(model, model_to_dict(canonical_c((0.05, 3.0), 21.3)))
    write_csv(lags_path, ["h_1", "h_2"], [[0.0, 1e-8]])
    assert main(["variogram", "--model", str(model)] + args) == 2
    assert "[0.0, 1e-08]" in capsys.readouterr().err


@pytest.mark.parametrize("model, lag", [
    (canonical_c((1.5, 0.8), 4.0), [0.6, 1e-60]),
    (canonical_c((0.7, 1.3), 5.0), [1e-30, 0.6]),
])
def test_a_beta_below_one_lag_next_to_a_tiny_component_is_written(tmp_path, model, lag):
    # these lags once came out 0 with a huge err, and then were refused;
    # each is certified within its err of the tiny component's 0
    model_path = tmp_path / "model.json"
    write_json(model_path, model_to_dict(model))
    lags_path = tmp_path / "lags.csv"
    write_csv(lags_path, ["h_1", "h_2"], [lag, [x if x > 0.1 else 0.0 for x in lag]])
    out = tmp_path / "v.csv"
    assert main(["variogram", "--model", str(model_path), "--lags", str(lags_path),
                 "--out", str(out)]) == 0
    (_, _, value, err), (_, _, ref, _) = read_csv(out, min_columns=4)
    assert abs(value - ref) <= err + CSV_ROUNDING * (value + ref)


def test_exit_code_3_for_missing_file(tmp_path, capsys):
    assert main(["analyze", "--model", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_exit_code_3_for_non_finite_rows(tmp_path, capsys, cell):
    model = tmp_path / "plane.json"
    write_json(model, model_to_dict(canonical_c(beta=(1.0, 2.0), gamma=4.0)))
    rows = tmp_path / "rows.csv"
    rows.write_text(f"t_1,t_2\n{cell},0.5\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("t_1,t_2,value\n0.5,0.5,0.1\n")
    vario, pred = tmp_path / "v.csv", tmp_path / "p.csv"
    assert main(["variogram", "--model", str(model), "--lags", str(rows),
                 "--out", str(vario)]) == 3
    assert main(["krige", "--model", str(model), "--obs", str(obs),
                 "--targets", str(rows), "--out", str(pred)]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and err.count("rows.csv") == 2
    assert not vario.exists() and not pred.exists()


@pytest.mark.parametrize("raw", [b"h_\xe9\n0.5\n", b"h_1\n0.5x\n1\n"],
                         ids=["not-utf8", "second-header"])
def test_exit_code_3_for_a_malformed_lags_file(tmp_path, bm_model, capsys, raw):
    lags = tmp_path / "lags.csv"
    lags.write_bytes(raw)
    out = tmp_path / "v.csv"
    assert main(["variogram", "--model", bm_model, "--lags", str(lags),
                 "--out", str(out)]) == 3
    assert "lags.csv" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_for_junk_observations(tmp_path, bm_model, capsys):
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("t_1,value\nfoo,bar\n")
    assert main(["krige", "--model", bm_model, "--obs", str(obs_path),
                 "--targets", str(obs_path),
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert "error:" in capsys.readouterr().err


def _after_cli_import(expression):
    """``expression`` evaluated in a fresh interpreter that imported the CLI."""
    src = str(Path(anisofield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, anisofield.cli as cli; print(repr({expression}))"
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the command line must not pay its import
    assert _after_cli_import("'scipy' in sys.modules") == "False"


def test_cli_import_does_no_per_call_work(tmp_path, bm_model):
    # the Gauss rules are a table, and parsers and rules are built on first use
    assert _after_cli_import("'numpy.polynomial' in sys.modules") == "False"
    assert _after_cli_import("(cli._parser.cache_info().currsize, "
                             "sys.modules['anisofield.quadrature']._gauss"
                             ".cache_info().currsize)") == "(0, 0)"
    assert _after_cli_import("'argparse' in sys.modules") == "False"
    # a valid call is read from the option tables: argparse, and the
    # locale module its messages pull in, stay unloaded
    argv = ["dims", "--model", bm_model, "--out", str(tmp_path / "d.json")]
    last = _after_cli_import(f"(cli.main({argv!r}), 'argparse' in sys.modules, "
                             "'locale' in sys.modules, "
                             "cli._parser.cache_info().currsize)")
    assert last.splitlines()[-1] == "(0, False, False, 0)"


_READER_ARGVS = [
    # the benchmark's argv shapes
    (["variogram", "--model", "m.json", "--lags", "l.csv", "--out", "v.csv"], True),
    (["krige", "--model", "m.json", "--obs", "o.csv", "--targets", "t.csv",
      "--out", "k.csv"], True),
    (["simulate", "--config", "c.json", "--model", "m.json", "--out", "f.csv"], True),
    (["simulate", "--model", "m.json", "--grid", "0:1:8,0:1:8", "--lattice", "64",
      "--seed", "3", "--realizations", "2", "--format", "afld", "--out", "f"], True),
    (["analyze", "--model", "m.json", "--rel-tol", "0.01", "--out", "a.json"], True),
    (["dims", "--gneiting", "g.json", "--p", "2", "--out", "d.json"], True),
    (["verify", "--suite", "dims"], True),
    (["krige"], True),
    # what argparse reads in its own way
    (["dims", "--p", "2", "--p", "1", "--out", "d.json"], True),
    (["simulate", "--seed", "-3"], False),
    (["simulate", "--out", ""], True),
    (["simulate", "--lat", "64"], False),
    (["simulate", "--out=x"], False),
    (["simulate", "--", "--out", "x"], False),
    (["simulate", "-h"], False),
    (["-h"], False),
    (["--version"], False),
    ([], False),
    (["simulate", "--model", "m.json", "--out"], False),
    # usage errors
    (["simulate", "--lattice", "abc"], False),
    (["simulate", "--format", "xyz"], False),
    (["dims", "--model", "m.json", "--gneiting", "g.json"], False),
    (["dims", "--model", "m.json", "extra"], False),
    (["dims", "extra", "--model", "m.json"], False),
    (["bogus", "--model", "m.json"], False),
    (["krige", "--p", "1"], False),
]


@pytest.mark.parametrize("argv, read", _READER_ARGVS,
                         ids=[" ".join(a) or "empty" for a, _ in _READER_ARGVS])
def test_reader_agrees_with_argparse(capsys, argv, read):
    # the reader gives argparse's Namespace or leaves the argv to argparse
    command = argv[0] if argv and argv[0] in cli._COMMANDS else None
    try:
        parsed = vars(cli._parser(command).parse_args(argv))
    except (ModelError, SystemExit):
        parsed = None
    fast = cli._read(argv)
    assert (fast is not None) == read
    if fast is not None:
        assert vars(fast) == parsed
        assert list(fast._options) == list(parsed["_options"])
    capsys.readouterr()


_FLAGS = {
    "analyze": ["--config", "--model", "--rel-tol", "--out"],
    "variogram": ["--config", "--model", "--rel-tol", "--lags", "--out"],
    "simulate": ["--config", "--model", "--grid", "--lattice", "--seed",
                 "--realizations", "--format", "--out"],
    "krige": ["--config", "--model", "--rel-tol", "--obs", "--targets", "--out"],
    "dims": ["--config", "--model", "--gneiting", "--p", "--out"],
    "verify": ["--config", "--suite"],
}


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(_FLAGS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_subcommand_help_names_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: anisofield {command} ")
    assert all(flag in out for flag in _FLAGS[command])


@pytest.mark.parametrize("argv", [["bogus"], ["krige", "--bogus"]])
def test_usage_line_names_every_subcommand(capsys, argv):
    # an unknown first word parses against them all, and a known one
    # against its own parser, yet both usage lines name all six
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: anisofield ")
    assert "{" + ",".join(_FLAGS) + "}" in err
