import builtins
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypersusy import cli, errors
from hypersusy.cli import main


def test_families_listing(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for kind in ("const", "linear", "one_minus_s2", "s2_minus_one", "s2", "s2_plus_one"):
        assert kind in out
    assert "Coulomb potential" in out
    assert "pure-power weights" in out


def test_families_json(capsys):
    assert main(["families", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["families"]) == 6
    assert len(blob["weight_powers"]) == 5
    assert len(blob["catalog"]) == 10


def test_families_catalog_entry(capsys):
    assert main(["families", "--catalog", "7", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["name"] == "Coulomb potential"
    assert blob["kind"] == "linear"
    assert blob["tau"] == "beta"
    assert blob["k"] == "beta - 1"


def test_families_catalog_entry_text(capsys):
    assert main(["families", "--catalog", "7"]) == 0
    out = capsys.readouterr().out
    assert "Coulomb potential" in out and "beta - 1" in out


@pytest.mark.parametrize("entry_id", ["0", "11"])
def test_families_catalog_entry_out_of_range_exits_2(capsys, entry_id):
    # entry 0 read as "no entry" and printed the whole listing with exit 0
    assert main(["families", "--catalog", entry_id]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: entry must be an integer in 1..10")


def test_derive_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    meta = tmp_path / "meta.json"
    svg = tmp_path / "plot.svg"
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--m", "0", "--gamma", "2", "--levels", "1,2",
        "--x-min", "-6", "--x-max", "6", "--n", "1201",
        "--out", str(out), "--meta", str(meta), "--svg", str(svg),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,s,V_upper,V_partner,W,psi_1,psi_2"
    assert len(lines) == 1202
    mid = dict(zip(lines[0].split(","), lines[601].split(",")))
    assert abs(float(mid["x"])) < 1e-12
    assert abs(float(mid["W"]) - 0.5) < 1e-12
    blob = json.loads(meta.read_text())
    assert blob["lambda_targets"] == [2.0, 4.0]
    assert abs(blob["gamma_rays"]["right_start"] - 0.8862269254527579) < 1e-9
    assert svg.read_text().startswith("<svg")


def test_derive_json_format(tmp_path):
    out = tmp_path / "grid.json"
    code = main([
        "derive", "--kind", "linear", "--alpha", "-1", "--beta", "1",
        "--gamma", "inf", "--x-min", "0.1", "--x-max", "8", "--n", "51",
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {"x", "s", "V_upper", "V_partner", "W"}


def test_derive_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "kind": "const", "alpha": -2, "beta": 0, "m": 0, "gamma": "inf",
        "grid": {"x_min": -5, "x_max": 5, "n": 11},
        "out": str(tmp_path / "a.csv"),
    }))
    out = tmp_path / "b.csv"
    assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_derive_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "kind": "const", "alpha": -2, "beta": 0, "levls": [1, 2], "gamm": 2,
        "grid": {"x_min": -5, "x_max": 5, "n": 11},
        "out": str(tmp_path / "a.csv"),
    }))
    assert main(["derive", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'gamm'" in err and "'levls'" in err
    assert list(tmp_path.iterdir()) == [cfg]


def _config_job(tmp_path, **settings):
    cfg = tmp_path / "job.json"
    job = {"kind": "const", "alpha": -2, "beta": 0, "grid": {"x_min": -1, "x_max": 1, "n": 5},
           "out": str(tmp_path / "a.csv"), "meta": str(tmp_path / "m.json")}
    job.update(settings)
    cfg.write_text(json.dumps(job))
    return cfg


@pytest.mark.parametrize("name, settings", [
    ("n", {"grid": {"x_min": -1, "x_max": 1, "n": 5.7}}),
    ("levels", {"levels": [1.5]}),
    ("n", {"grid": {"x_min": -1, "x_max": 1, "n": True}}),
    ("levels", {"levels": [True]}),
    ("levels", {"levels": "1:2.5"}),
    ("levels", {"levels": "1:2:3"}),
    ("m", {"m": 0.5}),
])
def test_derive_config_rejects_non_integral_settings(name, settings, tmp_path, capsys):
    cfg = _config_job(tmp_path, **settings)
    assert main(["derive", "--config", str(cfg)]) == 2
    assert f"setting '{name}' must be an integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("name, settings", [
    ("out", {"out": 1}),
    ("meta", {"meta": True}),
    ("svg", {"svg": ["x.svg"]}),
    ("format", {"format": "xml"}),
    ("kind", {"kind": ["const"]}),
    ("kind", {"kind": "cubic"}),
    ("alpha", {"alpha": [1]}),
    ("beta", {"beta": True}),
    ("delta", {"delta": "one"}),
    ("gamma", {"gamma": None}),
    ("x_min", {"grid": {"x_min": "abc", "x_max": 1, "n": 5}}),
    ("x_max", {"grid": {"x_min": -1, "x_max": [1], "n": 5}}),
])
def test_derive_config_rejects_ill_typed_settings(name, settings, tmp_path, capsys):
    # each value is read as its flag would be: no file descriptor, no silent CSV
    cfg = _config_job(tmp_path, **settings)
    assert main(["derive", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"setting '{name}' must be" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [cfg]


def test_derive_config_reads_number_strings(tmp_path):
    cfg = _config_job(tmp_path, alpha="-2", gamma="inf", format="json",
                      grid={"x_min": "-1", "x_max": 1, "n": 5})
    assert main(["derive", "--config", str(cfg)]) == 0
    meta = json.loads((tmp_path / "m.json").read_text())
    assert meta["deformation"]["family"]["alpha"] == -2 and meta["grid"]["x_min"] == -1.0
    assert meta["deformation"]["gamma"] == "inf"
    json.loads((tmp_path / "a.csv").read_text())


def test_derive_rejects_a_non_integral_level_flag(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["derive", "--kind", "const", "--alpha", "-2", "--beta", "0", "--levels", "1,1.5",
                 "--x-min", "-1", "--x-max", "1", "--out", str(out)])
    assert code == 2
    assert "setting 'levels' must be an integer, got '1.5'" in capsys.readouterr().err
    assert not out.exists()


def test_derive_config_accepts_whole_numbers(tmp_path):
    cfg = _config_job(tmp_path, m=1.0, levels=[2, 3.0], grid={"x_min": -1, "x_max": 1, "n": 5.0})
    assert main(["derive", "--config", str(cfg)]) == 0
    rows = (tmp_path / "a.csv").read_text().splitlines()
    assert len(rows) == 6 and "psi_2" in rows[0] and "psi_3" in rows[0]
    assert json.loads((tmp_path / "m.json").read_text())["levels"] == [2, 3]


@pytest.mark.parametrize("levels", ["3:1", "1,1", "1,2,1"])
def test_derive_rejects_reversed_or_repeated_levels(levels, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["derive", "--kind", "const", "--alpha", "-2", "--beta", "0", "--levels", levels,
                 "--x-min", "-1", "--x-max", "1", "--out", str(out), "--meta", str(tmp_path / "m")])
    assert code == 2
    assert "setting 'levels'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("levels", ["3:1", "2,2", [1, 1], [2, 1, 2.0]])
def test_derive_config_rejects_reversed_or_repeated_levels(levels, tmp_path, capsys):
    cfg = _config_job(tmp_path, levels=levels)
    assert main(["derive", "--config", str(cfg)]) == 2
    assert "setting 'levels'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


_JOB = {"kind": "s2_plus_one", "alpha": "-6", "beta": "0", "x_min": "-1", "x_max": "1",
        "out": "a.csv"}


@pytest.mark.parametrize("name, value, code", [
    ("n", "1e3", 0), ("m", "1.0", 0), ("m", "1.5", 2),
    ("kind", "const", 0), ("alpha", "-5", 0), ("alpha", "two", 2), ("beta", "0.5", 0),
    ("gamma", "1e3", 0), ("gamma", "-1e3", 0), ("gamma", "0", 3), ("delta", "1", 0),
    ("levels", "1:2", 0), ("levels", "2,1", 0), ("levels", "1,1", 2), ("levels", None, 2),
    ("x_min", "-0.5", 0), ("x_max", "0.5", 0), ("format", "json", 0),
    ("out", "b.csv", 0), ("svg", "b.svg", 0), ("meta", "b.json", 0), ("delta", None, 2),
])
def test_derive_flag_and_config_read_a_setting_alike(name, value, code, tmp_path, capsys,
                                                     monkeypatch):
    # each setting under both of its spellings, written out here: the flag
    # --x-min and the config key x_min; a job that read neither would write
    # what the job without the setting writes.  A config's null (None here),
    # which no flag spells, is refused and names the setting, while a config
    # without the key keeps the default.
    def derive(run, settings, config=None):
        run.mkdir()
        monkeypatch.chdir(run)
        argv = [tok for key, val in settings.items() for tok in ("--" + key.replace("_", "-"), val)]
        if config is not None:
            (tmp_path / "job.json").write_text(json.dumps(config))
            argv = ["--config", str(tmp_path / "job.json"), *argv]
        rc = main(["derive", *argv])
        files = {p.name: p.read_text() for p in run.iterdir()}
        return rc, capsys.readouterr(), files

    rest = {key: val for key, val in _JOB.items() if key != name}
    if value is None:
        rc, captured, files = derive(tmp_path / "config", rest, {name: value})
        assert (rc, files) == (code, {}) and f"setting '{name}'" in captured.err
        assert derive(tmp_path / "absent", rest, {}) == derive(tmp_path / "default", _JOB)
        return
    by_flag = derive(tmp_path / "flag", {**rest, name: value})
    assert by_flag == derive(tmp_path / "config", rest, {name: value})
    assert by_flag[0] == code
    if code == 0:
        assert by_flag[2] != derive(tmp_path / "default", _JOB)[2]
    if name == "n" and code == 0:
        assert len(by_flag[2]["a.csv"].splitlines()) == 1001


def test_derive_non_finite_delta_exit_2_writes_nothing(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["derive", "--kind", "linear", "--alpha", "0", "--beta", "2", "--x-min", "0.1",
                 "--x-max", "5", "--delta", "nan", "--out", str(out)])
    assert code == 2
    assert "delta" in capsys.readouterr().err
    assert not out.exists()


_BIG = "1" + "0" * 400  # a 401-digit integer: its float overflows


@pytest.mark.parametrize("params", [
    ["--alpha", _BIG, "--beta", "2"],
    ["--alpha", "0", "--beta", _BIG],
    ["--alpha", "0", "--beta", "2", "--delta", _BIG],
    ["--alpha", "0.0", "--beta", "2.0", "--delta", _BIG],
    ["--alpha", "0", "--beta", "2", "--delta", "1e308"],  # c is finite, c*c is not
], ids=["alpha", "beta", "delta", "float-family-delta", "delta-1e308"])
def test_derive_number_too_large_for_a_float_exit_2_writes_nothing(params, tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["derive", "--kind", "linear", *params, "--x-min", "0.1", "--x-max", "5",
                 "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, column", [
    (["--alpha=-1e-300", "--beta", "1e300", "--levels", "3"], "V_upper"),
    (["--alpha=-1e-300", "--beta", "0", "--levels", "5"], "psi_5"),
], ids=["huge-beta", "tiny-alpha"])
def test_derive_coefficient_beyond_float_range_exit_4_writes_nothing(params, column, tmp_path,
                                                                      capsys):
    # lambda_l - lambda_j ~ 1e-300 is exact and nonzero; the level polynomial's
    # coefficients outgrow float range, and the grid check names the column
    out = tmp_path / "g.csv"
    code = main(["derive", "--kind", "const", *params, "--m", "0", "--gamma", "inf",
                 "--x-min=-1", "--x-max", "1", "--n", "11", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("error: ") and "non-finite at x=" in err
    assert column in err.split(" non-finite")[0]
    assert not out.exists()


def test_float_parameters_print_as_given(tmp_path, capsys):
    # messages and --meta keep the user's floats, not their binary rationals
    base = ["derive", "--kind", "s2_plus_one", "--alpha=-4.1", "--beta", "0.7", "--m", "0",
            "--x-min=-1", "--x-max", "1", "--n", "11", "--out", str(tmp_path / "g.csv")]
    assert main([*base, "--levels", "3"]) == 2
    assert capsys.readouterr().err == "error: level 3 is not below the cutoff 2.55\n"
    assert main([*base, "--levels", "2", "--meta", str(tmp_path / "m.json")]) == 0
    meta = json.loads((tmp_path / "m.json").read_text())
    assert meta["deformation"]["family"] == {"kind": "s2_plus_one", "alpha": -4.1, "beta": 0.7}
    assert meta["lambda_targets"] == [4.1, 6.199999999999999]
    assert main(["derive", "--kind", "linear", "--alpha", "0", "--beta", "0.5", "--delta", "1",
                 "--x-min", "1", "--x-max", "2", "--out", str(tmp_path / "h.csv")]) == 2
    assert capsys.readouterr().err == "error: 2m + 2k + 1 = 0 for m=0, k=-0.5\n"


@pytest.mark.parametrize("text", ["[1, 2]", '{"kind": "const", "grid": 5}'])
def test_derive_config_must_be_an_object(text, tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(text)
    assert main(["derive", "--config", str(cfg)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_derive_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["derive", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nope.json" in err


def test_derive_missing_output_directory_exit_2(tmp_path, capsys):
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--x-min", "-4", "--x-max", "4", "--n", "11",
        "--out", str(tmp_path / "missing" / "x.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing" in err


_SMALL_DERIVE = ["derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
                 "--x-min", "-4", "--x-max", "4", "--n", "11"]


# the grid's own path is fine: a later output's missing directory is found
# before the grid is written
@pytest.mark.parametrize("flags", [
    ["--out", "g.json", "--format", "json", "--svg", "nodir/a.svg"],
    ["--out", "g.csv", "--meta", "nodir/m.json"],
    ["--out", "g.csv", "--svg", "a.svg", "--meta", "."],
], ids=["svg", "meta", "meta-is-a-directory"])
def test_derive_unwritable_output_exit_2_writes_nothing(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_SMALL_DERIVE + flags) == 2
    name = flags[-2].lstrip("-")
    assert f"setting '{name}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--out", "f.csv", "--svg", "f.csv"],
    ["--out", "f.json", "--format", "json", "--meta", "sub/../f.json"],
    ["--out", "g.csv", "--svg", "sub/p.svg", "--meta", "sub/p.svg"],
])
def test_derive_two_outputs_on_one_file_exit_2_writes_nothing(flags, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(_SMALL_DERIVE + flags) == 2
    assert "name the same file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


def test_derive_config_with_two_outputs_on_one_file_exit_2(tmp_path, capsys):
    cfg = _config_job(tmp_path, svg=str(tmp_path / "m.json"))
    assert main(["derive", "--config", str(cfg)]) == 2
    assert "settings 'svg' and 'meta' name the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_derive_non_finite_psi_exit_4_writes_nothing(tmp_path, capsys, monkeypatch):
    from hypersusy import schrodinger

    def psi_with_nan(fam, l, m, x):
        return np.where(np.arange(len(x)) == 5, np.nan, 0.0)

    monkeypatch.setattr(schrodinger, "wavefunction_grid", psi_with_nan)
    code = main(_SMALL_DERIVE + ["--levels", "1,2", "--format", "json",
                                 "--out", str(tmp_path / "g.json"),
                                 "--svg", str(tmp_path / "a.svg"),
                                 "--meta", str(tmp_path / "m.json")])
    assert code == 4
    assert "psi_1, psi_2 non-finite at x=0.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_FAMILIES_OUTPUT = json.loads(
    (Path(__file__).parent / "data" / "families_output.json").read_text()
)


@pytest.mark.parametrize("command", sorted(_FAMILIES_OUTPUT))
def test_families_output_is_pinned(command, capsys):
    # the listings are an interface: kinds, weight powers and the catalog's
    # tau texts must print byte for byte as recorded
    assert main(command.split()) == 0
    assert capsys.readouterr().out == _FAMILIES_OUTPUT[command]


def test_derive_inadmissible_gamma_exit_3(tmp_path, capsys):
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--gamma", "0", "--x-min", "-6", "--x-max", "6",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "0.8862" in err and "-0.8862" in err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("gamma", (["--gamma", "-inf"], ["--gamma=-inf"]))
def test_derive_minus_inf_gamma_exit_3_writes_nothing(tmp_path, capsys, gamma):
    out, meta = tmp_path / "x.csv", tmp_path / "meta.json"
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--x-min", "-6", "--x-max", "6", "--n", "51",
        "--out", str(out), "--meta", str(meta),
    ] + gamma)
    assert code == 3
    assert "gamma=inf" in capsys.readouterr().err
    assert not out.exists() and not meta.exists()


@pytest.mark.parametrize("kind,alpha,beta,gamma", (
    ("const", "-2", "0", "-2.5"),
    ("linear", "0", "2", "0.75"),  # one-sided rays: left_end is -inf
))
def test_derive_meta_is_strict_json(tmp_path, kind, alpha, beta, gamma):
    meta = tmp_path / "meta.json"
    code = main([
        "derive", f"--kind={kind}", f"--alpha={alpha}", f"--beta={beta}", f"--gamma={gamma}",
        "--x-min", "0.5", "--x-max", "3", "--n", "51",
        "--out", str(tmp_path / "x.csv"), "--meta", str(meta),
    ])
    assert code == 0
    blob = _strict_json(meta.read_text())
    assert blob["deformation"]["gamma"] == float(gamma)


def test_derive_meta_targets_do_not_depend_on_level_order(tmp_path):
    metas = []
    for levels in ("3,1", "1,3"):
        meta = tmp_path / f"meta-{levels}.json"
        code = main([
            "derive", "--kind", "const", "--alpha", "-2", "--beta", "0", "--levels", levels,
            "--x-min", "-4", "--x-max", "4", "--n", "41",
            "--out", str(tmp_path / "x.csv"), "--meta", str(meta),
        ])
        assert code == 0
        metas.append(json.loads(meta.read_text()))
    # "levels" echoes the request as given
    assert [m.pop("levels") for m in metas] == [[3, 1], [1, 3]]
    assert metas[0] == metas[1]
    assert metas[0]["lambda_targets"] == [2.0, 4.0, 6.0]


# every series is non-finite at these x: s(x) = x overflows tau = -2 s
def test_derive_with_no_finite_value_exits_4_and_writes_nothing(tmp_path, capsys):
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--x-min", "1e308", "--x-max", "1.7e308", "--n", "3",
        "--svg", str(tmp_path / "a.svg"), "--meta", str(tmp_path / "a.json"),
        "--out", str(tmp_path / "a.csv"),
    ])
    assert code == 4
    assert "non-finite at x=1e+308" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# s = e^x: sigma = s^2 passes 1e154 (its square overflows) from x = 177 and
# overflows itself from x = 355
_FAR_FIELD_DERIVE = ["derive", "--kind", "s2", "--alpha", "-3.1", "--beta", "2.2",
                     "--x-min", "100", "--n", "4"]


def test_derive_far_field_potentials_stay_right(tmp_path):
    out = tmp_path / "far.csv"
    assert main(_FAR_FIELD_DERIVE + ["--x-max", "250", "--out", str(out)]) == 0
    head, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        cells = dict(zip(head, map(float, row)))
        # (2m + alpha - 1)^2/4 plus terms in e^-x below 1e-40
        assert abs(cells["V_upper"] - 4.2025) <= 1e-12
        assert abs(cells["V_partner"] - 4.2025) <= 1e-12


def test_derive_exits_4_where_sigma_overflows(tmp_path, capsys):
    assert main(_FAR_FIELD_DERIVE + ["--x-max", "400", "--out", str(tmp_path / "far.csv")]) == 4
    assert "non-finite at x=400" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "hypersusy", "families", "--json"],
                          cwd=Path(__file__).parents[1], env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["families"]) == 6


def test_derive_bad_parameters_exit_2(tmp_path, capsys):
    code = main([
        "derive", "--kind", "one_minus_s2", "--alpha", "1", "--beta", "0",
        "--x-min", "0.1", "--x-max", "3", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "alpha < beta < -alpha" in capsys.readouterr().err


def test_derive_missing_required_exit_2(tmp_path, capsys):
    assert main(["derive", "--kind", "const", "--alpha", "-2"]) == 2


@pytest.mark.parametrize("grid", [
    ("1", "1", "3"),      # x_min == x_max: the SVG x-scale would divide by zero
    ("2", "1", "3"),
    ("-1", "1", "0"),     # no grid points: an empty CSV, then an IndexError in the SVG
    ("-1", "1", "1"),
    ("-inf", "1", "3"),
    ("-1", "nan", "3"),
])
def test_derive_degenerate_grid_exit_2_writes_nothing(grid, tmp_path, capsys):
    x_min, x_max, n = grid
    out, svg = tmp_path / "x.csv", tmp_path / "f.svg"
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        f"--x-min={x_min}", f"--x-max={x_max}", "--n", n,
        "--out", str(out), "--svg", str(svg),
    ])
    assert code == 2
    assert "x_min < x_max and n >= 2" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()


def test_derive_two_point_grid_is_accepted(tmp_path):
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--x-min", "-1", "--x-max", "1", "--n", "2",
        "--out", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "f.svg"),
    ])
    assert code == 0
    assert len((tmp_path / "x.csv").read_text().splitlines()) == 3


def test_derive_negative_order_exit_2(tmp_path, capsys):
    # a bad order is a parameter error; exit 3 is reserved for gamma
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0", "--m", "-1",
        "--x-min", "-1", "--x-max", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "order must be a non-negative integer" in capsys.readouterr().err


def test_undeformed_derive_needs_no_gamma_rays(tmp_path):
    # the rays of s2_minus_one(-8, 8.1) at m=0 do not converge (an endpoint
    # exponent next to -1); gamma=inf never reads them
    out, meta = tmp_path / "x.csv", tmp_path / "meta.json"
    argv = [
        "derive", "--kind", "s2_minus_one", "--alpha", "-8", "--beta", "8.1",
        "--gamma", "inf", "--x-min", "0.4", "--x-max", "3", "--n", "50", "--out", str(out),
    ]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 51
    # --meta reports the rays; while they fail, the run exits 4 and writes no file
    fresh = tmp_path / "y.csv"
    code = main(argv[:-1] + [str(fresh), "--meta", str(meta)])
    assert code in (0, 4)
    assert meta.exists() == fresh.exists() == (code == 0)


def test_verify_algebra_suite(capsys):
    assert main(["verify", "--suite", "algebra"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_riccati_json(capsys):
    assert main(["verify", "--suite", "riccati", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is True
    assert blob["max_residual"] <= 1e-9


def test_verify_failure_exit_1(monkeypatch, capsys):
    from hypersusy import verify

    monkeypatch.setitem(verify._SUITES, "riccati", lambda: {"ok": False, "failures": [("x",)]})
    assert main(["verify", "--suite", "riccati"]) == 1


def test_verify_json_with_a_nan_residual_is_strict_json(monkeypatch, capsys):
    from hypersusy import riccati

    def refuse(token):
        raise ValueError(f"bare {token} in JSON")

    monkeypatch.setattr(riccati, "riccati_residual", lambda *a: float("nan"))
    assert main(["verify", "--suite", "riccati", "--json"]) == 1
    blob = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert blob["ok"] is False and blob["max_residual"] == "nan"
    assert {f[-1] for f in blob["failures"]} == {"nan"}


def test_numerical_failure_exit_4(tmp_path, monkeypatch, capsys):
    from hypersusy import schrodinger
    from hypersusy.errors import NoConvergence

    def boom(*args, **kwargs):
        raise NoConvergence("integral did not settle")

    monkeypatch.setattr(schrodinger, "grid_frame", boom)
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--gamma", "inf", "--x-min", "-6", "--x-max", "6",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4


def test_negative_gamma_in_scientific_notation(tmp_path):
    # argparse alone reads '-1e3' as an option and exits 2
    base = [
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--x-min", "-6", "--x-max", "6", "--n", "51", "--out", str(tmp_path / "x.csv"),
    ]
    assert main(base + ["--gamma", "-1e3"]) == 0
    assert main(base + ["--gamma", "-1.2e-05"]) == 3


def test_negative_alpha_in_scientific_notation(tmp_path):
    code = main([
        "derive", "--kind", "const", "--alpha", "-2e0", "--beta", "-1.5e-01",
        "--gamma", "inf", "--x-min", "-6", "--x-max", "6", "--n", "51",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 0


# the documented exit code of every package error
EXIT_CODES = {
    errors.HypersusyError: 1,
    errors.InvalidParameters: 2,
    errors.ParameterViolation: 2,
    errors.BoundaryDecayFailure: 2,
    errors.CutoffExceeded: 2,
    errors.OutOfDomain: 2,
    errors.NoWeightPower: 2,
    errors.DegenerateDenominator: 2,
    errors.IndexViolation: 2,
    errors.RecurrenceBreakdown: 2,
    errors.ContextMismatch: 2,
    errors.InadmissibleGamma: 3,
    errors.QuadratureFailure: 4,
    errors.NoConvergence: 4,
    errors.NonFinite: 4,
    errors.GridTooCoarse: 4,
}


def _error_classes(cls=errors.HypersusyError):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _error_classes(sub)
    return out


def test_every_error_class_has_its_documented_exit_code():
    assert _error_classes() == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        assert cls.exit_code == code, cls.__name__


def test_the_readme_exit_code_table_names_each_error_on_its_own_row():
    # each errors class is named on the row of its exit code and on no other;
    # any other class named there must be a builtin exception (ValueError,
    # OSError), so a row naming a removed or renamed class fails too
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\d) \| (.*) \|$", text, flags=re.M)
    named = {int(code): set(re.findall(r"`([A-Z]\w*)`", cell)) for code, cell in rows}
    assert sorted(named) == [1, 2, 3, 4]
    package = {cls.__name__: cls.exit_code for cls in _error_classes()}
    for code, names in named.items():
        for name in names - set(package):
            assert isinstance(getattr(builtins, name, None), type), f"{name} on row {code}"
            assert issubclass(getattr(builtins, name), Exception), f"{name} on row {code}"
    for name, code in package.items():
        assert [c for c, names in named.items() if name in names] == [code], name


@pytest.mark.parametrize("cls", sorted(EXIT_CODES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_main_returns_the_error_exit_code(cls, tmp_path, monkeypatch, capsys):
    from hypersusy import schrodinger

    def boom(*args, **kwargs):
        raise cls("raised inside derive")

    monkeypatch.setattr(schrodinger, "grid_frame", boom)
    code = main([
        "derive", "--kind", "const", "--alpha", "-2", "--beta", "0",
        "--gamma", "inf", "--x-min", "-6", "--x-max", "6",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_CODES[cls]
    assert "raised inside derive" in capsys.readouterr().err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # the same calls, in the same order, once with the cached parser and once
    # with a parser built afresh for every call
    def run(fresh):
        out = tmp_path / ("fresh" if fresh else "cached")
        out.mkdir()
        derive = ["derive", "--kind", "const", "--alpha", "-2", "--beta", "0", "--levels", "1",
                  "--x-min", "-4", "--x-max", "4", "--n", "41"]
        calls = (
            derive + ["--out", str(out / "grid.csv")],
            ["derive", "--kind", "nope", "--alpha", "-2", "--beta", "0"],
            ["verify", "--suite", "riccati", "--json"],
            ["families", "--json"],
            derive + ["--out", str(out / "grid.json"), "--format", "json"],
        )
        cli.build_parser.cache_clear()
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            cap = capsys.readouterr()
            text = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', cap.out)
            seen.append((code, text.replace(str(out), "OUT"), cap.err))
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return seen, files, cli.build_parser.cache_info().misses

    cached, cached_files, builds = run(fresh=False)
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0]
    assert "invalid choice" in cached[1][2]
    assert builds == 1
    fresh, fresh_files, _ = run(fresh=True)
    assert cached == fresh
    assert cached_files == fresh_files and set(cached_files) == {"grid.csv", "grid.json"}
