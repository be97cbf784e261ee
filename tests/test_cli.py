import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modulon import PeriodicField, load_field, save_field, zero_field
from modulon import cli, experiments
from modulon.cli import (EXIT_BAD_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         _SCHEMA, float_list, main, parse_config, build_model)
from modulon.errors import ConfigError, DomainError
from modulon.evolve import relative_drift


BASE_CFG = """\
[model]
symbol = bbm
[wave]
m = 2
a = 0.05
[numerics]
N = 64
k_count = 32
[output]
dir = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_happy(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE_CFG.format(out=tmp_path)))
    assert cfg.get("numerics", "N") == 64
    assert cfg.get("wave", "m") == 2.0
    model = build_model(cfg)
    assert model.family == "bbm"
    assert model.kappa == 2.0


def test_parse_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "[wave]\nbogus = 1\n"))


def test_parse_config_unknown_section(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "[nonsense]\nx = 1\n"))


def test_parse_config_bad_value(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "[numerics]\nN = елка\n"))


def test_parse_config_out_of_range(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "[wave]\na = 0.5\n"))


@pytest.mark.parametrize("command, text", [
    ("evolve", "[evolve]\nsnap_every = 0\n"),
    ("evolve", "[evolve]\nsnap_every = -3\n"),
    ("experiment", "[experiment]\ndeltas = 1e-3,abc\n"),
    ("experiment", "[experiment]\ndeltas = 1e-3,-1e-2\n"),
    ("sweep", "[sweep]\nfamily = bbm\ngrid = 1.0,,2.0\n"),
    ("wave", "[model]\nsymbol = nonsense\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = kdv\nnonlinearity = cubicish\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = frac:m=0.5\n[wave]\na = 0.05\n"),
    ("sweep", "[sweep]\nfamily = bogus\ngrid = 1.0,2.0\n"),
    ("wave", "[model]\nsymbol = bbm\n[wave]\nm = 2\na = 0.05\n"
             "[numerics]\nN = 17\n"),
    ("sweep", "[sweep]\nfamily = bbm\ngrid = 1.5,1.9\nN = 65\n"),
    ("sweep", "[sweep]\nfamily = bbm\ngrid = 1.5,1.9\nN = 7\n"),
    ("sweep", "[sweep]\nfamily = bbm\ngrid = 1.5,1.9\na = 0.5\n"),
    ("sweep", "[sweep]\nfamily = bbm\ngrid = 1.5,1.9\nk_count = 8\n"),
    ("experiment", "[experiment]\nkind = localized\nQ = 0\n"),
    ("experiment", "[experiment]\nkind = localized\nQ = 1\n"),
    ("experiment", "[experiment]\nkind = localized\nQ = -4\n"),
    ("experiment", "[experiment]\nkind = localized\nn_nodes = 0\n"),
    ("experiment", "[experiment]\nkind = localized\nn_nodes = -3\n"),
    ("experiment", "[experiment]\nt_max = 0\n"),
    ("experiment", "[experiment]\nt_max = -5\n"),
    ("experiment", "[numerics]\nQ = 64\n"),
    ("experiment", "[experiment]\ndeltas = 1e-4,1e-3\n"),
    ("experiment", "[experiment]\nkind = localized\ndeltas = 1e-3,1e-3\n"),
    ("wave", "[model]\nsymbol = kdv\nnonlinearity = power\np = 1e300\n"
             "[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = kdv\nnonlinearity = power\np = 1e5\n"
             "[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = kdv\np = 3\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = bo:m=2\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = kdv:x\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = frac:m=inf\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = ilw:H=inf\n[wave]\na = 0.05\n"),
    ("wave", "[model]\nsymbol = bbm\n[wave]\nm = 2\nkappa = 3\na = 0.05\n"),
], ids=["snap_every_zero", "snap_every_negative", "delta_not_a_number",
        "delta_negative", "grid_empty_entry", "unknown_symbol",
        "unknown_nonlinearity", "symbol_parameter_out_of_domain",
        "unknown_sweep_family", "numerics_N_odd", "sweep_N_odd",
        "sweep_N_out_of_range", "sweep_a_out_of_range",
        "sweep_k_count_out_of_range", "experiment_Q_zero", "experiment_Q_one",
        "experiment_Q_negative", "n_nodes_zero", "n_nodes_negative",
        "t_max_zero", "t_max_negative", "numerics_Q_unknown",
        "deltas_increasing", "localized_deltas_repeated", "power_p_huge",
        "power_p_above_range", "quadratic_p_not_two", "bo_with_parameter",
        "kdv_with_parameter", "frac_m_infinite", "ilw_H_infinite",
        "wave_kappa_and_m"])
def test_malformed_config_value_is_usage_error(tmp_path, monkeypatch, command,
                                               text):
    monkeypatch.setenv("MODULON_OUT", str(tmp_path / "out"))
    path = write_cfg(tmp_path, text)
    args = [command, path]
    if command not in ("sweep", "wave"):
        args += ["--wave", str(tmp_path / "w")]
    assert main(args) == EXIT_USAGE
    assert not (tmp_path / "out").exists()     # refused before any work


def test_unknown_experiment_kind_is_refused_before_the_scan(tmp_path,
                                                            monkeypatch):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    monkeypatch.setenv("MODULON_OUT", str(tmp_path / "out"))
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) +
                     "[experiment]\nkind = bogus\n", name="bogus.cfg")
    assert main(["experiment", path, "--wave", str(tmp_path / "w")]) \
        == EXIT_USAGE
    assert not (tmp_path / "out").exists()     # refused before any work


def _bound_text(typ, bound):
    if bound is None:
        return "-"
    if typ is str:
        return ", ".join(f"`{name}`" for name in bound)
    return f"[{bound[0]:g}, {bound[1]:g}]"


def test_readme_key_table_lists_the_schema():
    # a key or bound changed in the schema and not in the README fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `\[(\w+)\]` +\| `(\w+)` +\| (\w+) +\| (.+?) +\|",
                      readme.read_text(), re.M)
    assert rows == [(section, key, typ.__name__, _bound_text(typ, bound))
                    for section, keys in _SCHEMA.items()
                    for key, (typ, bound) in keys.items()]


_FLOAT_KEYS = [(section, key, typ is float_list)
               for section, keys in _SCHEMA.items()
               for key, (typ, _) in keys.items() if typ in (float, float_list)]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key, is_list", _FLOAT_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in _FLOAT_KEYS])
def test_non_finite_float_is_usage_error(tmp_path, monkeypatch, section, key,
                                         is_list, bad):
    # a list refuses a non-finite entry after a finite one
    monkeypatch.setenv("MODULON_OUT", str(tmp_path / "out"))
    path = write_cfg(tmp_path, f"[{section}]\n{key} = "
                               f"{'1.0,' + bad if is_list else bad}\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["sweep", path]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()     # refused before any work


def _config_texts():
    """Config text under the schema's sections and keys, sections and keys
    repeated, with numbers huge, non-finite or missing from a list, and
    arbitrary text."""
    number = st.one_of(
        st.floats().map(repr),
        st.integers(-10 ** 400, 10 ** 400).map(str),
        st.sampled_from(["", "nan", "-inf", "Infinity", "1e999", "9" * 5000]))
    value = st.one_of(
        number, st.lists(number, max_size=4).map(",".join),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=20))
    section = st.sampled_from(sorted(_SCHEMA)).flatmap(lambda name: st.tuples(
        st.just(name),
        st.lists(st.tuples(st.sampled_from(sorted(_SCHEMA[name])), value),
                 max_size=4)))
    return st.lists(section, max_size=4).map(lambda sections: "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items)
        for name, items in sections))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_config_texts())
def test_config_fuzz_parses_or_is_config_error(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text)
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    for section, values in cfg.values.items():
        for key, val in values.items():
            typ, _ = _SCHEMA[section][key]
            items = val if typ is float_list else [val]
            assert all(isinstance(v, float if typ is float_list else typ)
                       for v in items)
            assert all(np.isfinite(v) for v in items if isinstance(v, float))


def test_usage_exit_code(tmp_path):
    path = write_cfg(tmp_path, "[wave]\nbogus = 1\n")
    assert main(["wave", path]) == EXIT_USAGE


def test_missing_wave_is_bad_data(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    code = main(["spectrum", path, "--wave", str(tmp_path / "missing")])
    assert code == EXIT_BAD_DATA


@pytest.mark.parametrize("defect", ["bad_magic", "short_header", "negative_N",
                                    "short_payload", "unknown_symbol",
                                    "complex_profile", "nan_coefficient",
                                    "realness_flag", "nan_speed"])
def test_bad_wave_file_is_bad_data(tmp_path, defect):
    base = tmp_path / "w"
    save_field(zero_field(1, 16), str(base) + ".fld")
    good = (tmp_path / "w.fld").read_bytes()
    fld = {"bad_magic": b"NOTAFLD!" + good[8:],
           "short_header": good[:20],
           "negative_N": good[:8] + struct.pack("<qqq", 1, -1, 1),
           "short_payload": good[:-16],
           "complex_profile": good[:8] + struct.pack("<qqq", 1, 16, 0)
           + good[32:],
           # the real part of mode n = -4, not an oddball entry
           "nan_coefficient": good[:96] + struct.pack("<d", float("nan"))
           + good[104:],
           "realness_flag": good[:8] + struct.pack("<qqq", 1, 16, 7)
           + good[32:]}
    (tmp_path / "w.fld").write_bytes(fld.get(defect, good))
    model = {"family": "bbm", "symbol": "bbm", "symbol_shift": 0.0,
             "nonlinearity": "power", "p": 2.0, "kappa": 2.0}
    if defect == "unknown_symbol":
        model["symbol"] = "nonsense"
    (tmp_path / "w.json").write_text(json.dumps(
        {"model": model, "c": float("nan") if defect == "nan_speed" else 0.2,
         "a_const": 0.0, "amplitude": 0.0, "residual": 0.0,
         "converged": True}))
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    for command in ("spectrum", "verify"):
        assert main([command, path, "--wave", str(base)]) == EXIT_BAD_DATA


@pytest.mark.parametrize("command", ["spectrum", "evolve"])
def test_wave_on_larger_torus_is_bad_data(tmp_path, command):
    # a wave profile lives on T_{2 pi}; the same modes re-saved with q = 3
    # describe another function and must not be read as the wave
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) +
                     "[evolve]\ndelta = 1e-3\n")
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    prof = load_field(str(tmp_path / "w.fld"))
    save_field(PeriodicField(3, prof.N, prof.coef), str(tmp_path / "w.fld"))
    assert main([command, path, "--wave", str(tmp_path / "w")]) == EXIT_BAD_DATA


def test_pipeline_wave_spectrum_verify_evolve(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) +
                     "[evolve]\nt_end = 2.0\nsnap_every = 10\n")
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    assert (tmp_path / "w.fld").exists()
    sidecar = json.loads((tmp_path / "w.json").read_text())
    assert sidecar["converged"]
    assert abs(sidecar["c"] - (0.2 - 0.05 ** 2 * 5 / 24)) < 1e-5
    assert "provenance" in sidecar

    wave_base = str(tmp_path / "w")
    assert main(["spectrum", path, "--wave", wave_base, "--name", "s"]) == EXIT_OK
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["lambda0"] > 1e-8
    assert summary["bands"]
    assert summary["q"] <= 8
    csv_lines = (tmp_path / "s.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# modulon=")
    assert csv_lines[1] == "k,re_lambda,im_lambda"

    assert main(["verify", path, "--wave", wave_base, "--name", "v"]) == EXIT_OK
    verdicts = json.loads((tmp_path / "v.json").read_text())
    assert verdicts["pass"] is True
    assert verdicts["trichotomy"]["dim_Eu"] == verdicts["trichotomy"]["dim_Es"]

    assert main(["evolve", path, "--wave", wave_base, "--name", "e"]) == EXIT_OK
    rows = (tmp_path / "e.csv").read_text().splitlines()
    assert rows[1] == ("t,l2_perturbation,orbital_distance,mass_drift,"
                       "momentum_drift,energy_drift")
    last = rows[-1].split(",")
    assert abs(float(last[5])) < 1e-9     # equilibrium: tiny energy drift


def test_evolve_rows_every_snap_every_steps_plus_last(tmp_path):
    # 11 steps of 0.1 reach t_end = 1.05; rows after steps 0, 4, 8 and 11
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) +
                     "[evolve]\ndt = 0.1\nt_end = 1.05\nsnap_every = 4\n")
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    assert main(["evolve", path, "--wave", str(tmp_path / "w")]) == EXIT_OK
    rows = (tmp_path / "evolve.csv").read_text().splitlines()[2:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times == pytest.approx([0.0, 0.4, 0.8, 1.1], abs=1e-12)


def test_evolve_drift_columns_are_relative_drifts_of_the_run(tmp_path,
                                                            monkeypatch):
    runs = []

    def monitored(*args, **kwargs):
        runs.append(experiments._monitor_run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "_monitor_run", monitored)
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) +
                     "[evolve]\ndelta = 1e-3\nt_end = 2.0\n")
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    assert main(["evolve", path, "--wave", str(tmp_path / "w")]) == EXIT_OK
    (run,) = runs
    rows = (tmp_path / "evolve.csv").read_text().splitlines()[2:]
    got = np.array([[float(v) for v in r.split(",")] for r in rows]).T
    assert np.array_equal(got, [run.times, run.pert_norm, run.orbital,
                                relative_drift(run.mass, 1.0),
                                relative_drift(run.momentum),
                                relative_drift(run.energy)])


def test_evolve_blowup_is_numeric_failure(tmp_path):
    # Whitham at kappa = 64: the nonlinear term dominates the dispersion, so
    # dt = 1 (far above the CFL step) blows up between two observations
    cfg = """\
[model]
symbol = whitham
[wave]
a = 0.1
kappa = 64
[numerics]
N = 32
[evolve]
dt = 1.0
t_end = 100
snap_every = 10
[output]
dir = {out}
""".format(out=tmp_path)
    path = write_cfg(tmp_path, cfg)
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    code = main(["evolve", path, "--wave", str(tmp_path / "w")])
    assert code == EXIT_NUMERIC


def test_evolve_scans_with_configured_k_count(tmp_path, monkeypatch):
    cfg = BASE_CFG.format(out=tmp_path).replace("k_count = 32", "k_count = 16")
    path = write_cfg(tmp_path, cfg + "[evolve]\ndelta = 1e-3\n")
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    seen = []

    def fake_scan(model, wave, k_count, N):
        seen.append(k_count)
        raise DomainError("stop after the scan")

    monkeypatch.setattr("modulon.cli.scan_bloch", fake_scan)
    assert main(["evolve", path, "--wave", str(tmp_path / "w")]) == EXIT_NUMERIC
    assert seen == [16]


def test_spectrum_determinism(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    wave_base = str(tmp_path / "w")
    assert main(["spectrum", path, "--wave", wave_base, "--name", "s1"]) == EXIT_OK
    assert main(["spectrum", path, "--wave", wave_base, "--name", "s2"]) == EXIT_OK
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_verify_determinism(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    wave_base = str(tmp_path / "w")
    assert main(["verify", path, "--wave", wave_base, "--name", "v1"]) == EXIT_OK
    assert main(["verify", path, "--wave", wave_base, "--name", "v2"]) == EXIT_OK
    for ext in (".csv", ".json"):
        assert ((tmp_path / ("v1" + ext)).read_bytes() ==
                (tmp_path / ("v2" + ext)).read_bytes())


def test_verify_probes_the_order_of_the_symbol_tail(tmp_path):
    # s = m/2 with the Whitham tail exponent m = 1/2, as criterion 08 probes
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path).replace(
        "symbol = bbm", "symbol = whitham").replace("k_count = 32",
                                                    "k_count = 16"))
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    main(["verify", path, "--wave", str(tmp_path / "w"), "--name", "v"])
    verdicts = json.loads((tmp_path / "v.json").read_text())
    assert sorted(k for k in verdicts if k.startswith("slope_")) == \
        ["slope_s-1", "slope_s0", "slope_s0.25"]


def test_experiment_on_stable_wave_is_numeric_failure(tmp_path):
    cfg_text = """\
[model]
symbol = bbm
[wave]
m = 1.5
a = 0.05
[numerics]
N = 64
k_count = 32
[experiment]
deltas = 1e-3
[output]
dir = {out}
""".format(out=tmp_path)
    path = write_cfg(tmp_path, cfg_text)
    assert main(["wave", path, "--name", "w15"]) == EXIT_OK
    code = main(["experiment", path, "--wave", str(tmp_path / "w15")])
    assert code == EXIT_NUMERIC


def test_experiment_t_max_caps_the_run(tmp_path):
    # without the cap this run escapes near t = 388
    cfg_text = """\
[model]
symbol = bbm
[wave]
m = 2
a = 0.05
[numerics]
N = 32
k_count = 32
[experiment]
deltas = 1e-2
t_max = 5
[output]
dir = {out}
""".format(out=tmp_path)
    path = write_cfg(tmp_path, cfg_text)
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    assert main(["experiment", path, "--wave", str(tmp_path / "w"),
                 "--name", "exp"]) == EXIT_OK
    run = json.loads((tmp_path / "exp.json").read_text())["runs"][0]
    assert run["escaped"] is False
    rows = (tmp_path / "exp_delta0.csv").read_text().splitlines()[2:]
    # the BBM stable_dt is its cap, 0.1
    assert float(rows[-1].split(",")[0]) <= 5.0 + 0.1 + 1e-12


def test_env_override_output(tmp_path, monkeypatch):
    other = tmp_path / "elsewhere"
    monkeypatch.setenv("MODULON_OUT", str(other))
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    assert (other / "w.fld").exists()


def test_report_subcommand(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    assert main(["wave", path, "--name", "w"]) == EXIT_OK
    assert main(["report", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "w.json" in out


@pytest.mark.parametrize("text", ['{"lambda0": "abc"}',
                                  '{"regression": {"slope": 1}}',
                                  'null', '3.5', '{"lambda0": 1.5'])
def test_report_refuses_a_malformed_report(tmp_path, capsys, text):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    (tmp_path / "bad.json").write_text(text)
    assert main(["report", path]) == EXIT_BAD_DATA
    assert str(tmp_path / "bad.json") in capsys.readouterr().err


def test_wave_zero_amplitude_whitham(tmp_path):
    cfg_text = """\
[model]
symbol = whitham
[wave]
a = 0.0
kappa = 1.0
[numerics]
N = 32
[output]
dir = {out}
""".format(out=tmp_path)
    path = write_cfg(tmp_path, cfg_text)
    assert main(["wave", path, "--name", "z"]) == EXIT_OK
    sidecar = json.loads((tmp_path / "z.json").read_text())
    import numpy as np
    assert abs(sidecar["c"] - np.sqrt(np.tanh(1.0))) < 1e-12  # c = alpha(kappa)
    assert sidecar["amplitude"] == 0.0


def test_experiment_multiperiodic_through_cli(tmp_path):
    cfg_text = """\
[model]
symbol = whitham
[wave]
a = 0.05
kappa = 2.0
[numerics]
N = 96
k_count = 48
[experiment]
deltas = 1e-3
[output]
dir = {out}
""".format(out=tmp_path)
    path = write_cfg(tmp_path, cfg_text)
    assert main(["wave", path, "--name", "wk"]) == EXIT_OK
    assert main(["experiment", path, "--wave", str(tmp_path / "wk"),
                 "--name", "exp"]) == EXIT_OK
    obj = json.loads((tmp_path / "exp.json").read_text())
    assert obj["kind"] == "multiperiodic"
    assert obj["q"] <= 8
    run = obj["runs"][0]
    assert run["escaped"]
    assert abs(run["growth_rate"] - obj["reference_rate"]) \
        <= 0.05 * obj["reference_rate"]
    assert (tmp_path / "exp_delta0.csv").exists()


def test_experiment_localized_kind(tmp_path):
    cfg_text = """\
[model]
symbol = whitham
[wave]
a = 0.05
kappa = 2.0
[numerics]
N = 96
k_count = 48
[experiment]
kind = localized
deltas = 1e-2
Q = 64
[output]
dir = {out}
""".format(out=tmp_path)
    path = write_cfg(tmp_path, cfg_text)
    assert main(["wave", path, "--name", "wk"]) == EXIT_OK
    code = main(["experiment", path, "--wave", str(tmp_path / "wk"),
                 "--name", "loc"])
    assert code == EXIT_OK
    obj = json.loads((tmp_path / "loc.json").read_text())
    assert obj["kind"] == "localized"
    assert obj["packet"]["Q"] == 64
    assert abs(obj["packet"]["lambda_fit"] - obj["lambda0"]) \
        <= 0.05 * obj["lambda0"]


def _run_cli_pipeline(tmp_path, threads):
    """wave, spectrum and verify in a fresh interpreter started with
    ``OPENBLAS_NUM_THREADS=threads``; returns the artifacts by file name."""
    import os
    import subprocess
    import sys

    import modulon

    src = os.path.dirname(os.path.dirname(modulon.__file__))
    cfg = write_cfg(tmp_path, BASE_CFG.format(out="."))
    out = tmp_path / f"t{threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               MODULON_OUT=str(out),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    wave = str(out / "w")
    for argv in (["wave", cfg, "--name", "w"],
                 ["spectrum", cfg, "--wave", wave, "--name", "s"],
                 ["verify", cfg, "--wave", wave, "--name", "v"]):
        subprocess.run([sys.executable, "-m", "modulon.cli", *argv], env=env,
                       check=True, capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    one = _run_cli_pipeline(tmp_path, 1)
    two = _run_cli_pipeline(tmp_path, 2)
    assert sorted(one) == ["s.csv", "s.json", "v.csv", "v.json", "w.fld",
                           "w.json"]
    for name in one:
        assert one[name] == two[name], name
