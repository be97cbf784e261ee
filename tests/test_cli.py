import json
import struct

import pytest

from modulon import PeriodicField, load_field, save_field, zero_field
from modulon.cli import (EXIT_BAD_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         main, parse_config, build_model)
from modulon.errors import ConfigError, DomainError


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
], ids=["snap_every_zero", "snap_every_negative", "delta_not_a_number",
        "delta_negative", "grid_empty_entry", "unknown_symbol",
        "unknown_nonlinearity", "symbol_parameter_out_of_domain",
        "unknown_sweep_family"])
def test_malformed_config_value_is_usage_error(tmp_path, monkeypatch, command,
                                               text):
    monkeypatch.setenv("MODULON_OUT", str(tmp_path / "out"))
    path = write_cfg(tmp_path, text)
    args = [command, path]
    if command not in ("sweep", "wave"):
        args += ["--wave", str(tmp_path / "w")]
    assert main(args) == EXIT_USAGE
    assert not (tmp_path / "out").exists()     # refused before any work


def test_usage_exit_code(tmp_path):
    path = write_cfg(tmp_path, "[wave]\nbogus = 1\n")
    assert main(["wave", path]) == EXIT_USAGE


def test_missing_wave_is_bad_data(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    code = main(["spectrum", path, "--wave", str(tmp_path / "missing")])
    assert code == EXIT_BAD_DATA


@pytest.mark.parametrize("defect", ["bad_magic", "short_header", "negative_N",
                                    "short_payload", "unknown_symbol"])
def test_bad_wave_file_is_bad_data(tmp_path, defect):
    base = tmp_path / "w"
    save_field(zero_field(1, 16), str(base) + ".fld")
    good = (tmp_path / "w.fld").read_bytes()
    fld = {"bad_magic": b"NOTAFLD!" + good[8:],
           "short_header": good[:20],
           "negative_N": good[:8] + struct.pack("<qqq", 1, -1, 1),
           "short_payload": good[:-16]}
    (tmp_path / "w.fld").write_bytes(fld.get(defect, good))
    model = {"family": "bbm", "symbol": "bbm", "symbol_shift": 0.0,
             "nonlinearity": "power", "p": 2.0, "kappa": 2.0}
    if defect == "unknown_symbol":
        model["symbol"] = "nonsense"
    (tmp_path / "w.json").write_text(json.dumps(
        {"model": model, "c": 0.2, "a_const": 0.0, "amplitude": 0.0,
         "residual": 0.0, "converged": True}))
    path = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path))
    assert main(["spectrum", path, "--wave", str(base)]) == EXIT_BAD_DATA


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


@pytest.mark.slow
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


@pytest.mark.slow
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
