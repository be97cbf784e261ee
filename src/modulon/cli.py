"""Command-line entry point: config parsing, the wave -> spectrum ->
experiment pipeline, artifact persistence, and report emission.

Configuration is sectioned key=value text, e.g.

    [model]
    symbol = bbm
    [wave]
    m = 2
    a = 0.05
    [numerics]
    N = 128
    k_count = 64

Unknown sections or keys are rejected.  Exit codes: 0 ok, 2 numeric
failure, 64 usage error, 65 bad data file.  MODULON_OUT overrides the
output directory.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import BadDataError, ConfigError, DomainError, ModulonError
from .symbols import ModelSpec, NonlinearitySpec, model_for_symbol, parse_symbol
from .waves import load_wave, refine_newton, save_wave, small_amplitude_wave
from .bloch import (export_spectrum_dump, fit_band, scan_bloch,
                    spectrum_summary, assemble_bloch)
from .semigroup import dual_propagator_norm, probe_growth, trichotomy_split
from .evolve import lift_wave, stable_dt
from .fields import write_csv
from .experiments import (eigenfunction_seed, export_run_csv, run_localized,
                          run_multiperiodic, threshold_sweep, _monitor_run,
                          _pick_rational_k0, SWEEP_FAMILIES)

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_BAD_DATA = 65


def float_list(raw: str) -> list:
    """Comma-separated floats, e.g. ``1e-3,1e-4``."""
    return [float(x) for x in raw.split(",")]


_SCHEMA = {
    "model": {"symbol": str, "nonlinearity": str, "p": float},
    "wave": {"a": float, "b": float, "kappa": float, "m": float},
    "numerics": {"N": int, "k_count": int, "Q": int, "q_max": int},
    "evolve": {"dt": float, "t_end": float, "snap_every": int,
               "delta": float},
    "experiment": {"kind": str, "deltas": float_list, "theta0": float,
                   "t_max": float, "Q": int, "n_nodes": int},
    "sweep": {"family": str, "grid": float_list, "a": float, "m_exp": float,
              "N": int, "k_count": int},
    "output": {"dir": str},
}

_RANGES = {
    ("wave", "a"): (-0.1, 0.1),
    ("wave", "b"): (-0.1, 0.1),
    ("wave", "kappa"): (1e-6, 64.0),
    ("wave", "m"): (1e-6, 64.0),
    ("numerics", "N"): (16, 1024),
    ("numerics", "k_count"): (16, 4096),
    ("numerics", "Q"): (2, 4096),
    ("numerics", "q_max"): (1, 64),
    ("evolve", "dt"): (1e-9, 10.0),
    ("evolve", "t_end"): (0.0, 1e9),
    ("evolve", "snap_every"): (1, 10 ** 9),
    ("experiment", "deltas"): (1e-300, 1e6),     # every delta > 0
    ("experiment", "theta0"): (0.0, 1e6),
}


class RunConfig:
    """Validated configuration with typed accessors."""

    def __init__(self, values: dict, text: str):
        self.values = values
        self.sha = hashlib.sha256(text.encode()).hexdigest()[:16]

    def get(self, section: str, key: str, default=None):
        return self.values.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        v = self.get(section, key)
        if v is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return v


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str          # keys are case-sensitive (N vs n)
    try:
        with open(path) as fh:
            text = fh.read()
        cp.read_string(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                val = typ(raw) if typ is not str else raw.strip()
            except ValueError as exc:
                raise ConfigError(
                    f"key [{section}] {key} = {raw!r} is not a {typ.__name__}") from exc
            rng = _RANGES.get((section, key))
            items = val if isinstance(val, list) else [val]
            if rng is not None and not all(rng[0] <= v <= rng[1] for v in items):
                raise ConfigError(
                    f"key [{section}] {key} = {val} outside [{rng[0]}, {rng[1]}]")
            values[section][key] = val
    return RunConfig(values, text)


def build_model(cfg: RunConfig) -> ModelSpec:
    """The ``[model]`` model; a value it cannot name is a ConfigError."""
    kappa = cfg.get("wave", "kappa", cfg.get("wave", "m", 1.0))
    try:
        sym = parse_symbol(cfg.require("model", "symbol"))
        nl = NonlinearitySpec(cfg.get("model", "nonlinearity", "quadratic"),
                              p=cfg.get("model", "p", 2.0))
        return model_for_symbol(sym, nl, kappa=float(kappa))
    except DomainError as exc:
        raise ConfigError(f"[model]: {exc}") from exc


def out_dir(cfg: RunConfig) -> str:
    d = os.environ.get("MODULON_OUT") or cfg.get("output", "dir", ".")
    os.makedirs(d, exist_ok=True)
    return d


def provenance(cfg: RunConfig) -> dict:
    return {"modulon": __version__, "config_sha256": cfg.sha}


def _write_json(obj: dict, path: str, cfg: RunConfig):
    obj = dict(obj)
    obj["provenance"] = provenance(cfg)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _csv_header(cfg: RunConfig) -> str:
    return f"# modulon={__version__} config=sha256:{cfg.sha}\n"


# -- subcommands ----------------------------------------------------------------


def cmd_wave(cfg: RunConfig, args) -> int:
    model = build_model(cfg)
    a = cfg.require("wave", "a")
    b = cfg.get("wave", "b", 0.0)
    N = cfg.get("numerics", "N", 128)
    seed = small_amplitude_wave(model, a=a, b=b, N=N)
    if b != 0.0 and model.symbol.kind != "whitham":
        wave = refine_newton(model, seed, fix_amplitude=a, fix_mean=b)
    else:
        wave = refine_newton(model, seed, fix_amplitude=a,
                             fix_a_const=seed.a_const)
    base = os.path.join(out_dir(cfg), args.name)
    _write_json(save_wave(wave, base), base + ".json", cfg)
    print(f"wave converged: c = {wave.c:.12g}, residual = {wave.residual:.3e} "
          f"-> {base}.fld")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, args) -> int:
    wave = load_wave(args.wave)
    model = wave.model
    N = cfg.get("numerics", "N", 128)
    k_count = cfg.get("numerics", "k_count", 64)
    sp = scan_bloch(model, wave, k_count=k_count, N=N)
    d = out_dir(cfg)
    csv_path = os.path.join(d, args.name + ".csv")
    export_spectrum_dump(sp, csv_path, header=_csv_header(cfg))
    curve = None
    pq = None
    if sp.lambda0 > sp.threshold:
        try:
            curve = fit_band(sp)
            q_max = cfg.get("numerics", "q_max", 8)
            pq = _pick_rational_k0(sp, curve, q_max)
        except ModulonError:
            pass
    summary = spectrum_summary(sp, curve, pq)
    _write_json(summary, os.path.join(d, args.name + ".json"), cfg)
    print(f"lambda0 = {sp.lambda0:.6e} at k0 = {sp.k0:.6f}; "
          f"{len(sp.bands)} unstable band(s) -> {csv_path}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    wave = load_wave(args.wave)
    model = wave.model
    N = cfg.get("numerics", "N", 96)
    k_count = cfg.get("numerics", "k_count", 32)
    sp = scan_bloch(model, wave, k_count=k_count, N=N)
    k_probe = sp.k0 if sp.lambda0 > sp.threshold else 0.25
    op = assemble_bloch(model, wave, k_probe, N)
    d = out_dir(cfg)
    rows = []
    verdicts = {"k": k_probe, "lambda0": sp.lambda0}
    ok = True
    m_exp = 2.0 if model.symbol.kind != "fractional" else model.symbol.m
    for s in (-1.0, 0.0, m_exp / 2.0):
        probe = probe_growth(op, s)
        slope = probe.log_slope()
        rows.extend((k_probe, s, t, nrm)
                    for t, nrm in zip(probe.t_grid, probe.norms))
        passed = sp.lambda0 - 0.05 <= slope <= sp.lambda0 + 0.05
        ok = ok and passed
        verdicts[f"slope_s{s:g}"] = slope
        verdicts[f"pass_s{s:g}"] = passed
    verdicts["dual_norm_t1"] = dual_propagator_norm(op, 1.0)
    split = trichotomy_split(op)
    verdicts["trichotomy"] = {"dim_Eu": split.dim_Eu, "dim_Es": split.dim_Es,
                              "dim_Ec": split.dim_Ec,
                              "n_minus_L": split.n_minus_L}
    verdicts["pass"] = bool(ok)
    csv_path = os.path.join(d, args.name + ".csv")
    write_csv(csv_path, _csv_header(cfg), ("k", "s", "t", "norm"), rows)
    _write_json(verdicts, os.path.join(d, args.name + ".json"), cfg)
    print(f"semigroup verdicts: pass = {ok} (lambda0 = {sp.lambda0:.3e})")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_evolve(cfg: RunConfig, args) -> int:
    wave = load_wave(args.wave)
    model = wave.model
    N = cfg.get("numerics", "N", 96)
    delta = cfg.get("evolve", "delta", 0.0)
    u0 = lift_wave(wave, 1, N)
    if delta:
        sp = scan_bloch(model, wave, k_count=cfg.get("numerics", "k_count", 32),
                        N=N)
        if sp.lambda0 <= sp.threshold:
            print("wave is stable; evolving the unperturbed wave")
        else:
            _, q, _, u1 = eigenfunction_seed(model, wave, sp,
                                             cfg.get("numerics", "q_max", 8),
                                             N, N)
            u0 = lift_wave(wave, q, u1.N) + delta * u1
    dt = cfg.get("evolve", "dt") or stable_dt(model, u0.q, u0.N)
    t_end = cfg.get("evolve", "t_end", 10.0)
    snap_every = cfg.get("evolve", "snap_every", 10)
    uc_big = lift_wave(wave, u0.q, u0.N)
    run = _monitor_run(model, wave, u0, uc_big, dt, t_end, snap_every * dt,
                       0.0, "orbital")
    d = out_dir(cfg)
    csv_path = os.path.join(d, args.name + ".csv")
    ed = run.ledger.energy_drift()
    write_csv(csv_path, _csv_header(cfg),
              ("t", "l2_perturbation", "orbital_distance", "mass_drift",
               "momentum_drift", "energy_drift"),
              zip(run.times, run.pert_norm, run.orbital,
                  run.ledger.mass_drift(), run.ledger.momentum_drift(), ed))
    print(f"evolved to t = {run.times[-1]:.4g}; max |energy drift| = "
          f"{float(np.max(np.abs(ed))):.2e} -> {csv_path}")
    return EXIT_OK


def cmd_experiment(cfg: RunConfig, args) -> int:
    wave = load_wave(args.wave)
    model = wave.model
    N = cfg.get("numerics", "N", 128)
    k_count = cfg.get("numerics", "k_count", 64)
    kind = cfg.get("experiment", "kind", "multiperiodic")
    deltas = cfg.get("experiment", "deltas", [1e-3, 1e-4, 1e-5])
    theta0 = cfg.get("experiment", "theta0")
    sp = scan_bloch(model, wave, k_count=k_count, N=N)
    d = out_dir(cfg)
    if kind == "multiperiodic":
        rep = run_multiperiodic(model, wave, sp, deltas, theta0=theta0,
                                q_max=cfg.get("numerics", "q_max", 8),
                                N_op=N)
    elif kind == "localized":
        curve = fit_band(sp)
        Q = cfg.get("experiment", "Q", 64)
        rep = run_localized(model, wave, sp, curve, Q, deltas, theta0=theta0,
                            n_nodes=cfg.get("experiment", "n_nodes"),
                            N_op=N, enforce_envelope=False)
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    path = os.path.join(d, args.name + ".json")
    _write_json(rep.to_dict(), path, cfg)
    for i, run in enumerate(rep.runs):
        export_run_csv(rep, run, os.path.join(d, f"{args.name}_delta{i}.csv"),
                       header=_csv_header(cfg))
    print(f"experiment {kind}: passes = {rep.passes} -> {path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    family = cfg.require("sweep", "family")
    if family not in SWEEP_FAMILIES:
        raise ConfigError(f"[sweep] family = {family!r} is not one of "
                          f"{', '.join(SWEEP_FAMILIES)}")
    grid = cfg.require("sweep", "grid")
    res = threshold_sweep(
        family, grid,
        a=cfg.get("sweep", "a", 0.02),
        m_exp=cfg.get("sweep", "m_exp", 2.0),
        N=cfg.get("sweep", "N", 128),
        k_count=cfg.get("sweep", "k_count", 64))
    d = out_dir(cfg)
    path = os.path.join(d, args.name + ".json")
    _write_json(res.to_dict(), path, cfg)
    print(f"sweep {family}: boundary = {res.boundary} -> {path}")
    return EXIT_OK


def cmd_report(cfg: RunConfig, args) -> int:
    d = out_dir(cfg)
    names = sorted(fn for fn in os.listdir(d) if fn.endswith(".json"))
    if not names:
        print(f"no reports found in {d}")
        return EXIT_OK
    for fn in names:
        with open(os.path.join(d, fn)) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError:
                continue
        line = [fn]
        for key in ("lambda0", "boundary", "reference_rate"):
            if key in obj and obj[key] is not None:
                line.append(f"{key}={obj[key]:.6g}")
        if "passes" in obj and obj["passes"]:
            line.append(f"passes={obj['passes']}")
        if "regression" in obj and obj["regression"]:
            line.append(f"r2={obj['regression']['r2']:.4f}")
        print("  ".join(line))
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="modulon",
        description="Periodic traveling waves of dispersive models, their "
                    "Bloch stability, and nonlinear instability experiments.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, needs_wave in [("wave", False), ("spectrum", True),
                             ("verify", True), ("evolve", True),
                             ("experiment", True), ("sweep", False),
                             ("report", False)]:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the run configuration")
        p.add_argument("--name", default=name,
                       help="basename for output artifacts")
        if needs_wave:
            p.add_argument("--wave", required=True,
                           help="basename of a persisted wave (no extension)")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        handler = {
            "wave": cmd_wave, "spectrum": cmd_spectrum, "verify": cmd_verify,
            "evolve": cmd_evolve, "experiment": cmd_experiment,
            "sweep": cmd_sweep, "report": cmd_report,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BadDataError as exc:
        print(f"bad data file: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except ModulonError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
