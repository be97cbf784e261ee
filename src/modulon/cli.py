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

Unknown sections or keys, and non-finite numbers, are rejected.  Exit
codes: 0 ok, 2 numeric failure, 64 usage error, 65 bad data file.
MODULON_OUT overrides the output directory.
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
from .symbols import (ModelSpec, NonlinearitySpec, classify_symbol,
                      model_for_symbol, parse_symbol)
from .waves import load_wave, save_wave, small_amplitude_solution
from .bloch import (export_spectrum_dump, fit_band, scan_bloch,
                    spectrum_summary, assemble_bloch)
from .semigroup import dual_propagator_norm, probe_growth, trichotomy_split
from .evolve import lift_wave, relative_drift, stable_dt
from .fields import write_csv
from .experiments import (check_deltas, eigenfunction_seed, export_run_csv,
                          plan_steps, run_localized, run_multiperiodic,
                          threshold_sweep, _monitor_run, _pick_rational_k0,
                          SWEEP_FAMILIES)

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_BAD_DATA = 65


def float_list(raw: str) -> list:
    """Comma-separated floats, e.g. ``1e-3,1e-4``."""
    return [float(x) for x in raw.split(",")]


# section -> key -> (type, bound).  A number's bound is the inclusive range
# (lo, hi) of it, or of every entry of a list; a name's bound is the tuple of
# names it may take.  None: no bound here ([model] names are checked when
# the model is built).
_SCHEMA = {
    "model": {
        "symbol": (str, None), "nonlinearity": (str, None),
        # p > 1 is NonlinearitySpec's own bound.  Products with f are
        # alias-free on NonlinearitySpec.pad N = ceil((p + 1) / 2) N points:
        # at p = 16 and the largest N, 1024, that is 9,216 points a
        # transform, times q <= 64 periods on a multi-period torus.  Past it
        # f'(u) = p u^(p - 1) at the largest amplitudes, |u| <= |a| + |b| <=
        # 0.2, is below 5e-10, and near p = 24 below round-off, where the
        # wave is linear to the bit.
        "p": (float, (1.0, 16.0))},
    "wave": {"a": (float, (-0.1, 0.1)), "b": (float, (-0.1, 0.1)),
             "kappa": (float, (1e-6, 64.0)), "m": (float, (1e-6, 64.0))},
    "numerics": {"N": (int, (16, 1024)), "k_count": (int, (16, 4096)),
                 "q_max": (int, (1, 64))},
    "evolve": {"dt": (float, (1e-9, 10.0)), "t_end": (float, (0.0, 1e9)),
               "snap_every": (int, (1, 10 ** 9)), "delta": (float, None)},
    "experiment": {"kind": (str, ("multiperiodic", "localized")),
                   "deltas": (float_list, (1e-300, 1e6)),   # every delta > 0
                   "theta0": (float, (0.0, 1e6)),
                   "t_max": (float, (1e-300, 1e9)),         # t_max > 0
                   "Q": (int, (2, 4096)), "n_nodes": (int, (1, 10 ** 9))},
    "sweep": {"family": (str, tuple(SWEEP_FAMILIES)), "grid": (float_list, None),
              "a": (float, (-0.1, 0.1)), "m_exp": (float, None),
              "N": (int, (16, 1024)), "k_count": (int, (16, 4096))},
    "output": {"dir": (str, None)},
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
            typ, bound = _SCHEMA[section][key]
            try:
                val = typ(raw) if typ is not str else raw.strip()
            except ValueError as exc:
                raise ConfigError(
                    f"key [{section}] {key} = {raw!r} is not a {typ.__name__}") from exc
            items = val if isinstance(val, list) else [val]
            if not all(np.isfinite(v) for v in items if isinstance(v, float)):
                raise ConfigError(f"key [{section}] {key} = {val} is not finite")
            if typ is str and bound and val not in bound:
                raise ConfigError(f"key [{section}] {key} = {val!r} is not one "
                                  f"of {', '.join(bound)}")
            if typ is not str and bound and not all(
                    bound[0] <= v <= bound[1] for v in items):
                raise ConfigError(
                    f"key [{section}] {key} = {val} outside [{bound[0]}, {bound[1]}]")
            if key == "N" and val % 2:          # every truncation is even
                raise ConfigError(f"key [{section}] {key} = {val} is not even")
            if key == "deltas":     # strictly decreasing, before any work
                try:
                    check_deltas(val)
                except DomainError as exc:
                    raise ConfigError(f"key [{section}] {key}: {exc}") from exc
            values[section][key] = val
    if {"kappa", "m"} <= values.get("wave", {}).keys():
        raise ConfigError("[wave] kappa and m name one wavenumber; give one")
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
    wave = small_amplitude_solution(model, a, b, N)
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
    for s in (-1.0, 0.0, classify_symbol(model.symbol).m / 2.0):
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
    run = _monitor_run(model, wave, u0, uc_big, t_end, 0.0, "orbital",
                       plan_steps(model, wave, uc_big, dt, snap_every))
    d = out_dir(cfg)
    csv_path = os.path.join(d, args.name + ".csv")
    ed = relative_drift(run.energy)
    write_csv(csv_path, _csv_header(cfg),
              ("t", "l2_perturbation", "orbital_distance", "mass_drift",
               "momentum_drift", "energy_drift"),
              zip(run.times, run.pert_norm, run.orbital,
                  relative_drift(run.mass, 1.0), relative_drift(run.momentum),
                  ed))
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
    t_max = cfg.get("experiment", "t_max")
    sp = scan_bloch(model, wave, k_count=k_count, N=N)
    d = out_dir(cfg)
    if kind == "localized":
        curve = fit_band(sp)
        Q = cfg.get("experiment", "Q", 64)
        rep = run_localized(model, wave, sp, curve, Q, deltas, theta0=theta0,
                            n_nodes=cfg.get("experiment", "n_nodes"),
                            N_op=N, t_max=t_max, enforce_envelope=False)
    else:
        rep = run_multiperiodic(model, wave, sp, deltas, theta0=theta0,
                                q_max=cfg.get("numerics", "q_max", 8),
                                N_op=N, t_max=t_max)
    path = os.path.join(d, args.name + ".json")
    _write_json(rep.to_dict(), path, cfg)
    for i, run in enumerate(rep.runs):
        export_run_csv(run, os.path.join(d, f"{args.name}_delta{i}.csv"),
                       header=_csv_header(cfg))
    print(f"experiment {kind}: passes = {rep.passes} -> {path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    family = cfg.require("sweep", "family")
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
        path = os.path.join(d, fn)
        line = [fn]
        try:
            with open(path) as fh:
                obj = json.load(fh)     # JSONDecodeError is a ValueError
            for key in ("lambda0", "boundary", "reference_rate"):
                if obj.get(key) is not None:
                    line.append(f"{key}={obj[key]:.6g}")
            if obj.get("passes"):
                line.append(f"passes={obj['passes']}")
            if obj.get("regression"):
                line.append(f"r2={obj['regression']['r2']:.4f}")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise BadDataError(f"malformed report {path}: {exc!r}") from exc
        print("  ".join(line))
    return EXIT_OK


# command -> (handler, whether it reads a persisted wave)
_COMMANDS = {"wave": (cmd_wave, False), "spectrum": (cmd_spectrum, True),
             "verify": (cmd_verify, True), "evolve": (cmd_evolve, True),
             "experiment": (cmd_experiment, True), "sweep": (cmd_sweep, False),
             "report": (cmd_report, False)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="modulon",
        description="Periodic traveling waves of dispersive models, their "
                    "Bloch stability, and nonlinear instability experiments.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, needs_wave) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("config", help="path to the run configuration")
        p.add_argument("--name", default=name,
                       help="basename for output artifacts")
        if needs_wave:
            p.add_argument("--wave", required=True,
                           help="basename of a persisted wave (no extension)")
    args = ap.parse_args(argv)
    try:
        return args.handler(parse_config(args.config), args)
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
