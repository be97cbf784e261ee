"""Periodic traveling waves: small-amplitude seeds, Newton refinement,
amplitude continuation, and regularity diagnostics.

Profiles are even real fields on the normalized 2*pi torus; the physical
wavenumber sits in ``model.kappa``.  The steady equation solved here is

    E u + nl_sign f(u) = a,    E = diag(energy_diag(kappa n, c)[0])

with the operator pieces of ``ModelSpec``.

Phase is fixed by solving in cosine space, which removes the translation
null direction; the amplitude parameter is the coefficient of cos z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (BadDataError, ContinuationStallError,
                     DegenerateJacobianError, DivergenceError, DomainError,
                     InsufficientDataError)
from .fields import (PeriodicField, cosine_coefficients, cosine_field,
                     dealiased_product, l2_norm, pointwise_image, save_field,
                     load_field, _lift_eigenfunction)
from .symbols import ModelSpec, NonlinearitySpec, evaluate_symbol, parse_symbol

NEWTON_TOL_UPDATE = 1e-12
NEWTON_TOL_RESIDUAL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass
class TravelingWave:
    """Converged (or seed-quality) traveling-wave profile with parameters."""

    model: ModelSpec
    profile: PeriodicField     # even real field on T_{2 pi}
    c: float
    a_const: float
    amplitude: float
    residual: float
    converged: bool = False
    residual_history: list = dc_field(default_factory=list)
    newton_iterations: int = 0


def steady_residual_field(model: ModelSpec, u: PeriodicField, c: float,
                          a_const: float) -> PeriodicField:
    """The steady equation evaluated at (u, c, a): zero for a traveling wave."""
    nl = model.nonlinearity
    fu = pointwise_image(u, nl.f, pad=nl.pad)
    lin, _ = model.energy_diag(model.kappa * u.xi(), c)
    coef = lin * u.coef + model.nl_sign * fu.coef
    out = PeriodicField(u.q, u.N, coef, real=True)
    out.set_mode(0, out.mode(0) - a_const)
    return out


def residual_norm(model: ModelSpec, u: PeriodicField, c: float,
                  a_const: float) -> float:
    """Sup norm of the steady equation over a padded collocation grid."""
    r = steady_residual_field(model, u, c, a_const)
    return float(np.max(np.abs(r.values(4 * u.N))))


def apply_energy_operator(model: ModelSpec, wave: TravelingWave,
                          v: PeriodicField, k: float = 0.0) -> PeriodicField:
    """Apply L_k = diag(energy_diag) + nl_sign f'(u_c) (see ``ModelSpec``) to v."""
    dfu = pointwise_image(wave.profile, model.nonlinearity.df,
                          pad=model.nonlinearity.pad)
    dfu = resample(dfu, v.N)
    prod = dealiased_product(dfu, v)
    lin, _ = model.energy_diag(model.kappa * (v.xi() + k), wave.c)
    coef = lin * v.coef + model.nl_sign * prod.coef
    return PeriodicField(v.q, v.N, coef, real=v.real and k == 0.0)


def resample(f: PeriodicField, N: int) -> PeriodicField:
    """Re-truncate or zero-extend f to N modes on its own torus."""
    return PeriodicField(f.q, N, _lift_eigenfunction(f, 0, 1, N), real=f.real)


def kernel_defect(model: ModelSpec, wave: TravelingWave) -> float:
    """Relative size of L (d/dz u_c): vanishes for exact traveling waves."""
    du = PeriodicField(wave.profile.q, wave.profile.N,
                       wave.profile.coef * (1j * wave.profile.modes()), real=True)
    ldu = apply_energy_operator(model, wave, du)
    nrm = l2_norm(du)
    if nrm == 0.0:
        return 0.0
    return l2_norm(ldu) / nrm


# -- small-amplitude seeds -----------------------------------------------------


def small_amplitude_wave(model: ModelSpec, a: float, b: float = 0.0,
                         N: int = 128) -> TravelingWave:
    """Truncated small-amplitude expansion used to seed Newton.

    Whitham carries the optional mean-flow parameter b; the BBM branch is the
    cos(m x) Stokes family with zero integration constant; other kdv-type
    models get a two-harmonic Stokes seed from harmonic balance.
    """
    if abs(a) > 0.1 or abs(b) > 0.1:
        raise DomainError("seed expansions are restricted to |a|, |b| <= 0.1")
    kap = model.kappa
    sym = model.symbol
    nl = model.nonlinearity

    if model.family == "bbm":
        if b != 0.0:
            raise DomainError("the bbm expansion has no mean-flow parameter")
        m2 = kap * kap
        d = np.zeros(3)
        d[0] = -a * a * (1.0 + m2) / (2.0 * m2)
        d[1] = a
        d[2] = a * a * (1.0 + m2) / (6.0 * m2)
        c = 1.0 / (1.0 + m2) - a * a * 5.0 / (6.0 * m2)
        a_const = 0.0
    elif sym.kind == "whitham":
        if nl.form != "power" or nl.p != 2.0:
            raise DomainError("the whitham expansion assumes f(u) = u^2")
        m1 = evaluate_symbol(sym, kap)
        m2 = evaluate_symbol(sym, 2.0 * kap)
        w0 = b * (1.0 - m1) - b * b * (1.0 - m1)
        c0 = m1 + 2.0 * b * (1.0 - m1) - 6.0 * b * b * (1.0 - m1)
        d = np.zeros(3)
        d[0] = w0 + 0.5 * a * a / (m1 - 1.0)
        d[1] = a
        d[2] = 0.5 * a * a / (m1 - m2)
        c = c0 + a * a * (1.0 / (m1 - 1.0) + 0.5 / (m1 - m2))
        a_const = None   # computed from the seed below
    elif model.family == "kdv_type":
        # two-harmonic balance around the mean level b
        fpb = float(nl.df(b))
        c = evaluate_symbol(sym, kap) + fpb
        d = np.zeros(3)
        d[0] = b
        d[1] = a
        fppb = float(nl.d2f(b))
        if np.isfinite(fppb) and fppb != 0.0:
            den2 = evaluate_symbol(sym, 2.0 * kap) - c + fpb
            den0 = evaluate_symbol(sym, 0.0) - c + fpb
            if abs(den2) > 1e-12:
                d[2] = -fppb * a * a / (4.0 * den2)
            if abs(den0) > 1e-12:
                d[0] = b - fppb * a * a / (4.0 * den0)
        a_const = 0.0 if b == 0.0 else None
    else:
        raise DomainError(f"no expansion available for this model")

    profile = cosine_field(1, N, d)
    if a_const is None:
        with_zero = steady_residual_field(model, profile, c, 0.0)
        a_const = float(with_zero.mode(0).real)
    res = residual_norm(model, profile, c, a_const)
    return TravelingWave(model, profile, float(c), float(a_const), float(a),
                         residual=res, converged=False)


# -- Newton refinement ----------------------------------------------------------


def _even_projection(f: PeriodicField) -> np.ndarray:
    sym = 0.5 * (f.coef + np.conj(f.coef[::-1]))
    even = 0.5 * (sym + sym[::-1]).real
    g = PeriodicField(f.q, f.N, even.astype(np.complex128), real=True)
    return cosine_coefficients(g)


def _df_fourier_coeffs(model: ModelSpec, u: PeriodicField, N: int) -> np.ndarray:
    """Complex Fourier coefficients of f'(u) for modes -N..N."""
    big = resample(u, 2 * N + 4)
    w = pointwise_image(big, model.nonlinearity.df,
                        pad=model.nonlinearity.pad)
    half = w.N // 2
    return w.coef[half - N:half + N + 1]


def _newton_system(model: ModelSpec, d: np.ndarray, c: float, a_const: float,
                   N: int):
    """Residual vector and Jacobian of the bordered cosine-space system."""
    J = N // 2 - 1
    u = cosine_field(1, N, d)
    res_f = steady_residual_field(model, u, c, a_const)
    dcos = cosine_coefficients(res_f)
    R = dcos[:J + 1]

    lin, dlin_dc = model.energy_diag(model.kappa * np.arange(J + 1), c)
    dRdc = dlin_dc * d[:J + 1]

    w = _df_fourier_coeffs(model, u, N)[N:].real   # w_m, m >= 0; w_{-m} = w_m
    # Toeplitz plus Hankel; column 0 is 2 w_j, row 0 the mean row w_l
    j = np.arange(J + 1)
    B = w[np.abs(j[:, None] - j)] + w[j[:, None] + j]
    B[0] = w[:J + 1]
    A = np.diag(lin) + model.nl_sign * B
    return R, A, dRdc


def refine_newton(model: ModelSpec, guess: TravelingWave,
                  fix_amplitude: float | None = None,
                  fix_speed: float | None = None,
                  fix_a_const: float | None = None,
                  fix_mean: float | None = None,
                  tol_residual: float = NEWTON_TOL_RESIDUAL,
                  max_iter: int = NEWTON_MAX_ITER) -> TravelingWave:
    """Newton-refine a traveling-wave guess under two border constraints.

    The first constraint pins the amplitude (cos z coefficient) or the
    speed c; the second pins the integration constant (default, taken from
    the guess) or, with fix_mean, the profile mean while a_const floats.
    The bordered Jacobian is the cosine-space L of ``ModelSpec``
    (diag(energy_diag) + nl_sign times the f'(u_c) multiplication block),
    with two border rows for the constraints.
    """
    if (fix_amplitude is None) == (fix_speed is None):
        raise DomainError("exactly one of fix_amplitude / fix_speed must be set")
    if fix_mean is not None and fix_a_const is not None:
        raise DomainError("fix_mean and fix_a_const are mutually exclusive")
    N = guess.profile.N
    J = N // 2 - 1
    d = np.zeros(N // 2 + 1)
    d[:] = _even_projection(guess.profile)[:N // 2 + 1]
    c = float(guess.c)
    a_target = float(guess.a_const if fix_a_const is None else fix_a_const)
    a_const = a_target
    if fix_mean is not None:
        d[0] = fix_mean

    def sup_residual(dv, cv, av):
        return residual_norm(model, cosine_field(1, N, dv), cv, av)

    def constraint_defect(dv, cv, av):
        out = abs(dv[1] - fix_amplitude) if fix_amplitude is not None \
            else abs(cv - fix_speed)
        out += abs(dv[0] - fix_mean) if fix_mean is not None \
            else abs(av - a_target)
        return out

    def solved(res, dv, cv, av):
        return res < tol_residual and constraint_defect(dv, cv, av) < 1e-12

    history = [sup_residual(d, c, a_const)]
    if solved(history[0], d, c, a_const):
        prof = cosine_field(1, N, d)
        return TravelingWave(model, prof, c, a_const, float(d[1]),
                             residual=history[0], converged=True,
                             residual_history=history, newton_iterations=0)

    n_unknown = J + 3
    for it in range(1, max_iter + 1):
        R, A, dRdc = _newton_system(model, d, c, a_const, N)
        M = np.zeros((n_unknown, n_unknown))
        rhs = np.zeros(n_unknown)
        M[:J + 1, :J + 1] = A
        M[:J + 1, J + 1] = dRdc
        M[:J + 1, J + 2] = 0.0
        M[0, J + 2] = -1.0
        rhs[:J + 1] = -R
        # border rows: the two pinned parameters
        if fix_amplitude is not None:
            M[J + 1, 1] = 1.0
            rhs[J + 1] = fix_amplitude - d[1]
        else:
            M[J + 1, J + 1] = 1.0
            rhs[J + 1] = fix_speed - c
        if fix_mean is not None:
            M[J + 2, 0] = 1.0
            rhs[J + 2] = fix_mean - d[0]
        else:
            M[J + 2, J + 2] = 1.0
            rhs[J + 2] = a_target - a_const
        try:
            dx = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateJacobianError(
                f"singular bordered Jacobian at iteration {it}") from exc
        if not np.all(np.isfinite(dx)):
            raise DegenerateJacobianError(
                f"non-finite Newton update at iteration {it}")

        # damped update: halve on residual increase (never damp away the
        # border constraints on the first iterations)
        step = 1.0
        for _ in range(8):
            d_new = d.copy()
            d_new[:J + 1] += step * dx[:J + 1]
            c_new = c + step * dx[J + 1]
            a_new = a_const + step * dx[J + 2]
            r_new = sup_residual(d_new, c_new, a_new)
            if r_new <= max(history[-1], 10.0 * constraint_defect(d, c, a_const)) \
                    or step < 1e-2:
                break
            step *= 0.5
        d, c, a_const = d_new, c_new, a_new
        history.append(r_new)
        if solved(r_new, d, c, a_const):
            prof = cosine_field(1, N, d)
            return TravelingWave(model, prof, float(c), float(a_const),
                                 float(d[1]), residual=r_new, converged=True,
                                 residual_history=history,
                                 newton_iterations=it)
        if np.max(np.abs(dx)) * step < NEWTON_TOL_UPDATE:
            break
    raise DivergenceError(
        f"Newton failed to reach residual {tol_residual:g} in {max_iter} "
        f"iterations (last residual {history[-1]:.3e})", residual=history[-1])


def continue_in_amplitude(model: ModelSpec, wave: TravelingWave,
                          target_amplitude: float, steps: int) -> TravelingWave:
    """March the converged wave to a new amplitude, reusing prior solutions."""
    if steps == 0:
        return wave
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    a0 = wave.amplitude
    current = wave
    remaining = [a0 + (target_amplitude - a0) * (i + 1) / steps
                 for i in range(steps)]
    min_step = 1e-6 * max(1.0, abs(target_amplitude - a0))
    while remaining:
        a_next = remaining[0]
        try:
            current = refine_newton(model, current, fix_amplitude=a_next,
                                    fix_a_const=current.a_const)
            remaining.pop(0)
        except DivergenceError:
            a_mid = 0.5 * (current.amplitude + a_next)
            if abs(a_mid - current.amplitude) < min_step:
                raise ContinuationStallError(
                    f"continuation stalled near amplitude {current.amplitude:g}")
            remaining.insert(0, a_mid)
    return current


# -- diagnostics -----------------------------------------------------------------


def whitham_condition_margin(wave: TravelingWave) -> float:
    """c minus the sup of |f'(u_c)|: positive margin enables the smoothing case."""
    vals = wave.profile.values(4 * wave.profile.N)
    return float(wave.c - np.max(np.abs(wave.model.nonlinearity.df(vals))))


def spectral_decay_diagnostic(f: PeriodicField) -> float:
    """Least-squares slope of log|c_n| against n over the top half of the
    resolved (above relative noise floor 1e-14) positive modes."""
    half = f.N // 2
    mags = np.maximum(np.abs(f.coef[half + 1:]),
                      np.abs(f.coef[half - 1::-1][:half]))
    nz = np.nonzero(mags > 0.0)[0]
    if len(nz) < 8:
        raise InsufficientDataError(
            f"decay fit needs at least 8 nonzero modes, found {len(nz)}")
    peak = float(np.max(mags))
    resolved = np.nonzero(mags > 1e-14 * peak)[0]
    n_max = resolved[-1] + 1          # modes are 1-based here
    lo = max(1, int(np.ceil(n_max / 2)))
    ns = np.arange(lo, n_max + 1)
    ys = np.log(np.maximum(mags[ns - 1], 1e-300))
    if len(ns) < 2:
        raise InsufficientDataError("decay fit needs at least 2 resolved modes")
    slope = np.polyfit(ns, ys, 1)[0]
    return float(slope)


# -- persistence -------------------------------------------------------------------


def model_to_dict(model: ModelSpec) -> dict:
    return {
        "family": model.family,
        "symbol": model.symbol.name(),
        "symbol_shift": model.symbol.shift,
        "nonlinearity": model.nonlinearity.form,
        "p": model.nonlinearity.p,
        "kappa": model.kappa,
    }


def model_from_dict(d: dict) -> ModelSpec:
    sym = parse_symbol(d["symbol"])
    if d.get("symbol_shift"):
        from dataclasses import replace
        sym = replace(sym, shift=d["symbol_shift"])
    nl = NonlinearitySpec(d["nonlinearity"], p=d.get("p", 2.0))
    return ModelSpec(d["family"], sym, nl, kappa=d.get("kappa", 1.0))


def save_wave(wave: TravelingWave, basepath: str) -> dict:
    """Persist profile (binary) plus JSON sidecar; returns the sidecar dict."""
    save_field(wave.profile, str(basepath) + ".fld")
    sidecar = {
        "model": model_to_dict(wave.model),
        "c": wave.c,
        "a_const": wave.a_const,
        "amplitude": wave.amplitude,
        "residual": wave.residual,
        "converged": wave.converged,
        "whitham_margin": whitham_condition_margin(wave),
        "kernel_defect": kernel_defect(wave.model, wave),
    }
    with open(str(basepath) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return sidecar


def load_wave(basepath: str) -> TravelingWave:
    """Read a wave written by ``save_wave``; BadDataError when either file is
    missing or malformed, or the profile is not on T_{2 pi} (q = 1)."""
    try:
        with open(str(basepath) + ".json") as fh:
            sidecar = json.load(fh)
        model = model_from_dict(sidecar["model"])
        params = [float(sidecar[key])
                  for key in ("c", "a_const", "amplitude", "residual")]
        converged = bool(sidecar["converged"])
        profile = load_field(str(basepath) + ".fld")
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            DomainError) as exc:
        raise BadDataError(f"cannot load wave {basepath}: {exc}") from exc
    if profile.q != 1:
        raise BadDataError(f"cannot load wave {basepath}: the profile lives "
                           f"on T_(2 pi q) with q = {profile.q}, not q = 1")
    return TravelingWave(model, profile, *params, converged=converged)
