"""Dispersive symbols, nonlinearities, and model descriptors.

The catalog covers the usual suspects of the KdV family together with the
linear BBM multiplier:

    kdv           xi^2
    benjamin_ono  |xi|
    fractional    |xi|^m          (m > 1/2)
    whitham       sqrt(tanh(xi)/xi)
    ilw           xi*coth(xi*H) - 1/H
    bbm_linear    1/(1 + xi^2)

All symbols are evaluated through |xi| so evenness holds exactly on any
grid.  Removable singularities at xi = 0 are handled by series branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import partialmethod

import numpy as np

from .errors import DomainError

SYMBOL_KINDS = ("kdv", "benjamin_ono", "fractional", "whitham", "ilw", "bbm_linear")

# |xi| below which the series branch replaces the closed form
_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class SymbolSpec:
    """A dispersive Fourier multiplier alpha(xi) with classification metadata.

    ``shift`` is the constant already split off the raw symbol, so evaluation
    returns ``alpha_raw(xi) - shift``.  Downstream bookkeeping replaces the
    traveling speed c by c - shift, which leaves every operator of the form
    alpha - c unchanged.
    """

    kind: str
    m: float = 0.0       # fractional exponent, used only for kind="fractional"
    H: float = 1.0       # depth, used only for kind="ilw"
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in SYMBOL_KINDS:
            raise DomainError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "fractional" and not self.m > 0.5:
            raise DomainError(f"fractional exponent must exceed 1/2, got {self.m}")
        if self.kind == "ilw" and not self.H > 0:
            raise DomainError(f"ilw depth must be positive, got {self.H}")

    def name(self) -> str:
        if self.kind == "fractional":
            return f"frac:m={self.m:g}"
        if self.kind == "ilw":
            return f"ilw:H={self.H:g}"
        return next(k for k, v in _PLAIN_NAMES.items() if v == self.kind)


@dataclass(frozen=True)
class Classification:
    """Tail behaviour of a symbol: alpha ~ |xi|^m (differential) or |xi|^-m."""

    branch: str   # "differential" | "smoothing"
    m: float


def _raw_symbol(kind: str, m: float, H: float, xi: np.ndarray) -> np.ndarray:
    a = np.abs(xi)
    if kind == "kdv":
        return a * a
    if kind == "benjamin_ono":
        return a
    if kind == "fractional":
        return a ** m
    if kind == "whitham":
        # tanh(x)/x -> 1 - x^2/3, so sqrt -> 1 - x^2/6 near 0
        out = np.empty_like(a)
        small = a < _SERIES_CUTOFF
        out[small] = 1.0 - a[small] ** 2 / 6.0
        xs = a[~small]
        out[~small] = np.sqrt(np.tanh(xs) / xs)
        return out
    if kind == "ilw":
        # xi*coth(xi*H) - 1/H = xi^2*H/3 - xi^4*H^3/45 + ... near 0
        out = np.empty_like(a)
        y = a * H
        small = a < _SERIES_CUTOFF
        out[small] = a[small] ** 2 * H / 3.0 - a[small] ** 4 * H ** 3 / 45.0
        big = y > 30.0
        out[big] = a[big] - 1.0 / H
        mid = ~(small | big)
        out[mid] = a[mid] / np.tanh(y[mid]) - 1.0 / H
        return out
    if kind == "bbm_linear":
        return 1.0 / (1.0 + a * a)
    raise DomainError(f"unknown symbol kind {kind!r}")


def evaluate_symbol(spec: SymbolSpec, xi):
    """Evaluate alpha(xi) - shift; accepts scalars or arrays, even in xi."""
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("symbol evaluation requires finite frequencies")
    out = _raw_symbol(spec.kind, spec.m, spec.H, np.atleast_1d(arr)) - spec.shift
    if np.isscalar(xi) or arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


_CLASSIFICATION = {
    "kdv": ("differential", 2.0),
    "benjamin_ono": ("differential", 1.0),
    "ilw": ("differential", 1.0),
    "whitham": ("smoothing", 0.5),
    "bbm_linear": ("smoothing", 2.0),
}


def classify_symbol(spec: SymbolSpec) -> Classification:
    """Return the growth/decay branch and analytic tail exponent of the kind."""
    if spec.kind == "fractional":
        return Classification("differential", spec.m)
    return Classification(*_CLASSIFICATION[spec.kind])


def positive_shift(spec: SymbolSpec, grid_max_xi: float, samples: int = 4097):
    """Split off c1 so the shifted symbol is >= 1 on [0, grid_max_xi].

    c1 is the grid infimum minus one; the caller must replace c by c - c1.
    """
    if not grid_max_xi > 0:
        raise DomainError("grid_max_xi must be positive")
    grid = np.linspace(0.0, grid_max_xi, samples)
    c1 = float(np.min(evaluate_symbol(spec, grid))) - 1.0
    return replace(spec, shift=spec.shift + c1), c1


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity f(u) = sign u^p with derivatives and antiderivative F.

    ``"quadratic"`` is an alias of ``"power"`` with p = 2.  Construction
    settles ``sign`` (-1 for ``"minus_power"``), ``degree`` (int(p) for a
    polynomial f, None for non-integer p) and ``pad``, the transform padding
    for products with f: a degree-p polynomial is alias-free on
    max(2, ceil((p + 1)/2)) N points, and a non-integer power, which is not
    band-limited, gets 4N.  The methods are one falling-factorial rule,
    d^k/du^k u^p = p (p - 1) ... (p - k + 1) u^(p - k), with F (F(0) = 0)
    the k = -1 case.  Non-integer powers use the even extension |u|^p
    (the p = even/odd rational convention), so odd orders and F carry
    sign(u).
    """

    form: str    # "power" | "minus_power"
    p: float = 2.0
    sign: float = dc_field(init=False, repr=False, compare=False)
    degree: int | None = dc_field(init=False, repr=False, compare=False)
    pad: float = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.form == "quadratic":
            object.__setattr__(self, "form", "power")
            object.__setattr__(self, "p", 2.0)
        if self.form not in ("power", "minus_power"):
            raise DomainError(f"unknown nonlinearity form {self.form!r}")
        if not self.p > 1:
            raise DomainError(f"power exponent must exceed 1, got {self.p}")
        degree = int(self.p) if float(self.p).is_integer() else None
        object.__setattr__(self, "sign", -1.0 if self.form == "minus_power" else 1.0)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "pad", 4.0 if degree is None
                           else max(2.0, np.ceil((self.p + 1.0) / 2.0)))

    def _power_rule(self, u, k: int):
        """sign d^k/du^k u^p for k = 0 .. 3; k = -1 gives F."""
        u = np.asarray(u, dtype=float)
        coef = self.sign
        for j in range(k):
            coef = coef * (self.p - j)
        if self.degree is None:
            # |u|^(p-k) is infinite at isolated zeros when k > p
            with np.errstate(divide="ignore"):
                out = np.abs(u) ** (self.p - k)
        elif self.degree < k:
            return np.zeros_like(u)
        else:
            out = u ** (self.degree - k)
        if coef != 1.0:           # f runs 4 times per ETDRK4 step: no x1 pass
            out = coef * out
        if self.degree is None and k % 2:
            out = out * np.sign(u)
        return out / (self.p + 1.0) if k < 0 else out

    f = partialmethod(_power_rule, k=0)
    df = partialmethod(_power_rule, k=1)
    d2f = partialmethod(_power_rule, k=2)
    d3f = partialmethod(_power_rule, k=3)
    F = partialmethod(_power_rule, k=-1)


@dataclass(frozen=True)
class ModelSpec:
    """A model equation: family, dispersive symbol, nonlinearity, wavenumber.

    ``kappa`` is the wavenumber of the underlying physical wave; profiles live
    on the normalized 2*pi torus and every operator sees the physical
    frequencies kappa*(n + k).  kappa = 1 reproduces the plain conventions.
    """

    family: str  # "kdv_type" | "bbm"
    symbol: SymbolSpec
    nonlinearity: NonlinearitySpec
    kappa: float = 1.0

    def __post_init__(self):
        if self.family not in ("kdv_type", "bbm"):
            raise DomainError(f"unknown model family {self.family!r}")
        if (self.family == "bbm") != (self.symbol.kind == "bbm_linear"):
            raise DomainError("bbm family pairs only with the bbm_linear symbol")
        if not self.kappa > 0:
            raise DomainError("kappa must be positive")

    # The linearization at a wave of speed c is A = J L with the skew
    # multiplier J = j_symbol(xi) and the self-adjoint
    # L = diag(energy_diag(xi, c)[0]) + nl_sign * f'(u_c); the full
    # equation reads dU/dt = J (E U + nl_sign f(U)), E = energy_diag(xi, c)[0].

    def j_symbol(self, xi):
        """J: i xi (kdv_type) or i xi / (1 + xi^2) (bbm)."""
        if self.family == "bbm":
            return 1j * xi / (1.0 + xi ** 2)
        return 1j * xi

    def energy_diag(self, xi, c: float):
        """Diagonal of L and its c-derivative: (alpha(xi) - c, -1) for
        kdv_type, (c (1 + xi^2) - 1, 1 + xi^2) for bbm."""
        if self.family == "bbm":
            s2 = 1.0 + xi ** 2
            return c * s2 - 1.0, s2
        return evaluate_symbol(self.symbol, xi) - c, -1.0

    @property
    def nl_sign(self) -> float:
        """Sign of f in L: +1 for kdv_type, -1 for bbm."""
        return -1.0 if self.family == "bbm" else 1.0


# config names of the symbol kinds; frac and ilw carry one parameter
_PLAIN_NAMES = {"kdv": "kdv", "bo": "benjamin_ono", "whitham": "whitham",
                "bbm": "bbm_linear"}
_PARAM_NAMES = {"frac": ("fractional", "m"), "ilw": ("ilw", "H")}


def parse_symbol(name: str) -> SymbolSpec:
    """Parse a config symbol name: kdv, bo, frac:m=1.5, whitham, ilw:H=1.0, bbm."""
    base, _, arg = name.strip().partition(":")
    base = base.lower()
    if base in _PLAIN_NAMES:
        return SymbolSpec(_PLAIN_NAMES[base])
    if base not in _PARAM_NAMES:
        raise DomainError(f"unknown symbol name {name!r}")
    kind, param = _PARAM_NAMES[base]
    key, _, val = arg.partition("=")
    if key != param:
        raise DomainError(f"{kind} symbol takes {param}=<value>, got {name!r}")
    try:
        return SymbolSpec(kind, **{param: float(val)})
    except ValueError as exc:
        raise DomainError(f"bad numeric parameter in symbol name {name!r}") from exc


def catalog_symbols() -> list[SymbolSpec]:
    """One representative of every kind, used by null-spectrum sweeps."""
    return [
        SymbolSpec("kdv"),
        SymbolSpec("benjamin_ono"),
        SymbolSpec("fractional", m=1.5),
        SymbolSpec("whitham"),
        SymbolSpec("ilw", H=1.0),
        SymbolSpec("bbm_linear"),
    ]


def model_for_symbol(sym: SymbolSpec, nonlinearity: NonlinearitySpec | None = None,
                     kappa: float = 1.0) -> ModelSpec:
    """Wrap a symbol in the matching family with a default f(u) = u^2."""
    family = "bbm" if sym.kind == "bbm_linear" else "kdv_type"
    if nonlinearity is None:
        nonlinearity = NonlinearitySpec("quadratic")
    return ModelSpec(family, sym, nonlinearity, kappa=kappa)
