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

from dataclasses import dataclass, replace

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
        return {"kdv": "kdv", "benjamin_ono": "bo",
                "whitham": "whitham", "bbm_linear": "bbm"}[self.kind]


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
    """Nonlinearity f(u) with derivatives and antiderivative F, F(0) = 0.

    ``"quadratic"`` is an alias of ``"power"`` with p = 2 and is normalized
    on construction.  Power forms with non-integer exponent use the even
    extension u^p := |u|^p, matching the p = even/odd rational convention;
    its antiderivative is the odd extension sign(u)|u|^(p+1)/(p+1).
    """

    form: str    # "power" | "minus_power"
    p: float = 2.0

    def __post_init__(self):
        if self.form == "quadratic":
            object.__setattr__(self, "form", "power")
            object.__setattr__(self, "p", 2.0)
        if self.form not in ("power", "minus_power"):
            raise DomainError(f"unknown nonlinearity form {self.form!r}")
        if not self.p > 1:
            raise DomainError(f"power exponent must exceed 1, got {self.p}")

    @property
    def _sign(self) -> float:
        return -1.0 if self.form == "minus_power" else 1.0

    @property
    def _integer_p(self) -> bool:
        return float(self.p).is_integer()

    def _pow(self, u, q):
        # even-extension power |u|^q; q may be negative at isolated zeros
        with np.errstate(divide="ignore"):
            return np.abs(u) ** q

    def f(self, u):
        u = np.asarray(u, dtype=float)
        if self._integer_p:
            return self._sign * u ** int(self.p)
        return self._sign * self._pow(u, self.p)

    def df(self, u):
        u = np.asarray(u, dtype=float)
        p = self.p
        if self._integer_p:
            return self._sign * p * u ** (int(p) - 1)
        return self._sign * p * self._pow(u, p - 1.0) * np.sign(u)

    def d2f(self, u):
        u = np.asarray(u, dtype=float)
        p = self.p
        if self._integer_p:
            return self._sign * p * (p - 1.0) * u ** (int(p) - 2)
        return self._sign * p * (p - 1.0) * self._pow(u, p - 2.0)

    def d3f(self, u):
        u = np.asarray(u, dtype=float)
        p = self.p
        if int(self.p) < 3 and self._integer_p:
            return np.zeros_like(u)
        if self._integer_p:
            return self._sign * p * (p - 1.0) * (p - 2.0) * u ** (int(p) - 3)
        return self._sign * p * (p - 1.0) * (p - 2.0) * self._pow(u, p - 3.0) * np.sign(u)

    def F(self, u):
        u = np.asarray(u, dtype=float)
        p = self.p
        if self._integer_p:
            return self._sign * u ** (int(p) + 1) / (p + 1.0)
        return self._sign * np.sign(u) * self._pow(u, p + 1.0) / (p + 1.0)


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


def parse_symbol(name: str) -> SymbolSpec:
    """Parse a config symbol name: kdv, bo, frac:m=1.5, whitham, ilw:H=1.0, bbm."""
    base, _, arg = name.strip().partition(":")
    base = base.lower()
    try:
        if base == "kdv":
            return SymbolSpec("kdv")
        if base == "bo":
            return SymbolSpec("benjamin_ono")
        if base == "whitham":
            return SymbolSpec("whitham")
        if base == "bbm":
            return SymbolSpec("bbm_linear")
        if base == "frac":
            key, _, val = arg.partition("=")
            if key != "m":
                raise DomainError(f"fractional symbol takes m=<exponent>, got {name!r}")
            return SymbolSpec("fractional", m=float(val))
        if base == "ilw":
            key, _, val = arg.partition("=")
            if key != "H":
                raise DomainError(f"ilw symbol takes H=<depth>, got {name!r}")
            return SymbolSpec("ilw", H=float(val))
    except ValueError as exc:
        raise DomainError(f"bad numeric parameter in symbol name {name!r}") from exc
    raise DomainError(f"unknown symbol name {name!r}")


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
