"""Periodic fields as truncated Fourier series, transforms, and wave packets.

A field on the torus of circumference 2*pi*q keeps the complex coefficients
c_n of e^{i n x / q} for |n| <= N/2 in a centered array.  The highest modes
n = +-N/2 are kept at zero (oddball convention) so the derivative stays
skew-symmetric on the grid.  Inner products use <f, g> = integral of f
conj(g) over the torus, so ||e^{i xi_n x}||_L2 = sqrt(2 pi q).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadDataError, DomainError, GridMismatchError
from .symbols import SymbolSpec, evaluate_symbol

_TWO_PI = 2.0 * np.pi


def _check_even(N: int):
    if N < 2 or N % 2 != 0:
        raise DomainError(f"truncation N must be even and >= 2, got {N}")


@dataclass
class PeriodicField:
    """Truncated Fourier representation of a function on T_{2 pi q}."""

    q: int
    N: int
    coef: np.ndarray   # complex128, length N+1, entry j holds mode n = j - N/2
    real: bool = True

    def __post_init__(self):
        _check_even(self.N)
        if self.q < 1:
            raise DomainError(f"period multiple q must be >= 1, got {self.q}")
        self.coef = np.asarray(self.coef, dtype=np.complex128)
        if self.coef.shape != (self.N + 1,):
            raise DomainError("coefficient array must have length N + 1")
        # oddball convention
        self.coef[0] = 0.0
        self.coef[-1] = 0.0

    # -- structure ---------------------------------------------------------

    def modes(self) -> np.ndarray:
        return np.arange(-(self.N // 2), self.N // 2 + 1)

    def xi(self) -> np.ndarray:
        """Grid frequencies n/q."""
        return self.modes() / self.q

    def mode(self, n: int) -> complex:
        return complex(self.coef[n + self.N // 2])

    def set_mode(self, n: int, value: complex):
        self.coef[n + self.N // 2] = value

    def copy(self) -> "PeriodicField":
        return PeriodicField(self.q, self.N, self.coef.copy(), self.real)

    def hermitian_defect(self) -> float:
        """Max |c_{-n} - conj(c_n)|; zero for honestly real fields."""
        return float(np.max(np.abs(self.coef[::-1] - np.conj(self.coef))))

    def symmetrize(self):
        """Project onto Hermitian-symmetric coefficients (real field)."""
        self.coef = 0.5 * (self.coef + np.conj(self.coef[::-1]))
        self.real = True
        return self

    # -- evaluation and transforms -----------------------------------------

    def values(self, M: int | None = None) -> np.ndarray:
        """Collocation values at x_i = 2 pi q i / M (default M = 2N)."""
        if M is None:
            M = 2 * self.N
        if M <= self.N:
            raise DomainError("collocation size must exceed the truncation")
        spread = np.zeros(M, dtype=np.complex128)
        n = self.modes()
        spread[n % M] = self.coef
        vals = np.fft.ifft(spread) * M
        return vals.real if self.real else vals

    def grid(self, M: int | None = None) -> np.ndarray:
        if M is None:
            M = 2 * self.N
        return _TWO_PI * self.q * np.arange(M) / M

    # -- algebra -------------------------------------------------------------

    def _binary(self, other: "PeriodicField", op) -> "PeriodicField":
        if not isinstance(other, PeriodicField):
            return NotImplemented
        if (self.q, self.N) != (other.q, other.N):
            raise GridMismatchError("fields on different grids")
        return PeriodicField(self.q, self.N, op(self.coef, other.coef),
                             self.real and other.real)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        s = complex(scalar)
        return PeriodicField(self.q, self.N, self.coef * s,
                             self.real and s.imag == 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


# -- constructors ------------------------------------------------------------

def zero_field(q: int, N: int, real: bool = True) -> PeriodicField:
    return PeriodicField(q, N, np.zeros(N + 1, dtype=np.complex128), real)


def field_from_values(vals: np.ndarray, q: int, N: int) -> PeriodicField:
    """Build a field from collocation values (length must exceed N)."""
    vals = np.asarray(vals)
    M = len(vals)
    if M <= N:
        raise DomainError("need more collocation points than retained modes")
    hat = np.fft.fft(vals) / M
    n = np.arange(-(N // 2), N // 2 + 1)
    coef = hat[n % M]
    return PeriodicField(q, N, coef, real=bool(np.isrealobj(vals)))


def cosine_field(q: int, N: int, cos_coeffs: np.ndarray) -> PeriodicField:
    """Even real field from cosine coefficients d_j of cos(j x / q), j >= 0."""
    f = zero_field(q, N)
    d = np.asarray(cos_coeffs, dtype=float)
    f.set_mode(0, d[0])
    for j in range(1, min(len(d), N // 2)):
        f.set_mode(j, d[j] / 2.0)
        f.set_mode(-j, d[j] / 2.0)
    return f


def cosine_coefficients(f: PeriodicField) -> np.ndarray:
    """Cosine coefficients d_j (j = 0 .. N/2) of an even real field."""
    half = f.coef[f.N // 2:]
    d = 2.0 * half.real
    d[0] = half[0].real
    return d


def _lift_eigenfunction(v: PeriodicField, p: int, q: int, N_big: int) -> np.ndarray:
    """Coefficients of e^{i (p/q) z} v(z) on the 2 pi q torus, truncated to
    N_big; with q = 1, p = 0 this re-truncates or zero-extends v to N_big."""
    out = np.zeros(N_big + 1, dtype=np.complex128)
    idx = v.modes() * q + p
    keep = np.abs(idx) <= N_big // 2
    out[idx[keep] + N_big // 2] = v.coef[keep]
    out[0] = 0.0
    out[-1] = 0.0
    return out


def hermitian_full(half: np.ndarray) -> np.ndarray:
    """Centered coefficients of the real field whose modes n = 0 .. N/2 are
    ``half`` (last axis): c_{-n} = conj(c_n)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


# -- norms and inner products -------------------------------------------------

def inner(f: PeriodicField, g: PeriodicField) -> complex:
    """<f, g> = integral over T_{2 pi q} of f conj(g)."""
    if (f.q, f.N) != (g.q, g.N):
        raise GridMismatchError("fields on different grids")
    return complex(_TWO_PI * f.q * np.sum(f.coef * np.conj(g.coef)))


def sobolev_norm(f: PeriodicField, s: float = 0.0, k: float = 0.0) -> float:
    """H^s norm with Bloch shift k: weights (1 + |xi_n + k|^2)^s."""
    w = (1.0 + (f.xi() + k) ** 2) ** s
    return float(np.sqrt(_TWO_PI * f.q * np.sum(w * np.abs(f.coef) ** 2)))


def l2_norm(f: PeriodicField) -> float:
    return sobolev_norm(f, 0.0)


# -- multipliers and products --------------------------------------------------

def apply_multiplier(f: PeriodicField, spec: SymbolSpec, k: float = 0.0,
                     kappa: float = 1.0) -> PeriodicField:
    """Apply the Fourier multiplier with symbol alpha(kappa * (xi_n + k)).

    Realness survives only at k = 0 (even symbol); otherwise the result is
    marked complex.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"Bloch shift must lie in [0, 1], got {k}")
    mult = evaluate_symbol(spec, kappa * (f.xi() + k))
    return PeriodicField(f.q, f.N, f.coef * mult, real=f.real and k == 0.0)


def derivative(f: PeriodicField, kappa: float = 1.0) -> PeriodicField:
    """kappa * d/dx on the torus: c_n -> i kappa (n/q) c_n."""
    return PeriodicField(f.q, f.N, f.coef * (1j * kappa * f.xi()), real=f.real)


def dealiased_product(f: PeriodicField, g: PeriodicField) -> PeriodicField:
    """Exact truncated product via zero-padded transforms (pad factor 2)."""
    if (f.q, f.N) != (g.q, g.N):
        raise GridMismatchError("fields on different grids")
    M = 2 * f.N
    vals = f.values(M) * g.values(M)
    out = field_from_values(vals, f.q, f.N)
    out.real = f.real and g.real
    return out


def pointwise_image(f: PeriodicField, func, pad: float = 2.0) -> PeriodicField:
    """Field of func(f(x)) sampled on a grid padded by the given factor.

    Exact for polynomial func of degree <= 2*pad - 1; otherwise the padding
    just pushes aliasing into the discarded modes.
    """
    M = int(np.ceil(pad * f.N))
    M += M % 2
    M = max(M, 2 * f.N)
    vals = func(f.values(M))
    out = field_from_values(vals, f.q, f.N)
    out.real = f.real and bool(np.isrealobj(vals))
    return out


# -- wave packets ---------------------------------------------------------------

@dataclass
class WavePacket:
    """Band of Bloch eigenprofiles with midpoint quadrature nodes.

    Nodes sit on the commensurate lattice j/Q; each node is the midpoint of a
    cell of width 1/Q, and the band is the union of the cells.
    """

    k_lo: float
    k_hi: float
    nodes: np.ndarray              # descending or ascending k_j, each in (1/Q)Z
    weights: np.ndarray            # quadrature weights, sum = |I|
    profiles: list = dc_field(default_factory=list)   # PeriodicField on T_{2 pi}

    def width(self) -> float:
        return self.k_hi - self.k_lo

    def check(self, tol: float = 1e-12):
        w = float(np.sum(self.weights))
        if abs(w - self.width()) > tol * max(1.0, self.width()):
            raise DomainError("quadrature weights do not sum to the band width")
        if np.any(self.nodes < self.k_lo - tol) or np.any(self.nodes > self.k_hi + tol):
            raise DomainError("node outside the band")


def midpoint_band_nodes(k_right: float, n_nodes: int, Q: int) -> WavePacket:
    """Band of n_nodes cells ending at the lattice point nearest k_right."""
    if n_nodes < 1:
        raise DomainError("need at least one node")
    j_max = int(round(k_right * Q))
    js = j_max - np.arange(n_nodes)[::-1]
    if js[0] < 1:
        raise DomainError("band extends below k = 0")
    nodes = js / Q
    weights = np.full(n_nodes, 1.0 / Q)
    return WavePacket(k_lo=float(nodes[0] - 0.5 / Q), k_hi=float(nodes[-1] + 0.5 / Q),
                      nodes=nodes, weights=weights)


def synthesize_packet(packet: WavePacket, Q: int) -> PeriodicField:
    """Real field 2 Re sum_j w_j v1(k_j, x) e^{i k_j x} on T_{2 pi Q}."""
    if len(packet.profiles) != len(packet.nodes):
        raise DomainError("packet needs one profile per node")
    if not packet.profiles:
        raise DomainError("empty packet")
    Np = max(p.N for p in packet.profiles)
    N_big = Q * Np + 2 * Q
    half = N_big // 2
    idx, vals = [], []
    for k_j, w_j, prof in zip(packet.nodes, packet.weights, packet.profiles):
        mj = k_j * Q
        if abs(mj - round(mj)) > 1e-9:
            raise DomainError(
                f"node k = {k_j} not commensurate with Q = {Q}; increase Q")
        if prof.q != 1:
            raise DomainError("packet profiles must live on T_{2 pi}")
        idx.append(Q * prof.modes() + int(round(mj)))
        vals.append(w_j * prof.coef)
    idx, vals = np.concatenate(idx), np.concatenate(vals)
    keep = np.abs(idx) <= half
    acc = np.zeros(N_big + 1, dtype=np.complex128)
    np.add.at(acc, idx[keep] + half, vals[keep])
    out = acc + np.conj(acc[::-1])
    return PeriodicField(Q, N_big, out, real=True)


def bloch_decompose(f: PeriodicField, q: int = 1):
    """Split a big-torus field into Bloch components u_{k_j} on T_{2 pi q}.

    Returns a list of (k_j, PeriodicField) with k_j = j/Q, j = 0 .. Q/q - 1;
    coefficients are re-indexed exactly, so synthesize/decompose round-trips.
    """
    Q = f.q
    if Q % q != 0:
        raise DomainError(f"sub-period q = {q} must divide the torus multiple Q = {Q}")
    r_count = Q // q
    N_sub = 2 * (f.N // (2 * r_count) + 2)
    half_sub = N_sub // 2
    half = f.N // 2
    idx = np.arange(-half, half + 1)
    r = idx % r_count
    # |n| <= ceil(half / r_count) < half_sub, so every mode has a slot
    n = (idx - r) // r_count
    block = np.zeros((r_count, N_sub + 1), dtype=np.complex128)
    block[r, n + half_sub] += f.coef
    return [(j / Q, PeriodicField(q, N_sub, block[j], real=False))
            for j in range(r_count)]


# -- persistence ----------------------------------------------------------------

_MAGIC = b"MDLNFLD1"


def csv_float(x) -> str:
    """Shortest round-trip decimal form of a scalar, for deterministic CSVs."""
    return repr(float(x))


def write_csv(path, header: str, columns, rows):
    """A CSV file: the ``header`` line block, the column-name line, then one
    ``csv_float`` line per row."""
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(csv_float(v) for v in row) + "\n")


def save_field(f: PeriodicField, path):
    """Binary snapshot: magic + (q, N, realness) as 8-byte LE ints + re/im f64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqq", f.q, f.N, 1 if f.real else 0))
        inter = np.empty((f.N + 1, 2), dtype="<f8")
        inter[:, 0] = f.coef.real
        inter[:, 1] = f.coef.imag
        fh.write(inter.tobytes())


def load_field(path) -> PeriodicField:
    """Read a snapshot written by ``save_field``; BadDataError on a wrong
    magic, a short header, an invalid grid, a realness flag other than 0
    or 1, a payload of the wrong size or a non-finite coefficient."""
    n_head = len(_MAGIC) + 24
    with open(path, "rb") as fh:
        head = fh.read(n_head)
        if head[:len(_MAGIC)] != _MAGIC:
            raise BadDataError(f"not a field snapshot: {path}")
        if len(head) < n_head:
            raise BadDataError(f"truncated snapshot header: {path}")
        q, N, realness = struct.unpack("<qqq", head[len(_MAGIC):])
        if q < 1 or N < 2 or N % 2 != 0:
            raise BadDataError(f"invalid grid q = {q}, N = {N} in {path}")
        if realness not in (0, 1):
            raise BadDataError(f"realness flag {realness} is not 0 or 1 "
                               f"in {path}")
        # sized from the file, so a corrupt N never sizes a read
        payload = os.fstat(fh.fileno()).st_size - n_head
        if payload != 16 * (N + 1):
            raise BadDataError(f"{path} holds {payload} payload bytes, "
                               f"N = {N} needs {16 * (N + 1)}")
        raw = np.frombuffer(fh.read(payload), dtype="<f8").reshape(N + 1, 2)
        if not np.all(np.isfinite(raw)):
            raise BadDataError(f"non-finite coefficient in {path}")
        coef = raw[:, 0] + 1j * raw[:, 1]
        return PeriodicField(int(q), int(N), coef.copy(), real=bool(realness))

