from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modulon import (Classification, ModelSpec, NonlinearitySpec, SymbolSpec,
                     catalog_symbols, classify_symbol, evaluate_symbol,
                     parse_symbol, positive_shift)
from modulon.errors import DomainError
from modulon.symbols import SYMBOL_KINDS


def test_whitham_limit_at_zero():
    assert evaluate_symbol(SymbolSpec("whitham"), 0.0) == 1.0


def test_benjamin_ono_at_three():
    assert evaluate_symbol(SymbolSpec("benjamin_ono"), 3.0) == 3.0


def test_ilw_limit_at_zero():
    # series coth(xi) = 1/xi + xi/3 + ..., so xi*coth(xi) - 1 -> 0
    assert abs(evaluate_symbol(SymbolSpec("ilw", H=1.0), 0.0)) < 1e-15


def test_fractional_m2():
    assert evaluate_symbol(SymbolSpec("fractional", m=2.0), 2.0) == 4.0


def test_series_branch_matches_closed_form():
    # just below the cutoff the series branch must agree with the closed form
    x = 0.99e-4
    lo = evaluate_symbol(SymbolSpec("whitham"), x)
    assert abs(lo - np.sqrt(np.tanh(x) / x)) < 1e-13
    for H in (1.0, 3.0):
        lo = evaluate_symbol(SymbolSpec("ilw", H=H), x)
        assert abs(lo - (x / np.tanh(x * H) - 1.0 / H)) < 1e-13


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        evaluate_symbol(SymbolSpec("kdv"), np.nan)
    with pytest.raises(DomainError):
        evaluate_symbol(SymbolSpec("kdv"), np.inf)


def test_evenness_exact_on_grid():
    pos = np.linspace(1e-6, 100.0, 1000)
    xi = np.concatenate([-pos[::-1], [0.0], pos])
    for spec in catalog_symbols():
        vals = evaluate_symbol(spec, xi)
        assert np.max(np.abs(vals - vals[::-1])) == 0.0


@pytest.mark.parametrize("kind,branch,m", [
    ("kdv", "differential", 2.0),
    ("whitham", "smoothing", 0.5),
    ("benjamin_ono", "differential", 1.0),
    ("ilw", "differential", 1.0),
    ("bbm_linear", "smoothing", 2.0),
])
def test_classification(kind, branch, m):
    cls = classify_symbol(SymbolSpec(kind))
    assert cls == Classification(branch, m)


def test_classification_fractional():
    assert classify_symbol(SymbolSpec("fractional", m=1.5)) == \
        Classification("differential", 1.5)


def test_tail_sandwich():
    # alpha(xi) / |xi|^(+-m) within [0.5, 2] on xi in [10, 100]
    xi = np.linspace(10.0, 100.0, 181)
    for spec in catalog_symbols():
        cls = classify_symbol(spec)
        vals = evaluate_symbol(spec, xi)
        ratio = vals / xi ** cls.m if cls.branch == "differential" \
            else vals * xi ** cls.m
        assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0), spec.kind


def test_positive_shift_kdv():
    shifted, c1 = positive_shift(SymbolSpec("kdv"), 50.0)
    assert c1 == -1.0
    assert evaluate_symbol(shifted, 3.0) == 10.0   # xi^2 + 1


def test_positive_shift_whitham_tail():
    shifted, c1 = positive_shift(SymbolSpec("whitham"), 400.0)
    # tail infimum of sqrt(tanh xi / xi) tends to 0
    assert -1.0 < c1 < -0.9


def test_positive_shift_synthetic_min_two():
    # a symbol whose grid minimum is 2 must shift by exactly 1
    base = SymbolSpec("kdv", shift=-2.0)    # xi^2 + 2
    shifted, c1 = positive_shift(base, 10.0)
    assert abs(c1 - 1.0) < 1e-12
    grid = np.linspace(0, 10, 101)
    assert np.min(evaluate_symbol(shifted, grid)) >= 1.0 - 1e-12


def test_shift_invariant_everywhere():
    for spec in catalog_symbols():
        shifted, c1 = positive_shift(spec, 64.0)
        grid = np.linspace(0.0, 64.0, 257)
        assert np.min(evaluate_symbol(shifted, grid)) >= 1.0 - 1e-12


def test_fractional_exponent_validation():
    with pytest.raises(DomainError):
        SymbolSpec("fractional", m=0.5)
    with pytest.raises(DomainError):
        SymbolSpec("ilw", H=-1.0)


def test_nonlinearity_consistency():
    # |(F(u+h) - F(u))/h - f(u)| <= 1e-5 for h = 1e-6, u in [-2, 2]
    h = 1e-6
    us = np.linspace(-2.0, 2.0, 10)
    for nl in (NonlinearitySpec("quadratic"),
               NonlinearitySpec("power", p=3.0),
               NonlinearitySpec("minus_power", p=2.0),
               NonlinearitySpec("minus_power", p=2.4)):
        fd = (nl.F(us + h) - nl.F(us)) / h
        assert np.max(np.abs(fd - nl.f(us))) <= 1e-5
        assert nl.f(0.0) == 0.0
        assert nl.F(0.0) == 0.0


def test_derivative_consistency():
    h = 1e-6
    us = np.linspace(-2.0, 2.0, 11)
    us = us[np.abs(us) > 0.1]
    for nl in (NonlinearitySpec("quadratic"),
               NonlinearitySpec("minus_power", p=3.0),
               NonlinearitySpec("minus_power", p=2.4)):
        fd = (nl.f(us + h) - nl.f(us - h)) / (2 * h)
        assert np.max(np.abs(fd - nl.df(us))) <= 1e-4
        fd2 = (nl.df(us + h) - nl.df(us - h)) / (2 * h)
        assert np.max(np.abs(fd2 - nl.d2f(us))) <= 1e-3


def test_even_extension_power():
    nl = NonlinearitySpec("minus_power", p=2.4)
    assert nl.f(-1.5) == nl.f(1.5)          # q even / n odd convention
    nl3 = NonlinearitySpec("minus_power", p=3.0)
    assert nl3.f(-2.0) == -nl3.f(2.0)       # integer powers stay literal


class _BranchyNonlinearity:
    """The per-method, per-case forms that the power rule replaced, kept as
    a bitwise reference."""

    def __init__(self, form, p):
        self.p = p
        self.sign = -1.0 if form == "minus_power" else 1.0
        self.integer = float(p).is_integer()

    def _pow(self, u, q):
        with np.errstate(divide="ignore"):
            return np.abs(u) ** q

    def f(self, u):
        if self.integer:
            return self.sign * u ** int(self.p)
        return self.sign * self._pow(u, self.p)

    def df(self, u):
        p = self.p
        if self.integer:
            return self.sign * p * u ** (int(p) - 1)
        return self.sign * p * self._pow(u, p - 1.0) * np.sign(u)

    def d2f(self, u):
        p = self.p
        if self.integer:
            return self.sign * p * (p - 1.0) * u ** (int(p) - 2)
        return self.sign * p * (p - 1.0) * self._pow(u, p - 2.0)

    def d3f(self, u):
        p = self.p
        if int(p) < 3 and self.integer:
            return np.zeros_like(u)
        if self.integer:
            return self.sign * p * (p - 1.0) * (p - 2.0) * u ** (int(p) - 3)
        return (self.sign * p * (p - 1.0) * (p - 2.0) * self._pow(u, p - 3.0)
                * np.sign(u))

    def F(self, u):
        p = self.p
        if self.integer:
            return self.sign * u ** (int(p) + 1) / (p + 1.0)
        return self.sign * np.sign(u) * self._pow(u, p + 1.0) / (p + 1.0)


@pytest.mark.parametrize("form", ["power", "minus_power"])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5, 7.0 / 3.0])
def test_power_rule_matches_branchy_forms_bitwise(form, p):
    u = np.array([0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 1.7, -2.9, 1e-9, -1e-9])
    nl, ref = NonlinearitySpec(form, p=p), _BranchyNonlinearity(form, p)
    for name in ("f", "df", "d2f", "d3f", "F"):
        with np.errstate(invalid="ignore"):
            got, want = getattr(nl, name)(u), getattr(ref, name)(u)
        # non-integer d3f is 0 * inf = nan at u = 0 in both forms
        assert np.array_equal(got, want, equal_nan=True), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("p, degree, pad", [
    (2.0, 2, 2.0), (3.0, 3, 2.0), (4.0, 4, 3.0), (5.0, 5, 3.0),
    (2.5, None, 4.0), (7.0 / 3.0, None, 4.0)])
def test_nonlinearity_degree_and_pad(p, degree, pad):
    nl = NonlinearitySpec("minus_power", p=p)
    assert (nl.sign, nl.degree, nl.pad) == (-1.0, degree, pad)
    assert NonlinearitySpec("power", p=p).sign == 1.0
    assert NonlinearitySpec("quadratic") == NonlinearitySpec("power", p=2.0)


@pytest.mark.parametrize("p", [1.0, 0.5, float("nan"), float("inf"),
                               float("-inf")])
def test_nonlinearity_exponent_is_finite_and_above_one(p):
    for form in ("power", "minus_power"):
        with pytest.raises(DomainError):
            NonlinearitySpec(form, p=p)


@pytest.mark.parametrize("p", [3.0, 2.5, 1e5])
def test_quadratic_refuses_another_exponent(p):
    with pytest.raises(DomainError, match="quadratic"):
        NonlinearitySpec("quadratic", p=p)
    assert NonlinearitySpec("quadratic", p=2).p == 2.0


def test_model_family_pairing():
    with pytest.raises(DomainError):
        ModelSpec("bbm", SymbolSpec("kdv"), NonlinearitySpec("quadratic"))
    with pytest.raises(DomainError):
        ModelSpec("kdv_type", SymbolSpec("bbm_linear"),
                  NonlinearitySpec("quadratic"))


@pytest.mark.parametrize("name,kind", [
    ("kdv", "kdv"), ("bo", "benjamin_ono"), ("whitham", "whitham"),
    ("bbm", "bbm_linear"), ("frac:m=1.5", "fractional"), ("ilw:H=1.0", "ilw"),
])
def test_parse_symbol(name, kind):
    spec = parse_symbol(name)
    assert spec.kind == kind
    assert parse_symbol(spec.name()).kind == kind


@pytest.mark.parametrize("name", ["frac:m=1.5", "ilw:H=1", "frac:m=1.2345678",
                                  "ilw:H=0.30000000000000004", "frac:m=1e+20"])
def test_symbol_name_is_the_shortest_exact_form(name):
    spec = parse_symbol(name)
    assert spec.name() == name
    param = "m" if spec.kind == "fractional" else "H"     # numpy names alike
    assert replace(spec, **{param: np.float64(getattr(spec, param))}).name() \
        == name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(
    st.sampled_from([SymbolSpec(kind) for kind in SYMBOL_KINDS
                     if kind not in ("fractional", "ilw")]),
    st.floats(0.5, 1e300, exclude_min=True).map(
        lambda m: SymbolSpec("fractional", m=m)),
    st.floats(0.0, 1e300, exclude_min=True).map(lambda H: SymbolSpec("ilw", H=H))))
def test_symbol_name_round_trips(spec):
    assert parse_symbol(spec.name()) == spec


def test_parse_symbol_rejects_garbage():
    for bad in ("kdv2", "frac:p=2", "ilw:H=x", "", "bo:m=2", "kdv:x",
                "frac:m=inf", "ilw:H=nan"):
        with pytest.raises(DomainError):
            parse_symbol(bad)
