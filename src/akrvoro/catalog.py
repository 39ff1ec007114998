"""Named test functions with exact derivatives and sup-norm metadata.

Names accepted by ``lookup``: const1, e1, e2, e3, monomial(p,q), exp-sum,
sinpix-cospiy, runge-2d.  The monomial entry is parametric: monomial(2,3)
is s^2 t^3.  All callables broadcast over numpy arrays.
"""

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .basis import Function1D
from .errors import UnknownFunctionError
from .tensor import Function2D, SupBounds

__all__ = ["CatalogEntry", "lookup", "catalog_names"]

_NAME_PATTERN = ("const1", "e1", "e2", "e3", "monomial(p,q)", "exp-sum",
                 "sinpix-cospiy", "runge-2d")
_MONOMIAL_RE = re.compile(r"^monomial\((\d+),\s*(\d+)\)$")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    arity: int
    function: Union[Function1D, Function2D]

    @property
    def sup_bounds(self):
        return self.function.sup_bounds if self.arity == 2 else None

    @property
    def separable(self):
        return self.arity == 2 and self.function.factors is not None


def _zeros(t):
    return np.zeros_like(np.asarray(t, dtype=np.float64))


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=np.float64))


def _monomial_1d(p):
    if p == 0:
        return Function1D(eval=_ones, d1=_zeros, d2=_zeros)

    def ev(t, p=p):
        return np.asarray(t, dtype=np.float64) ** p

    def d1(t, p=p):
        t = np.asarray(t, dtype=np.float64)
        return p * t ** (p - 1) if p >= 1 else np.zeros_like(t)

    def d2(t, p=p):
        t = np.asarray(t, dtype=np.float64)
        if p < 2:
            return np.zeros_like(t)
        return p * (p - 1) * t ** (p - 2)

    return Function1D(eval=ev, d1=d1, d2=d2)


def _product(g, h, sup_bounds):
    """f(s,t) = g(s) h(t) with its partials from those of g and h."""
    return Function2D(
        eval=lambda s, t: g.eval(s) * h.eval(t),
        fx=lambda s, t: g.d1(s) * h.eval(t),
        fy=lambda s, t: g.eval(s) * h.d1(t),
        fxx=lambda s, t: g.d2(s) * h.eval(t),
        fxy=lambda s, t: g.d1(s) * h.d1(t),
        fyy=lambda s, t: g.eval(s) * h.d2(t),
        sup_bounds=sup_bounds,
        factors=(g, h),
    )


def _monomial_2d(p, q):
    return _product(
        _monomial_1d(p),
        _monomial_1d(q),
        SupBounds(fxx=float(p * (p - 1)), fxy=float(p * q), fyy=float(q * (q - 1))),
    )


def _exp_1d():
    return Function1D(eval=np.exp, d1=np.exp, d2=np.exp)


def _exp_sum():
    e2 = float(np.exp(2.0))  # sup of every second partial, attained at (1,1)
    # exp(s + t), not exp(s) exp(t): the product rounds differently
    ev = lambda s, t: np.exp(np.asarray(s, dtype=np.float64) + t)
    return Function2D(
        eval=ev, fx=ev, fy=ev, fxx=ev, fxy=ev, fyy=ev,
        sup_bounds=SupBounds(fxx=e2, fxy=e2, fyy=e2),
        factors=(_exp_1d(), _exp_1d()),
    )


def _sinpix_cospiy():
    pi = np.pi
    sin_part = Function1D(
        eval=lambda t: np.sin(pi * np.asarray(t, dtype=np.float64)),
        d1=lambda t: pi * np.cos(pi * np.asarray(t, dtype=np.float64)),
        d2=lambda t: -(pi**2) * np.sin(pi * np.asarray(t, dtype=np.float64)),
    )
    cos_part = Function1D(
        eval=lambda t: np.cos(pi * np.asarray(t, dtype=np.float64)),
        d1=lambda t: -pi * np.sin(pi * np.asarray(t, dtype=np.float64)),
        d2=lambda t: -(pi**2) * np.cos(pi * np.asarray(t, dtype=np.float64)),
    )
    p2 = float(pi**2)
    return _product(sin_part, cos_part, SupBounds(fxx=p2, fxy=p2, fyy=p2))


def _runge_2d():
    # 1 / (1 + 25 (s-1/2)^2 + 25 (t-1/2)^2); not separable.
    def denom(s, t):
        a = np.asarray(s, dtype=np.float64) - 0.5
        b = np.asarray(t, dtype=np.float64) - 0.5
        return 1.0 + 25.0 * a * a + 25.0 * b * b

    def ev(s, t):
        return 1.0 / denom(s, t)

    def fx(s, t):
        a = np.asarray(s, dtype=np.float64) - 0.5
        return -50.0 * a / denom(s, t) ** 2

    def fy(s, t):
        return fx(t, s)

    def fxx(s, t):
        a = np.asarray(s, dtype=np.float64) - 0.5
        D = denom(s, t)
        return -50.0 / D**2 + 5000.0 * a * a / D**3

    def fyy(s, t):
        return fxx(t, s)

    def fxy(s, t):
        a = np.asarray(s, dtype=np.float64) - 0.5
        b = np.asarray(t, dtype=np.float64) - 0.5
        return 5000.0 * a * b / denom(s, t) ** 3

    # |fxx| peaks at 50 (center); |fxy| peaks at 5000 c / (1+50c)^3 with
    # c = 1/100, just under 14.82
    return Function2D(
        eval=ev, fx=fx, fy=fy, fxx=fxx, fxy=fxy, fyy=fyy,
        sup_bounds=SupBounds(fxx=50.0, fxy=15.0, fyy=50.0),
    )


_FIXED_ENTRIES = {
    "const1": lambda: CatalogEntry("const1", 1, _monomial_1d(0)),
    "e1": lambda: CatalogEntry("e1", 1, _monomial_1d(1)),
    "e2": lambda: CatalogEntry("e2", 1, _monomial_1d(2)),
    "e3": lambda: CatalogEntry("e3", 1, _monomial_1d(3)),
    "exp-sum": lambda: CatalogEntry("exp-sum", 2, _exp_sum()),
    "sinpix-cospiy": lambda: CatalogEntry("sinpix-cospiy", 2, _sinpix_cospiy()),
    "runge-2d": lambda: CatalogEntry("runge-2d", 2, _runge_2d()),
}


def catalog_names():
    """The documented name set (monomial shown as its pattern)."""
    return _NAME_PATTERN


def lookup(name):
    """Resolve a documented name to a fully populated entry."""
    if name in _FIXED_ENTRIES:
        return _FIXED_ENTRIES[name]()
    m = _MONOMIAL_RE.match(name)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        return CatalogEntry(f"monomial({p},{q})", 2, _monomial_2d(p, q))
    raise UnknownFunctionError(name, _NAME_PATTERN)
