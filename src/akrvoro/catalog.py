"""Named test functions with exact derivatives and sup-norm metadata.

Names accepted by ``lookup``: const1, e1, e2, e3, monomial(p,q), exp-sum,
sinpix-cospiy, runge-2d.  The monomial entry is parametric: monomial(2,3)
is s^2 t^3.  All callables broadcast over numpy arrays.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnknownFunctionError
from .tensor import Function, SupBounds

__all__ = ["CatalogEntry", "lookup", "catalog_names"]

_NAME_PATTERN = ("const1", "e1", "e2", "e3", "monomial(p,q)", "exp-sum",
                 "sinpix-cospiy", "runge-2d")
_MONOMIAL_RE = re.compile(r"^monomial\((\d+),\s*(\d+)\)$")

# monomial(p,q) has the sup bounds p(p - 1), pq and q(q - 1), all at most
# max(p, q)^2, and monomial(p,p) has p^2 itself: they are finite doubles for
# every partner exponent when p^2 is.  That needs p < 2^512, so an exponent
# of more digits than 2^512 is refused before int() reads it (int() refuses
# a string of more than 4300 digits).
_EXPONENT_DIGITS = len(str(2**512))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    arity: int
    function: Function

    @property
    def separable(self):
        return self.function.factors is not None


def _monomial_1d(p):
    # p is closed over, not a keyword default: a call with two coordinates
    # must raise, not read the second one as the exponent
    def ev(t):
        return np.asarray(t, dtype=np.float64) ** p

    def d1(t):
        t = np.asarray(t, dtype=np.float64)
        return p * t ** (p - 1) if p >= 1 else np.zeros_like(t)

    def d2(t):
        t = np.asarray(t, dtype=np.float64)
        if p < 2:
            return np.zeros_like(t)
        return p * (p - 1) * t ** (p - 2)

    return Function(eval=ev, grad=(d1,), hess=((d2,),))


def _product(g, h, sup_bounds):
    """f(s,t) = g(s) h(t) with its partials from those of g and h."""
    (g1,), ((g2,),) = g.grad, g.hess
    (h1,), ((h2,),) = h.grad, h.hess
    fxy = lambda s, t: g1(s) * h1(t)
    return Function(
        eval=lambda s, t: g.eval(s) * h.eval(t),
        grad=(lambda s, t: g1(s) * h.eval(t), lambda s, t: g.eval(s) * h1(t)),
        hess=(
            (lambda s, t: g2(s) * h.eval(t), fxy),
            (fxy, lambda s, t: g.eval(s) * h2(t)),
        ),
        sup_bounds=sup_bounds,
        factors=(g, h),
    )


def _monomial_2d(p, q):
    pq = float(p * q)
    return _product(
        _monomial_1d(p),
        _monomial_1d(q),
        SupBounds(((float(p * (p - 1)), pq), (pq, float(q * (q - 1))))),
    )


def _exp_1d():
    return Function(eval=np.exp, grad=(np.exp,), hess=((np.exp,),))


def _exp_sum():
    e2 = float(np.exp(2.0))  # sup of every second partial, attained at (1,1)
    # exp(s + t), not exp(s) exp(t): the product rounds differently
    ev = lambda s, t: np.exp(np.asarray(s, dtype=np.float64) + t)
    return Function(
        eval=ev, grad=(ev, ev), hess=((ev, ev), (ev, ev)),
        sup_bounds=SupBounds(((e2, e2), (e2, e2))),
        factors=(_exp_1d(), _exp_1d()),
    )


def _sinpix_cospiy():
    pi = np.pi
    sin_part = Function(
        eval=lambda t: np.sin(pi * np.asarray(t, dtype=np.float64)),
        grad=(lambda t: pi * np.cos(pi * np.asarray(t, dtype=np.float64)),),
        hess=((lambda t: -(pi**2) * np.sin(pi * np.asarray(t, dtype=np.float64)),),),
    )
    cos_part = Function(
        eval=lambda t: np.cos(pi * np.asarray(t, dtype=np.float64)),
        grad=(lambda t: -pi * np.sin(pi * np.asarray(t, dtype=np.float64)),),
        hess=((lambda t: -(pi**2) * np.cos(pi * np.asarray(t, dtype=np.float64)),),),
    )
    p2 = float(pi**2)
    return _product(sin_part, cos_part, SupBounds(((p2, p2), (p2, p2))))


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
    return Function(
        eval=ev, grad=(fx, fy), hess=((fxx, fxy), (fxy, fyy)),
        sup_bounds=SupBounds(((50.0, 15.0), (15.0, 50.0))),
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


def _exponent(digits, name):
    """The monomial exponent written in ``digits`` as an int, refused with a
    DomainError naming it unless its square is a finite double."""
    significant = digits.lstrip("0") or "0"
    if len(significant) <= _EXPONENT_DIGITS:
        p = int(significant)
        try:
            float(p * p)
        except OverflowError:
            pass
        else:
            return p
    shown = digits if len(digits) <= 20 else f"a number of {len(digits)} digits"
    raise DomainError(
        f"monomial exponent {name} must be small enough that {name}^2 is a finite "
        f"double, got {shown}"
    )


def catalog_names():
    """The documented name set (monomial shown as its pattern)."""
    return _NAME_PATTERN


def lookup(name):
    """Resolve a documented name to a fully populated entry.  A monomial
    exponent whose square is not a finite double is a DomainError."""
    if name in _FIXED_ENTRIES:
        return _FIXED_ENTRIES[name]()
    m = _MONOMIAL_RE.match(name)
    if m:
        p, q = (_exponent(digits, axis) for digits, axis in zip(m.groups(), "pq"))
        return CatalogEntry(f"monomial({p},{q})", 2, _monomial_2d(p, q))
    raise UnknownFunctionError(name, _NAME_PATTERN)
