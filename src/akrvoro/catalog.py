"""Named test functions with exact derivatives and sup-norm metadata.

Names accepted by ``lookup``: const1, e1, e2, e3, monomial(p,q), exp-sum,
sinpix-cospiy, runge-2d.  The monomial entry is parametric: monomial(2,3)
is s^2 t^3, its exponents written in ASCII digits.  All callables
broadcast over numpy arrays.
"""

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnknownFunctionError
from .tensor import Function, SupBounds

__all__ = ["CatalogEntry", "lookup", "catalog_names"]

_NAME_PATTERN = ("const1", "e1", "e2", "e3", "monomial(p,q)", "exp-sum",
                 "sinpix-cospiy", "runge-2d")
# ASCII digits, and only ASCII spaces after the comma
_MONOMIAL_RE = re.compile(r"monomial\((\d+), *(\d+)\)", re.ASCII)

# monomial(p,q) has the sup bounds p(p - 1), pq and q(q - 1), all at most
# max(p, q)^2, and monomial(p,p) has p^2 itself: they are finite doubles for
# every partner exponent when p^2 is.  That needs p < 2^512, so an exponent
# of more digits than 2^512 is refused before int() reads it (int() refuses
# a string of more than 4300 digits).
_EXPONENT_DIGITS = len(str(2**512))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    function: Function

    @property
    def arity(self):
        return self.function.arity

    @property
    def separable(self):
        return self.function.factors is not None


def _float(t):
    return np.asarray(t, dtype=np.float64)


def _one_d(value, first, second):
    """A Function of one coordinate from its value and its first and second
    derivatives, each a map of float arrays.  The coordinate is read as a
    float array, and a call with two coordinates raises."""
    on_floats = lambda fn: lambda t: fn(_float(t))
    return Function(eval=on_floats(value), grad=(on_floats(first),),
                    hess=((on_floats(second),),))


def _scaled(c, fn):
    """t -> c fn(t), exactly 0 where c = 0: a monomial's fn may then be
    t^-1 or t^-2, infinite at t = 0."""
    return (lambda t: c * fn(t)) if c else np.zeros_like


def _monomial_1d(p):
    # the derivatives of t^p are p t^(p - 1) and p (p - 1) t^(p - 2)
    power = lambda q: lambda t: t ** q
    return _one_d(power(p), _scaled(p, power(p - 1)), _scaled(p * (p - 1), power(p - 2)))


def _product(g, h, sup_bounds):
    """f(s,t) = g(s) h(t): its partial of order a in s and b in t is
    g^(a)(s) h^(b)(t)."""
    dg, dh = ((f.eval, *f.grad, *f.hess[0]) for f in (g, h))
    part = lambda a, b: lambda s, t: dg[a](s) * dh[b](t)
    fxy = part(1, 1)
    return Function(
        eval=part(0, 0),
        grad=(part(1, 0), part(0, 1)),
        hess=((part(2, 0), fxy), (fxy, part(0, 2))),
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


def _exp_sum():
    e2 = float(np.exp(2.0))  # sup of every second partial, attained at (1,1)
    # exp(s + t), not exp(s) exp(t): the product rounds differently
    ev = lambda s, t: np.exp(_float(s) + t)
    exp = _one_d(np.exp, np.exp, np.exp)
    return Function(
        eval=ev, grad=(ev, ev), hess=((ev, ev), (ev, ev)),
        sup_bounds=SupBounds(((e2, e2), (e2, e2))),
        factors=(exp, exp),
    )


def _sinpix_cospiy():
    pi = np.pi
    at_pi = lambda fn: lambda t: fn(pi * t)
    sin, cos = at_pi(np.sin), at_pi(np.cos)
    sin_part = _one_d(sin, _scaled(pi, cos), _scaled(-(pi**2), sin))
    cos_part = _one_d(cos, _scaled(-pi, sin), _scaled(-(pi**2), cos))
    p2 = float(pi**2)
    return _product(sin_part, cos_part, SupBounds(((p2, p2), (p2, p2))))


def _runge_2d():
    # 1 / (1 + 25 (s-1/2)^2 + 25 (t-1/2)^2); not separable.
    def denom(s, t):
        a = _float(s) - 0.5
        b = _float(t) - 0.5
        return 1.0 + 25.0 * a * a + 25.0 * b * b

    def ev(s, t):
        return 1.0 / denom(s, t)

    def fx(s, t):
        a = _float(s) - 0.5
        return -50.0 * a / denom(s, t) ** 2

    def fy(s, t):
        return fx(t, s)

    def fxx(s, t):
        a = _float(s) - 0.5
        D = denom(s, t)
        return -50.0 / D**2 + 5000.0 * a * a / D**3

    def fyy(s, t):
        return fxx(t, s)

    def fxy(s, t):
        a = _float(s) - 0.5
        b = _float(t) - 0.5
        return 5000.0 * a * b / denom(s, t) ** 3

    # |fxx| peaks at 50 (center); |fxy| peaks at 5000 c / (1+50c)^3 with
    # c = 1/100, just under 14.82
    return Function(
        eval=ev, grad=(fx, fy), hess=((fxx, fxy), (fxy, fyy)),
        sup_bounds=SupBounds(((50.0, 15.0), (15.0, 50.0))),
    )


# each fixed name's builder; an entry's arity is its function's
_FIXED_ENTRIES = {
    "const1": lambda: _monomial_1d(0),
    "e1": lambda: _monomial_1d(1),
    "e2": lambda: _monomial_1d(2),
    "e3": lambda: _monomial_1d(3),
    "exp-sum": _exp_sum,
    "sinpix-cospiy": _sinpix_cospiy,
    "runge-2d": _runge_2d,
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
    """Resolve a documented name to a fully populated entry.  A name that is
    not a str is an UnknownFunctionError, and a monomial exponent whose
    square is not a finite double a DomainError.  Each entry is built once
    per canonical name and then shared, so monomial(2, 3) and monomial(2,3)
    give the same entry: an operator value kept in ``tensor.memo_scope`` is
    found again by its function's identity."""
    if isinstance(name, str):
        if name in _FIXED_ENTRIES:
            return _entry(name, None)
        if m := _MONOMIAL_RE.fullmatch(name):
            p, q = (_exponent(digits, axis) for digits, axis in zip(m.groups(), "pq"))
            return _entry(f"monomial({p},{q})", (p, q))
    raise UnknownFunctionError(name, _NAME_PATTERN)


@functools.lru_cache(maxsize=64)
def _entry(name, exponents):
    """The entry of a canonical name; ``exponents`` are a monomial's (p, q),
    None for a fixed name."""
    f = _monomial_2d(*exponents) if exponents else _FIXED_ENTRIES[name]()
    return CatalogEntry(name, f)
