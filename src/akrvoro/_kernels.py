"""Numeric kernels: compensated reductions and stable log binomial weights.

There is one numpy path.  ``comp_dot`` sums its products with ``math.fsum``
(exact summation); ``bilinear_accumulate`` lets BLAS form each row product
and carries Kahan compensation across rows; ``log_weights`` evaluates the
saddle-point split below with vectorized numpy.  Reduction order is fixed
(ascending index, rows outer), so results are deterministic.
"""

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "backend",
    "check_degree",
    "comp_dot",
    "bilinear_accumulate",
    "log_weights",
    "support",
    "warmup",
]


def backend():
    """Name of the kernel backend, reported in run metadata: always 'numpy'."""
    return "numpy"


# --------------------------------------------------------------------------
# Stable log binomial weights.
#
# ln C(n,k) + k ln x + (n-k) ln(1-x) evaluated through three naive lgamma
# calls loses ~n*eps absolute accuracy (the lgammas are O(n log n) and the
# result is O(1)), which breaks the 1e-12 partition-of-unity budget near
# n = 2048.  The saddle-point split below keeps every intermediate O(1):
#
#   ln w = s(n) - s(k) - s(n-k) - bd0(k, n x) - bd0(n-k, n(1-x))
#          + 0.5 ln(n / (2 pi k (n-k)))
#
# with s(m) = ln m! - (m ln m - m + 0.5 ln(2 pi m)) and
# bd0(a, m) = a ln(a/m) + m - a computed by series when a is near m.
# --------------------------------------------------------------------------

# s(m) for m = 0..15; series below handles m >= 16.
_STIRLERR_TABLE = np.array(
    [
        0.0,
        0.081061466795327258219670264,
        0.041340695955409294093822081,
        0.0276779256849983391487892927,
        0.020790672103765093111522771,
        0.0166446911898211921631948653,
        0.013876128823070747998745727,
        0.0118967099458917700950557241,
        0.010411265261972096497478567,
        0.0092554621827127329177286366,
        0.008330563433362871256469318,
        0.0075736754879518407949720242,
        0.006942840107209529865664152,
        0.0064089941880042070684396310,
        0.005951370112758847735624416,
        0.0055547335519628013710386899,
    ]
)

_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0


def _stirlerr_py(m):
    if m < 16.0:
        return _STIRLERR_TABLE[int(m)]
    m2 = m * m
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / m2) / m2) / m2) / m2) / m


def log_weights(n, x, lo=0, hi=None):
    """ln basis weights for degree n at point x, indices lo..hi (default
    all n+1)."""
    hi = n if hi is None else hi
    lw = np.empty(hi - lo + 1)
    if x == 0.0 or x == 1.0:
        lw[:] = -np.inf
        mode = 0 if x == 0.0 else n
        if lo <= mode <= hi:
            lw[mode - lo] = 0.0
        return lw
    if lo == 0:
        lw[0] = n * math.log1p(-x)
    if hi == n:
        lw[-1] = n * math.log(x)
    k0 = max(lo, 1)
    k1 = min(hi, n - 1)
    if k1 < k0:
        return lw
    k = np.arange(float(k0), float(k1 + 1))
    lw[k0 - lo : k1 - lo + 1] = (
        _stirlerr_py(float(n))
        - _stirlerr_np(k)
        - _stirlerr_np(n - k)
        - _bd0_np(k, n * x)
        - _bd0_np(n - k, n * (1.0 - x))
        + 0.5 * np.log(n / (2.0 * math.pi * k * (n - k)))
    )
    return lw


def _stirlerr_np(m):
    out = np.empty_like(m)
    small = m < 16.0
    out[small] = _STIRLERR_TABLE[m[small].astype(np.intp)]
    mm = m[~small]
    m2 = mm * mm
    out[~small] = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / m2) / m2) / m2) / m2) / mm
    return out


def _bd0_np(a, m):
    a = np.asarray(a, dtype=float)
    m = np.broadcast_to(np.asarray(m, dtype=float), a.shape)
    out = np.empty(a.shape)
    near = np.abs(a - m) < 0.1 * (a + m)
    an, mn = a[near], m[near]
    v = (an - mn) / (an + mn)
    s = (an - mn) * v
    ej = 2.0 * an * v
    v2 = v * v
    j = 1
    while ej.size:
        ej = ej * v2
        s1 = s + ej / (2 * j + 1)
        if np.array_equal(s1, s):
            break
        s = s1
        j += 1
    out[near] = s
    af, mf = a[~near], m[~near]
    # af/mf may overflow when mf is subnormal (x within a few ulp of 0 or
    # 1); the inf propagates to a -inf log weight, i.e. an exact 0 weight
    with np.errstate(over="ignore"):
        out[~near] = af * np.log(af / mf) + mf - af
    return out


# --------------------------------------------------------------------------
# Support window of the weights.
#
# The weights at x are the Binomial(n, x) pmf, so by Hoeffding's inequality
# the mass with |k - n x| >= r is at most 2 exp(-2 r^2 / n).  With
# r = sqrt(n ln(2/delta) / 2) that mass is at most delta, so an operator sum
# restricted to the window drops at most delta * sup|f| per axis.
# --------------------------------------------------------------------------

SUPPORT_DELTA = 1e-20
_SUPPORT_LOG = math.log(2.0 / SUPPORT_DELTA) / 2.0

# Largest degree any operator accepts: 16 times the largest degree a test or
# benchmark workload uses.  Node tables and weight vectors are O(n) per call,
# so an unchecked degree from the command line could exhaust memory.
MAX_DEGREE = 2**20


def check_degree(n, least=1):
    """n as an int, refused with DomainError unless least <= n <= MAX_DEGREE."""
    n = int(n)
    if n < least:
        raise DomainError(f"degree must be >= {least}, got {n}")
    if n > MAX_DEGREE:
        raise DomainError(f"degree must be <= {MAX_DEGREE}, got {n}")
    return n


def support(n, x):
    """Inclusive index window (lo, hi) outside which the degree-n weights at
    x hold at most SUPPORT_DELTA of their mass."""
    r = math.sqrt(n * _SUPPORT_LOG)
    return max(0, math.floor(n * x - r)), min(n, math.ceil(n * x + r))


# --------------------------------------------------------------------------
# Compensated reductions.
# math.fsum is a full-precision compensated sum; the bilinear reduction keeps
# Kahan compensation across rows and lets BLAS handle each row product.
# --------------------------------------------------------------------------


def comp_dot(a, b):
    """Compensated sum of elementwise products, ascending index order."""
    return math.fsum(np.multiply(a, b))


def bilinear_accumulate(block, wx_block, wy, state):
    """Add sum_i wx_block[i] * sum_l block[i,l]*wy[l] into Kahan state."""
    rows = block @ wy
    s = state[0]
    c = state[1]
    for i in range(rows.shape[0]):
        v = wx_block[i] * rows[i]
        t = s + v
        c += (s - t) + v
        s = t
    state[0] = s
    state[1] = c


def warmup():
    """Run each kernel once on a tiny input, so one-time first-call costs
    stay out of timed work."""
    a = np.array([1.0, 2.0, 3.0])
    comp_dot(a, a)
    bilinear_accumulate(np.ones((2, 3)), a[:2], a, np.zeros(2))
    log_weights(4, 0.5)
