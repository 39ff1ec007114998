"""Numeric kernels: compensated reductions and stable log binomial weights.

There is one numpy path.  ``comp_dot`` sums its products with ``math.fsum``
(exact summation); ``bilinear_accumulate`` lets BLAS form each row product
and carries Kahan compensation across rows; ``log_weights`` evaluates the
saddle-point split below with vectorized numpy.  Reduction order is fixed
(ascending index, rows outer), so results are deterministic.
"""

import functools
import math
import operator

import numpy as np

from .errors import DomainError

__all__ = [
    "backend",
    "check_degree",
    "check_integral",
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


# Degrees up to this keep their x-independent terms in a cache: at most
# _TERMS_CACHE_SIZE entries of 2 (n - 1) doubles each, about 2 MB at the
# worst.  Larger degrees compute them on the requested window only.
_TERMS_MAX_DEGREE = 8192
_TERMS_CACHE_SIZE = 16


def _degree_terms(n, k):
    """head = s(n) - s(k) - s(n-k) and tail = 0.5 ln(n / (2 pi k (n-k)))."""
    s = _stirlerr_np(np.concatenate(([n], k, n - k)))
    head = s[0] - s[1 : k.size + 1] - s[k.size + 1 :]
    tail = 0.5 * np.log(n / (2.0 * math.pi * k * (n - k)))
    return head, tail


@functools.lru_cache(maxsize=_TERMS_CACHE_SIZE)
def _cached_degree_terms(n):
    """Read-only head and tail for k = 1..n-1 (index k - 1)."""
    terms = _degree_terms(n, np.arange(1.0, float(n)))
    for t in terms:
        t.flags.writeable = False
    return terms


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
    if n <= _TERMS_MAX_DEGREE:
        head, tail = _cached_degree_terms(n)
        head, tail = head[k0 - 1 : k1], tail[k0 - 1 : k1]
    else:
        head, tail = _degree_terms(n, k)
    # bd0 is elementwise, so one call serves k against n x and n - k
    # against n (1 - x)
    size = k.size
    bd0 = _bd0_np(
        np.concatenate((k, n - k)), np.array((n * x, n * (1.0 - x))).repeat(size)
    )
    # in place, in the order s(n) - s(k) - s(n-k) - bd0 - bd0 + tail
    inner = lw[k0 - lo : k1 - lo + 1]
    np.subtract(head, bd0[:size], out=inner)
    inner -= bd0[size:]
    inner += tail
    return lw


def _stirlerr_np(m):
    out = np.empty_like(m)
    small = m < 16.0
    out[small] = _STIRLERR_TABLE[m[small].astype(np.intp)]
    mm = m[~small]
    m2 = mm * mm
    out[~small] = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / m2) / m2) / m2) / m2) / mm
    return out


# The series for bd0 runs only where |v| < 0.1, so each term is at most 0.01
# of the one before it, and the first term left out after `terms` of them is
# below v2_max^terms times the sum.  With v2_max^terms <= 2^-60 every term
# left out is far below half an ulp of the sum, so a fixed number of terms
# gives the same bits as summing until the sum stops changing.
_SERIES_LOG_EPS = -60.0 * math.log(2.0)


def _bd0_np(a, m):
    d = a - m
    t = a + m
    near = np.abs(d) < 0.1 * t
    far = ~near
    an, dn = a[near], d[near]
    v = dn / t[near]
    s = dn * v
    if s.size:
        ej = 2.0 * an * v
        v2 = v * v
        v2_max = float(v2.max())
        terms = math.ceil(_SERIES_LOG_EPS / math.log(v2_max)) if v2_max else 0
        for j in range(1, terms + 1):
            ej *= v2
            s += ej / (2 * j + 1)
    # t is not read again, so its buffer takes the result
    out = t
    out[near] = s
    # in place: af * log(af / mf) + mf - af, in that order; af / mf may
    # overflow when mf is subnormal (x within a few ulp of 0 or 1), and the
    # inf propagates to a -inf log weight, i.e. an exact 0 weight
    af, mf = a[far], m[far]
    with np.errstate(over="ignore"):
        q = af / mf
    np.log(q, out=q)
    q *= af
    q += mf
    q -= af
    out[far] = q
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


# Doubles per array in a hot loop's working block: the 2-d evaluation tiles
# and the degree blocks of criterion 2.  A handful of such arrays (128 KiB
# each) stay in a core's L2 cache and are reused from the malloc heap.
# Temporaries of megabytes are mapped and faulted in afresh on every call:
# a runge-2d operator at n = 4096 took 1463 minor page faults per call when
# its whole grid was evaluated at once, and takes 19 in tiles.
CACHE_BLOCK_ELEMENTS = 1 << 14


def check_integral(value, name):
    """value as an int, or as an array when it is one: ints, numpy integers
    and finite integral floats such as 8.0 pass; anything else (8.5, nan,
    "a", None) is a DomainError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    try:
        array = np.asarray(value)
    except ValueError:
        array = None
    if array is not None and (
        array.dtype.kind in "biu"
        or array.dtype.kind == "f"
        and np.all(np.isfinite(array) & (array == np.trunc(array)))
    ):
        return int(array) if array.ndim == 0 else array
    raise DomainError(f"{name} must be integral, got {value!r}")


def check_degree(n, least=1):
    """n as an int, refused with DomainError unless least <= n <= MAX_DEGREE."""
    n = check_integral(n, "degree")
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
    # Python floats run the same IEEE double arithmetic as numpy scalars,
    # at a fraction of the cost per operation
    s = float(state[0])
    c = float(state[1])
    for w, row in zip(wx_block.tolist(), (block @ wy).tolist()):
        v = w * row
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
