"""Numeric kernels: compensated reductions and stable log binomial weights.

There is one numpy path.  ``comp_dot`` sums its products with ``math.fsum``
(exact summation, so no order enters); ``bilinear_accumulate`` lets BLAS
form each row product and carries Kahan compensation across the rows in
ascending order; ``log_weights`` evaluates the saddle-point split below with
vectorized numpy.  All three are deterministic.

The argument rules live here too, one ``check_*`` function each, so every
module refuses a bad input with the same message.
"""

import contextlib
import functools
import math
import operator

import numpy as np

from .errors import DomainError

__all__ = [
    "ARITIES", "backend", "check_at_least", "check_degree", "check_index",
    "check_integral", "check_order", "check_point", "check_positive",
    "check_schedule", "comp_dot", "bilinear_accumulate", "log_weights", "support",
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
    # bd0 is elementwise, so one call serves k against n x and n - k
    # against n (1 - x)
    size = k.size
    bd0 = _bd0_np(
        np.concatenate((k, n - k)), np.array((n * x, n * (1.0 - x))).repeat(size)
    )
    if n <= _TERMS_MAX_DEGREE:
        head, tail = _cached_degree_terms(n)
        head, tail = head[k0 - 1 : k1], tail[k0 - 1 : k1]
    else:
        head, tail = _degree_terms(n, k)
    # in place, in the order s(n) - s(k) - s(n-k) - bd0 - bd0 + tail
    out = lw[k0 - lo : k1 - lo + 1]
    np.subtract(head, bd0[:size], out=out)
    out -= bd0[size:]
    out += tail
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
# gives the same bits as summing until the sum stops changing, and so does
# any larger number: a window's weights have the bits of the full vector's.
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

# Largest order any operator accepts, by the same rule: 16 times j = 64, the
# largest order whose series has been measured.  From j = 3 a node sums
# j - 1 log terms, so a table costs O(nodes x j): the full table at
# MAX_DEGREE took 6.3 s at j = MAX_ORDER and 0.57 s at j = 64 (on a 2-vCPU
# Xeon VM), where j = MAX_DEGREE would take hours.
MAX_ORDER = 2**10

# Largest grid ``fixed_point_error`` accepts, by the same rule: 16 times the
# 101 points of criterion 1, the largest grid a test or criterion uses.  Each
# point costs one weight vector, and the grid is built before the first, so
# an unchecked size of 10^9 would ask for 8 GB.
MAX_GRID = 16 * 101


# Doubles per array in a hot loop's working block: the 2-d evaluation tiles
# and the degree blocks of criterion 2.  The sweep's four buffers (256 KiB
# each) are allocated once per sweep, so a core's L2 (2 MiB on the Xeon VM of
# README "Benchmark") is their only bound; a tile's temporaries are
# allocated per tile and reused from the malloc heap.  Temporaries of
# megabytes are mapped and faulted in afresh on every call: a runge-2d
# operator at n = 4096 took 1463 minor page faults per call when its whole
# grid was evaluated at once, and takes none in tiles once warm.  On both
# loops 2^14 was slower and 2^16 no faster.
CACHE_BLOCK_ELEMENTS = 1 << 15


# Elements of numpy's ufunc buffer inside those loops.  Their ops broadcast a
# column against a row, and under numpy's default buffer of 8192 elements
# such an op ran up to 2x slower per cell (numpy 2.4): on criterion 2's
# 31 x 1031 block `k / n` took 1.2-1.3 ns a cell, and 0.8 ns with this
# buffer.  Buffering copies operands without changing their dtype, so every
# elementwise result and every min/max is the same bit for bit.
SMALL_UFUNC_BUFFER = 128


@contextlib.contextmanager
def small_ufunc_buffer():
    """Run the body with numpy's ufunc buffer at SMALL_UFUNC_BUFFER elements,
    and give the caller back its own size however the body ends."""
    # numpy 1.x's errstate does not restore the buffer size, so this does
    old = np.getbufsize()
    np.setbufsize(SMALL_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def check_integral(value, name):
    """value as one int: an int, a numpy integer or a finite integral float
    such as 8.0, bare or as a 0-d array, passes; anything else (8.5, nan,
    "a", None, an array of several values) is a DomainError naming ``name``."""
    zero_d = isinstance(value, np.ndarray) and value.ndim == 0
    number = value.item() if zero_d else value
    try:
        return operator.index(number)
    except TypeError:
        pass
    if isinstance(number, (float, np.floating)) and float(number).is_integer():
        return int(number)
    raise DomainError(f"{name} must be integral, got {value!r}")


def check_at_least(value, least, name, most=None):
    """value as an int, refused with DomainError naming ``name`` unless it
    is integral, at least ``least`` and, when ``most`` is given, at most
    ``most``."""
    value = check_integral(value, name)
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be <= {most}, got {_shown(value)}")
    return value


def _finite_nonnegative(value):
    """Whether value is a finite number >= 0: False, not a TypeError, when
    it is not a number, such as text, None or a list."""
    try:
        return math.isfinite(value) and value >= 0.0
    except TypeError:
        return False


def _shown(value):
    """An int for a message, as a power of ten past 20 digits: str() refuses
    an int of more than 4300 digits."""
    if abs(value) < 10**20:
        return str(value)
    return f"{'-' * (value < 0)}10^{math.log10(abs(value)):.1f}"


def check_degree(n, least=1):
    """n as an int, refused with DomainError unless least <= n <= MAX_DEGREE."""
    return check_at_least(n, least, "degree", MAX_DEGREE)


def check_schedule(n0, doublings, least=2):
    """The degrees n0, 2 n0, ..., n0 * 2^doublings as a list, refused with
    DomainError unless doublings >= 0, n0 >= least >= 1 and the last degree
    is at most MAX_DEGREE, which is checked before that degree is computed."""
    doublings = check_at_least(doublings, 0, "doublings")
    n0 = check_at_least(n0, least, "n0")
    # n0 >= 1, so MAX_DEGREE.bit_length() doublings or more pass the cap
    if doublings >= MAX_DEGREE.bit_length() or n0 << doublings > MAX_DEGREE:
        raise DomainError(
            f"schedule's last degree must be <= {MAX_DEGREE}, got n0 * "
            f"2^doublings with n0 = {_shown(n0)}, doublings = {_shown(doublings)}"
        )
    return [n0 << m for m in range(doublings + 1)]


def check_order(j):
    """The order j as an int, refused with DomainError unless 1 <= j <=
    MAX_ORDER: order 1 is the Bernstein operator."""
    return check_at_least(j, 1, "order j", MAX_ORDER)


def check_index(k, n, name="index"):
    """k as an int, refused with DomainError unless it lies in [0, n]."""
    k = check_integral(k, name)
    if not 0 <= k <= n:
        raise DomainError(f"{name} must lie in [0, {n}], got {_shown(k)}")
    return k


# The arities, d, of the points of [0, 1]^d that the operators take.
ARITIES = (1, 2)


def check_point(point, arity=None):
    """The coordinates of a point of [0, 1]^d as a tuple of floats.

    A point is a sequence of d numbers, and a point of [0, 1] may also be a
    bare number.  d is ``arity``, or any of ARITIES when that is None.  A
    point of another shape, a non-numeric coordinate or one outside [0, 1]
    is a DomainError.
    """
    # a float as a point of [0, 1], the per-weight-vector case, without the
    # numpy calls below; a numpy float64 compares faster once converted
    if isinstance(point, float) and arity in (None, 1):
        if 0.0 <= (x := float(point)) <= 1.0:
            return (x,)
    # numbers only: float() would read a coordinate given as text
    try:
        array = np.asarray(point)
    except ValueError:  # a ragged sequence, refused as a non-number below
        array = np.asarray(None)
    sizes = (arity,) if arity else ARITIES
    if array.dtype.kind not in "biuf" or array.ndim > 1 or array.size not in sizes:
        count = arity or " or ".join(map(str, ARITIES))
        msg = f"point must have {count} numeric coordinate(s), got {point!r}"
        raise DomainError(msg)
    coords = tuple(map(float, array.ravel().tolist()))
    if not all(0.0 <= x <= 1.0 for x in coords):
        d = len(coords)
        cube = "[0, 1]" if d == 1 else f"[0, 1]^{d}"
        raise DomainError(f"point must lie in {cube}, got {point}")
    return coords


def check_positive(coords):
    """The coordinates that ``check_point`` returned, refused with
    DomainError when one is 0: the limit of order j >= 2 holds only at
    positive coordinates."""
    if 0.0 in coords:
        raise DomainError(f"order j >= 2 needs positive coordinates, got {coords}")
    return coords


def support(n, x):
    """Inclusive index window (lo, hi) = [floor(n x - r), ceil(n x + r)]
    clipped to [0, n], outside which the degree-n weights at x hold at most
    SUPPORT_DELTA of their mass."""
    r = math.sqrt(n * _SUPPORT_LOG)
    return max(0, math.floor(n * x - r)), min(n, math.ceil(n * x + r))


# --------------------------------------------------------------------------
# Compensated reductions.
# math.fsum is a full-precision compensated sum; the bilinear reduction keeps
# Kahan compensation across rows and lets BLAS handle each row product.
# --------------------------------------------------------------------------


def comp_dot(a, b):
    """Sum of the elementwise products, correctly rounded: math.fsum sums
    them exactly, so the result does not depend on their order."""
    # fsum reads a list of Python floats faster than it iterates an array,
    # and they hold the same doubles
    return math.fsum(np.multiply(a, b).tolist())


def bilinear_accumulate(block, wx_block, wy, state):
    """Add sum_i wx_block[i] * sum_l block[i,l]*wy[l] into Kahan state."""
    # The Kahan recurrence s' = s + v, c' = c + ((s - s') + v) over the rows,
    # as two scans: add.accumulate runs strictly left to right (unlike
    # add.reduce, which sums pairwise), so these are the same IEEE
    # operations in the same order as a loop over the rows
    v = wx_block * (block @ wy)
    s = np.add.accumulate(np.concatenate((state[:1], v)))
    e = s[:-1] - s[1:]
    e += v
    c = np.add.accumulate(np.concatenate((state[1:], e)))
    state[0] = s[-1]
    state[1] = c[-1]


def warmup():
    """Run each kernel once on a tiny input, so one-time first-call costs
    stay out of timed work."""
    a = np.array([1.0, 2.0, 3.0])
    comp_dot(a, a)
    bilinear_accumulate(np.ones((2, 3)), a[:2], a, np.zeros(2))
    log_weights(4, 0.5)
