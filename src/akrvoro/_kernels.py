"""Numeric kernels: compensated reductions and stable log binomial weights.

There is one numpy path.  ``comp_dot`` sums its products with ``exact_sum``,
which rounds their exact sum correctly (so no order enters): by a cascade
that a bound certifies, or by ``math.fsum``; ``bilinear_accumulate`` lets BLAS
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
    "check_schedule", "comp_dot", "bilinear_accumulate", "exact_sum", "log_weights",
    "support", "warmup",
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


# s(m) for m = 0..size - 1, kept read-only and grown on demand to the next
# power of two past the largest m asked for.  It is elementwise
# _stirlerr_np, so a slice of it has the bits of _stirlerr_np on that slice.
# Degrees below _STIRLERR_CAP read s(k) and s(n - k) from it; from the cap
# on, s is computed on the requested window only.  The table holds at most
# _STIRLERR_CAP doubles, 2 MiB, the worst case.  A grown table replaces the
# old one whole: a caller holding the old one still reads valid entries,
# and two threads growing it at once only compute it twice.
_STIRLERR_CAP = 2**18
_stirlerr_kept = np.empty(0)


def _stirlerr_upto(n):
    """The kept table of s(m), holding at least m = 0..n < _STIRLERR_CAP."""
    global _stirlerr_kept
    table = _stirlerr_kept
    if table.size <= n:
        grown = np.empty(1 << int(n).bit_length())
        grown[: table.size] = table
        grown[table.size :] = _stirlerr_np(np.arange(float(table.size), grown.size))
        grown.flags.writeable = False
        _stirlerr_kept = table = grown
    return table


def _degree_terms(n, k0, k1):
    """Rows k, n - k, head = s(n) - s(k) - s(n-k) and tail = 0.5 ln(n /
    (2 pi k (n-k))) for k = k0..k1, as one (4, k1 - k0 + 1) block."""
    terms = np.empty((4, k1 - k0 + 1))
    k, nk, head, tail = terms
    k[:] = np.arange(float(k0), float(k1 + 1))
    np.subtract(n, k, out=nk)
    if n < _STIRLERR_CAP:
        s = _stirlerr_upto(n)
        # s(n - k) for k = k0..k1 runs backwards through the table
        np.subtract(s[n], s[k0 : k1 + 1], out=head)
        head -= s[n - k1 : n - k0 + 1][::-1]
    else:
        s = _stirlerr_np(terms[:2])
        np.subtract(_stirlerr_np(np.array([float(n)]))[0], s[0], out=head)
        head -= s[1]
    np.log(n / (2.0 * math.pi * k * nk), out=tail)
    tail *= 0.5
    return terms


# Degrees up to this keep their terms block in a cache: at most
# _TERMS_CACHE_SIZE blocks of 4 (n - 1) doubles each, 4 MiB at the worst,
# which with the s table's 2 MiB makes 6 MiB for every kernel cache.
# Larger degrees build the block on the requested window only.
_TERMS_MAX_DEGREE = 8192
_TERMS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_TERMS_CACHE_SIZE)
def _cached_degree_terms(n):
    """The read-only terms block for k = 1..n-1 (column k - 1)."""
    terms = _degree_terms(n, 1, n - 1)
    terms.flags.writeable = False
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
    if n <= _TERMS_MAX_DEGREE:
        terms = _cached_degree_terms(n)[:, k0 - 1 : k1]
    else:
        terms = _degree_terms(n, k0, k1)
    # bd0 is elementwise, so one call serves k against n x and n - k
    # against n (1 - x), both rows in one contiguous array: on a strided
    # view of the cached rows or a broadcast m, each of bd0's ufuncs costs
    # about 0.5 us more, far more than the copy and the fill.  a / m stays
    # finite while m > 2^-1000, since a <= n <= MAX_DEGREE = 2^20.
    size = k1 - k0 + 1
    mx, my = n * x, n * (1.0 - x)
    m = np.empty(2 * size)
    m[:size] = mx
    m[size:] = my
    bd0 = _bd0_np(terms[:2].reshape(-1), m, min(mx, my) <= 2.0**-1000)
    # in place, in the order s(n) - s(k) - s(n-k) - bd0 - bd0 + tail
    out = lw[k0 - lo : k1 - lo + 1]
    np.subtract(terms[2], bd0[:size], out=out)
    out -= bd0[size:]
    out += terms[3]
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

# Fewer near elements than this sum the series by two accumulates over one
# (terms + 1, near) buffer; from it on, by a loop of three numpy calls a
# term.  The loop costs a fixed overhead per term, the accumulates one
# inner loop per element.  The series alone on the near elements of support
# windows at x = 0.37, 9-10 terms (best of 7 rounds of 20,000 calls on a
# 2-vCPU Xeon VM), accumulates against loop: 6.6 against 24.3 us at 1
# element, 9.6 against 17.3 at 26, 12.4 against 16.0 at 60, 17.0 against
# 17.8 at 104, 17.1 against 16.5 at 113, 27.6 against 19.4 at 208 and
# 158 against 41 at 1754.
_SERIES_LOOP_MIN_NEAR = 112

# 3, 5, ..., 21: term j is divided by 2 j + 1, and |v| < 0.1 caps the
# terms at ceil(60 ln 2 / ln 100) = 10
_SERIES_DIVISORS = np.arange(3.0, 22.0, 2.0)[:, None]


def _bd0_series(a, d, v):
    """bd0 where |v| < 0.1: d v + sum_j 2 a v^(2j+1) / (2j+1), j = 1..terms,
    accumulated left to right."""
    v2 = v * v
    v2_max = float(v2.max(initial=0.0))
    terms = math.ceil(_SERIES_LOG_EPS / math.log(v2_max)) if v2_max else 0
    if terms and v.size < _SERIES_LOOP_MIN_NEAR:
        # along axis 0 both accumulates run row after row, so each column
        # takes the loop's multiplications, divisions and additions in the
        # loop's order; numpy promises no order for a reduce, and along a
        # contiguous axis it sums pairwise, which moves bits
        buf = np.empty((terms + 1, v.size))
        np.multiply(2.0 * a, v, out=buf[0])
        buf[1:] = v2
        np.multiply.accumulate(buf, axis=0, out=buf)
        buf[1:] /= _SERIES_DIVISORS[:terms]
        np.multiply(d, v, out=buf[0])
        np.add.accumulate(buf, axis=0, out=buf)
        return buf[-1]
    s = d * v
    ej = 2.0 * a * v
    for j in range(1, terms + 1):
        ej *= v2
        s += ej / (2 * j + 1)
    return s


def _bd0_np(a, m, small_m=True):
    """bd0(a, m) elementwise; ``small_m`` says that some m may lie below
    2^-1000, where a / m can overflow."""
    d = a - m
    t = a + m
    near = np.abs(d) < 0.1 * t
    # count_nonzero costs half of near.all() (0.44 against 0.97 us at 622
    # elements, on the VM of the crossover above)
    count = np.count_nonzero(near)
    if count == near.size:
        # every element near: no gathers, and no far pass
        return _bd0_series(a, d, np.divide(d, t, out=t))
    if count:
        # the near inputs, before the far pass below overwrites t
        an, dn, vn = a[near], d[near], t[near]
        np.divide(dn, vn, out=vn)
    # in place over every element, the near ones written over after:
    # a * log(a / m) + m - a, in that order; a / m overflows when m is
    # subnormal (x within a few ulp of 0 or 1), and the inf propagates to a
    # -inf log weight, i.e. an exact 0 weight
    out = t
    if small_m:
        with np.errstate(over="ignore"):
            np.divide(a, m, out=out)
    else:
        np.divide(a, m, out=out)
    np.log(out, out=out)
    out *= a
    out += m
    out -= a
    if count:
        out[near] = _bd0_series(an, dn, vn)
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
# exact_sum rounds the exact sum correctly, by a certified cascade or by
# math.fsum; the bilinear reduction keeps Kahan compensation across rows and
# lets BLAS handle each row product.
# --------------------------------------------------------------------------

# Fewer terms than this go to math.fsum alone.  The cascade costs a fixed
# 7.1-7.4 us up to 111 terms and 8.2 us at 220; fsum's cost grows with the
# terms and with the binary exponents they span.  On operator products
# (weights times t^2 at the j = 2 nodes, x = 0.5, 0.3 and 0.1; best of 7
# rounds of 20,000 calls on a 2-vCPU Xeon VM) fsum took 2.7 us at 65 terms,
# 5.6 us at 97, 7.3 us at 111, 8.0 us at 126 and 9.6-13.9 us at 156-157;
# at x = 0.1, whose windows span fewer exponents, 3.1 us at 104 and 7.9 us
# at 162.
_CASCADE_MIN_TERMS = 128


def exact_sum(p):
    """The exact sum of the doubles of the 1-d array p, correctly rounded.

    From _CASCADE_MIN_TERMS terms on, the sum is Sum2 of T. Ogita, S. M.
    Rump and S. Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26 (2005), in numpy: the running sums s = add.accumulate(p),
    whose last is hi, and Knuth's TwoSum errors e_i = (s_(i-1) - (s_i -
    z)) + (p_i - z), z = s_i - s_(i-1), so that s_i + e_i = s_(i-1) + p_i
    exactly.  The e_i then telescope: the exact sum is S = hi + E, E the
    exact sum of the m - 1 errors.  r = fl(hi + lo), lo the computed E.
    r is returned only when a bound proves it is S rounded to nearest;
    otherwise, and below _CASCADE_MIN_TERMS terms, math.fsum gives the
    sum.  The correctly rounded sum is unique, so the two agree bit for
    bit.

    The bound.  With u = 2^-53, lo is a floating sum of the m - 1 errors,
    in any order, so |E - lo| <= gamma_(m-2) sum|e_i|, gamma_k = k u / (1 -
    k u); and t, the computed sum of the |e_i|, is at least (1 - (m - 2)
    u) sum|e_i|.  For m u <= 2^-14 (m below 2^39; an operator sums at
    most MAX_DEGREE + 1 terms) that makes |E - lo| <= 1.0002 m u t.  The
    computed b = fl(fl(m 2^-52 t) + 2^-1022) is at least 1.99 m u t: the
    product loses a relative u, and at most 2^-1075 to underflow, which
    the 2^-1022 covers.  So |E - lo| <= 0.51 b.  TwoSum of (hi, lo) gives
    d = hi + lo - r exactly, so S - r = d + (E - lo) lies within 0.51 b
    of d.  Take r > 0 (for r < 0, flip the signs of r, d and S).  S
    rounds to r when S - r lies strictly between -g_in and g_out, half
    the gaps from r to its neighbours toward 0 and away from it; they
    differ when r is a power of two, such as the 1.0 that the weights at
    a point sum to.  The computed g_in = (r - nextafter(r, 0)) / 2 and
    g_out = ulp(r) / 2 are exact from r = 2^-1021 on and rounded down to 0
    below.  If b < fl(g_out - d), then g_out - d > 0.51 b, since fl(x) <=
    (1 + u) x for x >= 0 and fl(x) <= 0 < b for x < 0; so S - r < d +
    0.51 b < g_out.  Likewise b < fl(g_in + d) gives S - r > -g_in.

    The cascade runs only when m max|p_i| < 2^1020, which an inf or a nan
    among the terms fails.  Then every running sum, every TwoSum quantity
    and every exact prefix sum stays below 2^1022 in magnitude, so nothing
    overflows, and neither would fsum, which raises OverflowError when an
    exact prefix sum nears the largest double.  TwoSum is exact with
    subnormals too, since a sum that lands below 2^-1022 is exact.  Any
    other input, and an r of 0, whose sign fsum gives, go to fsum, which
    returns the value or raises the exception it always has.
    """
    m = p.shape[0]
    # False for an inf or a nan among the terms too
    if m >= _CASCADE_MIN_TERMS and m * float(np.abs(p).max()) < 2.0**1020:
        s = np.add.accumulate(p)
        prev, cur = s[:-1], s[1:]
        z = cur - prev
        e = cur - z
        np.subtract(prev, e, out=e)
        e += np.subtract(p[1:], z, out=z)
        lo = float(np.add.reduce(e))
        t = float(np.add.reduce(np.abs(e, out=e)))
        hi = float(s[-1])
        r = hi + lo
        if r:
            z = r - hi
            d = (hi - (r - z)) + (lo - z)
            if r < 0.0:  # d as seen from |r|
                d = -d
            a = abs(r)
            g_in = (a - math.nextafter(a, 0.0)) * 0.5
            g_out = math.ulp(a) * 0.5
            b = t * (m * 2.0**-52) + 2.0**-1022
            if b < g_out - d and b < g_in + d:
                return r
    # fsum reads a list of Python floats faster than it iterates an array,
    # and they hold the same doubles
    return math.fsum(p.tolist())


def comp_dot(a, b):
    """Sum of the elementwise products, correctly rounded: ``exact_sum``
    sums them exactly, so the result does not depend on their order."""
    return exact_sum(np.multiply(a, b))


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
    exact_sum(np.ones(_CASCADE_MIN_TERMS))
    bilinear_accumulate(np.ones((2, 3)), a[:2], a, np.zeros(2))
    # 3 near elements of 14, with v != 0: the s table, the in-place far
    # pass and the series' accumulates run
    log_weights(8, 0.37)
