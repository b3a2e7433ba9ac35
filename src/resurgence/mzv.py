"""Coloured nested harmonic sums and their iterated-integral twins.

This module evaluates the constants

    Ze(s, eps) = sum over n_1 > n_2 > ... > n_r > 0 of
                 exp(2 pi i (n_1 eps_1 + ... + n_r eps_r))
                 / (n_1^{s_1} ... n_r^{s_r})

with positive integer exponents ``s_j`` and rational colours ``eps_j``
taken modulo 1, together with the iterated integrals

    Wa(alpha_1, ..., alpha_l) = (-1)^{l_0} * integral over
                 0 < z_1 < ... < z_l < 1 of prod dz_j / (alpha_j - z_j)

where each letter ``alpha_j`` is 0 or a root of unity and ``l_0`` counts
the zero letters.  The head letter must satisfy (s_1, eps_1) != (1, 0)
for the sum, and alpha_1 != 0, alpha_l != 1 for the integral; divergent
inputs are rejected rather than regularised.

Two independent evaluators are provided.

* :func:`ze_eval` sums the series directly below a cutoff, as
  fixed-point integer prefix sums, and completes every level's tail
  with certified asymptotic expansions, in the same fixed point.
  Levels whose accumulated phase is trivial use the Euler-Maclaurin
  expansion of the Hurwitz tail; levels with a nontrivial root-of-unity
  phase use iterated summation by parts.  Truncation remainders are
  tracked through every algebraic step with explicit inequalities, and
  a proved rounding term bounds every floor of the integer arithmetic,
  so the reported error is a guaranteed bound.  The cutoff is chosen
  before anything is summed: the first of DEFAULT_CUTOFF = 64, 128, ...
  (never past MAX_CUTOFF) where the tails' remainders, predicted with a
  proved bound on the partial sums they multiply, fit under half a unit
  2^-prec; the tails keep 4 + max(0, prec - 53) // 5 correction
  terms, and the direct sum runs once, at that cutoff.

* :func:`wa_eval` sums the two endpoint slivers [0, 1/8] and
  [1 - h_1, 1], where the kernels 1/(0 - z) and 1/(1 - z) make the
  integrand singular, exactly as Taylor series with proved bounds, and
  integrates between them on four spectral panels graded by factors of
  2 (more when a letter lies within 1/2 of 1, off the supported
  colours), once, at the degree a proved Chebyshev panel bound picks
  from ``prec``; every term of its error is proved, so it is certified
  too.

The two sides are linked by the dictionary :func:`ze_to_wa`, which spells
an index as the letter word (e_r, 0^{s_r - 1}, ..., e_1, 0^{s_1 - 1})
with cumulative colours e_j = exp(-2 pi i (eps_1 + ... + eps_j)), the
inverse roots that make Wa the iterated-integral form of the sum.  Words
in the image of the dictionary inherit their sign convention from the
sum side; standalone words outside it (for instance with colours of
denominator larger than the supported 12) evaluate fine but carry a
``flagged`` marker recording that the sign convention is not anchored.

Products: :func:`stuffle_product` expands Ze(a) * Ze(b) over the
quasi-shuffle of the (s, eps) letter sequences, and
:func:`verify_relation` checks both that expansion and the shuffle
expansion of the corresponding words numerically against the product,
reporting decompositions, residuals, and error budgets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from math import ceil, comb, factorial, isqrt, log, log2, pi, prod, sin
from operator import mul

import mpmath
from mpmath.libmp import from_man_exp, mpf_add, round_ceiling

from . import _work
from ._chebyshev import (_rotation, _values, endpoint_series,
                         iterated_levels, panel_bound, rounded_up, segment)
from ._record import Record
from .errors import DivergentIndexError, check_prec
from .series import _bernoulli
from .words import Word, shuffle, stuffle

__all__ = [
    "MzvIndex",
    "WaWord",
    "Evaluation",
    "RelationCheck",
    "RelationReport",
    "ze_eval",
    "wa_eval",
    "ze_to_wa",
    "stuffle_product",
    "verify_relation",
    "MAX_DEPTH",
    "MAX_WEIGHT",
    "MAX_COLOUR_DENOMINATOR",
    "MAX_CUTOFF",
    "DEFAULT_CUTOFF",
]

MAX_DEPTH = 4
MAX_WEIGHT = 12
MAX_COLOUR_DENOMINATOR = 12
# The largest cutoff ze_eval accepts: its prefix sums hold depth lists of
# cutoff entries, so a larger one would take minutes and gigabytes.
MAX_CUTOFF = 10**6
# The cutoff ze_eval's ladder starts from, the smallest it accepts: the
# ladder doubles it until the predicted remainders fit, paying only the
# tails at each rejected step.
DEFAULT_CUTOFF = 64


def _as_colour(value) -> Fraction:
    """Coerce a colour to an exact Fraction reduced modulo 1."""
    if isinstance(value, float):
        raise TypeError("colours must be exact rationals, not floats")
    return Fraction(value) % 1


class MzvIndex(Record, frozen=True):
    """An index (s, eps) of a coloured nested harmonic sum.

    ``s`` is a tuple of positive integer exponents, ``s[0]`` attached to
    the outermost (largest) summation variable.  ``eps`` is a tuple of
    rational colours modulo 1, one per exponent; it defaults to all
    zeros.  The divergent head (s_1, eps_1) = (1, 0) is rejected.
    """

    s: tuple
    eps: tuple = ()

    def __post_init__(self):
        s = tuple(int(x) for x in self.s)
        if any(x <= 0 for x in s):
            raise ValueError(f"exponents must be positive integers, got {s}")
        eps_in = tuple(self.eps) if self.eps else (0,) * len(s)
        if len(eps_in) != len(s):
            raise ValueError("eps must have one colour per exponent")
        eps = tuple(_as_colour(e) for e in eps_in)
        for e in eps:
            if e.denominator > MAX_COLOUR_DENOMINATOR:
                raise ValueError(
                    f"colour {e} has denominator {e.denominator}; only "
                    f"denominators up to {MAX_COLOUR_DENOMINATOR} are supported"
                )
        if s and s[0] == 1 and eps[0] == 0:
            raise DivergentIndexError(
                "head (s, eps) = (1, 0) makes the nested sum diverge",
                s=list(s),
                eps=[str(e) for e in eps],
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "eps", eps)

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def weight(self) -> int:
        return sum(self.s)

    def is_real(self) -> bool:
        """Whether every colour is trivial, making the sum real."""
        return all(e == 0 for e in self.eps)

    def letters(self) -> Word:
        """The (s, eps) letter sequence, for stuffle combinatorics."""
        return Word(tuple(zip(self.s, self.eps)))

    def __str__(self):
        if self.is_real():
            return f"Ze{self.s}"
        return f"Ze(s={self.s}, eps=({', '.join(str(e) for e in self.eps)}))"


class WaWord(Record, frozen=True):
    """A word of integral letters, each 0 or a root of unity.

    Letters are stored as phases: ``None`` for the letter 0, otherwise a
    Fraction q modulo 1 standing for exp(2 pi i q).  The constructor also
    accepts the values 0, 1 and -1 directly.  Integrability demands a
    nonzero first letter and a last letter different from 1; words
    violating it are rejected, since the extension past divergent words
    is out of scope here.
    """

    phases: tuple

    def __post_init__(self):
        coerced = []
        for entry in self.phases:
            if entry is None or (isinstance(entry, int) and entry == 0):
                coerced.append(None)
            elif isinstance(entry, int) and entry == 1:
                coerced.append(Fraction(0))
            elif isinstance(entry, int) and entry == -1:
                coerced.append(Fraction(1, 2))
            elif isinstance(entry, Fraction):
                coerced.append(entry % 1)
            else:
                raise TypeError(
                    f"letter {entry!r} is not 0, 1, -1, or a Fraction phase"
                )
        if not coerced:
            raise ValueError("a word needs at least one letter")
        if coerced[0] is None:
            raise DivergentIndexError(
                "first letter 0 makes the iterated integral diverge at 0"
            )
        if coerced[-1] == 0:
            raise DivergentIndexError(
                "last letter 1 makes the iterated integral diverge at 1"
            )
        object.__setattr__(self, "phases", tuple(coerced))

    @property
    def length(self) -> int:
        return len(self.phases)

    @property
    def zero_count(self) -> int:
        return sum(1 for p in self.phases if p is None)

    def letter_values(self):
        """The letters at working precision: real for 0, 1 and -1, exact-phase
        complex numbers otherwise."""
        out = []
        for p in self.phases:
            if p is None:
                out.append(mpmath.mpf(0))
            elif p == 0:
                out.append(mpmath.mpf(1))
            elif p == Fraction(1, 2):
                out.append(mpmath.mpf(-1))
            else:
                out.append(mpmath.expjpi(2 * mpmath.mpf(p.numerator) / p.denominator))
        return out

    def word(self) -> Word:
        """The phase tuple as a word, for shuffle combinatorics."""
        return Word(self.phases)

    def __str__(self):
        names = []
        for p in self.phases:
            if p is None:
                names.append("0")
            elif p == 0:
                names.append("1")
            elif p == Fraction(1, 2):
                names.append("-1")
            else:
                names.append(f"e({p})")
        return f"Wa({', '.join(names)})"


class Evaluation(Record, frozen=True):
    """A numeric value with its reported absolute error.

    ``certified`` records whether the error is a guaranteed bound of the
    distance from the exact value; both evaluators prove theirs (the
    nested sums from their remainders and rounding count, the simplex
    quadrature from its endpoint series and its Chebyshev panel bound).
    ``flagged`` marks integral words outside the dictionary image, whose
    sign convention is not anchored by a sum.
    """

    value: object
    error: object
    certified: bool
    flagged: bool = False


# ---------------------------------------------------------------------------
# Certified asymptotic tails, in fixed point.
#
# A _TailForm represents a function of an integer argument n > cutoff:
#
#     f(n) = Z^n * (c[0] n^{-t} + c[1] n^{-t-1} + ... + c[K] n^{-t-K} + d(n))
#
# with Z = exp(2 pi i q) and a remainder certified by |d(n)| <= R n^{-t-K-1}.
# The engine below closes this class of forms under the operation
# "sum the tail":  W(m) = sum over n > m of f(n), for m >= cutoff.
#
# Numbers are Python ints in units u = 2^-P.  The coefficients are lanes
# (real, imaginary or None) and R an int rounded up.  Beside each
# coefficient c~[k] the form keeps an int err[k] with |c~[k] - c[k]| <=
# err[k] u, where c[k] is what exact arithmetic would give: a linear step
# carries err by the moduli of its weights, and each floor adds one unit
# per lane.  Remainders are bounded from the moduli of the computed
# coefficients plus err, so they also bound the exact ones.
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    """The ceiling of a / b for b > 0."""
    return -(-a // b)


def _size(re: int, im) -> int:
    """An int at least |re + i im|, an im of None standing for zero."""
    if im is None:
        return abs(re)
    return isqrt(re * re + im * im) + 1


def _modulus(c, k: int) -> int:
    """An int at least the modulus of entry k of the lanes c."""
    re, im = c
    return _size(re[k], None if im is None else im[k])


@lru_cache(maxsize=1024)
def _direct_root(q: Fraction, P: int):
    """exp(2 pi i q) for a reduced phase q as (nint(2^P re), nint(2^P im)):
    libmp's cos(pi x) and sin(pi x) at x = 2q, both rounded to nearest at
    P + 16 bits, then scaled and rounded to the nearest integers, one
    libmp call."""
    _work.add(("roots", q.denominator, P))
    with mpmath.workprec(P + 16):
        z = mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
        return int(mpmath.nint(mpmath.ldexp(z.real, P))), \
            int(mpmath.nint(mpmath.ldexp(z.imag, P)))


@lru_cache(maxsize=64)
def _roots(d: int, P: int):
    """:func:`_direct_root` of k / d for k = 0 .. d - 1, from one
    :func:`~resurgence._chebyshev._rotation` by exp(2 pi i / d): a libmp
    call for its seed, and one for each root it cannot tell."""
    _work.add(("roots", d, P))
    return tuple(_direct_root(Fraction(k, d), P) if None in pair else pair
                 for k, pair in enumerate(_rotation(Fraction(2, d), d, P)))


def _unit_root(q: Fraction, P: int):
    """exp(2 pi i q) for a reduced phase q as (nint(2^P re), nint(2^P im)),
    each part within one unit 2^-P, so within 2 units in modulus, as
    :func:`_direct_root` gives it.  A colour's denominator is at most
    MAX_COLOUR_DENOMINATOR, and its roots are read from the table
    :func:`_roots`; a sum of colours can have a larger one (1260 for
    denominators 4, 5, 7 and 9), of which a nested sum reads a few roots,
    so those are computed one by one."""
    if q.denominator > MAX_COLOUR_DENOMINATOR:
        return _direct_root(q, P)
    return _roots(q.denominator, P)[q.numerator]


class _TailForm(Record):
    q: Fraction
    t: int
    c: tuple
    err: list
    R: int
    cutoff: int
    P: int

    @property
    def order(self) -> int:
        return len(self.err) - 1

    def value_at(self, m: int):
        """((real, imaginary or None), err): the expansion at n = m in
        units u, Horner's rule with one floor per lane and step, times the
        phase Z^m from :func:`_unit_root`; err bounds its distance in
        units from the value of the exact coefficients."""
        width = 1 if self.c[1] is None else 2
        scale = m ** self.t
        out = []
        for lane in self.c:
            if lane is not None:
                acc = 0
                for x in reversed(lane):
                    acc = acc // m + x
                lane = acc // scale
            out.append(lane)
        err = 0
        for e in reversed(self.err):
            err = _ceil_div(err, m) + e + width
        err = _ceil_div(err, scale) + width
        if self.q:
            zr, zi = _unit_root(self.q * m % 1, self.P)
            re, im = out[0], out[1] or 0
            out = [(re * zr - im * zi) >> self.P, (re * zi + im * zr) >> self.P]
            # |Z - Z~| <= 2 units, and the product adds one floor per lane
            err += _ceil_div(2 * _size(re, im), 1 << self.P) + 2
        return tuple(out), err

    def error_at(self, m: int) -> int:
        """R m^-(t + K + 1) in units, rounded up."""
        return _ceil_div(self.R, m ** (self.t + self.order + 1))


@lru_cache(maxsize=4096)
def _binom_tail_bound(x: int, top: int, cutoff: int) -> Fraction:
    """An exact bound B with  sum_{l > top} C(x+l-1, l) n^{-l} <= B n^{-top-1}
    for all n > cutoff.  Successive term ratios are at most
    (x + top + 1) / ((top + 2) cutoff), so the series is dominated by a
    geometric one starting at its first term."""
    ratio = Fraction(x + top + 1, (top + 2) * cutoff)
    if ratio >= 1:
        raise ValueError("cutoff too small for certified tail expansions")
    return comb(x + top, top + 1) / (1 - ratio)


@lru_cache(maxsize=256)
def _shift_rows(t: int, K: int):
    """Row i holds the weights (-1)^(i-j) C(t+i-1, i-j), j = 0 .. i, of
    (m+1)^(-t-j) in the coefficient of m^(-t-i)."""
    return tuple(tuple((-1) ** (i - j) * comb(t + i - 1, i - j)
                       for j in range(i + 1)) for i in range(K + 1))


def _sizes(c, err) -> list:
    """Ints at least |c[k]| + err[k]: the moduli of the exact coefficients
    that the lanes c approximate within err."""
    return [_modulus(c, k) + e for k, e in enumerate(err)]


def _remainder(sizes, t: int, cutoff: int) -> int:
    """sum over j of sizes[j] B(t + j, K - j, cutoff) in units, rounded
    up: the binomial truncation tails of re-expanding coefficients of
    moduli at most sizes in powers of m."""
    K = len(sizes) - 1
    rem = 0
    for j, size in enumerate(sizes):
        b = _binom_tail_bound(t + j, K - j, cutoff)
        rem += _ceil_div(size * b.numerator, b.denominator)
    return rem


def _shift_down(c, err, t: int):
    """Re-expand  sum_k c[k] (m+1)^{-t-k}  in powers of m.

    Returns (c', err') in the same slot convention: the binomial weights
    are integers, so c' is exact and err' carries err by their moduli.
    For m >= cutoff the truncation tails, at exponent -(t + K + 1), are
    at most :func:`_remainder` of ``_sizes(c, err)``.
    """
    rows = _shift_rows(t, len(err) - 1)
    out = tuple(None if lane is None else [sum(map(mul, row, lane)) for row in rows]
                for lane in c)
    err_out = [sum(abs(w) * e for w, e in zip(row, err)) for row in rows]
    return out, err_out


class _TailLevel(Record):
    """One summed level: the coefficients of its tail form, which do not
    depend on the cutoff, and ``remainder(R, N)``, the certified remainder
    of the sum at the cutoff N of a summand whose own remainder is R."""
    q: Fraction
    t: int
    c: tuple
    err: list
    P: int
    remainder: object

    def at(self, R: int, N: int) -> _TailForm:
        return _TailForm(self.q, self.t, self.c, self.err,
                         self.remainder(R, N), N, self.P)


def _tail_abel(q: Fraction, t: int, c, err, P: int) -> _TailLevel:
    """Sum the tail of a form with nontrivial phase, by the exact
    first-order recurrence v(a) - Z v(a+1) = g(a) solved order by order.

    Each order is one complex integer division by 1 - Z~, with Z~ from
    :func:`_unit_root`.  Output slots shrink by one: the recurrence's
    certified remainder lives one power higher than the input's."""
    K = len(err) - 1
    zr, zi = _unit_root(q, P)
    dr, di = (1 << P) - zr, -zi
    norm = dr * dr + di * di
    # |1 - Z| and |1 - Z~| are both at least low units
    low = isqrt(norm) - 2
    cr, ci = c[0], c[1] or [0] * (K + 1)
    vr, vi, verr = [], [], []
    for i, row in enumerate(_shift_rows(t, K)):
        w = row[:i]
        ir, ii = sum(map(mul, w, vr)), sum(map(mul, w, vi))
        # a = c[i] + Z inner in units u^2, exactly
        ar = (cr[i] << P) + zr * ir - zi * ii
        ai = (ci[i] << P) + zr * ii + zi * ir
        vr.append((ar * dr + ai * di) // norm)
        vi.append((ai * dr - ar * di) // norm)
        # |a - a~| <= err[i] + |inner - inner~| + |Z - Z~| |inner~|, and
        # a / (1 - Z) - a~ / (1 - Z~) adds |a~| |Z - Z~| / (low u)^2
        aerr = (err[i] + sum(abs(x) * e for x, e in zip(w, verr))
                + _ceil_div(2 * _size(ir, ii), 1 << P))
        verr.append(_ceil_div(aerr << P, low)
                    + _ceil_div(2 * _size(ar, ai), low * low) + 2)
    zv = ([(zr * a - zi * b) >> P for a, b in zip(vr, vi)],
          [(zr * b + zi * a) >> P for a, b in zip(vr, vi)])
    zerr = [e + _ceil_div(2 * _modulus((vr, vi), j), 1 << P) + 2
            for j, e in enumerate(verr)]
    shifted, serr = _shift_down(zv, zerr, t)
    v_sizes, z_sizes = _sizes((vr, vi), verr), _sizes(zv, zerr)
    last = _modulus(shifted, K) + serr[K]

    def remainder(R, N):
        unrolled = _ceil_div(R + _remainder(v_sizes, t, N), t + K)
        return unrolled + last + _ceil_div(_remainder(z_sizes, t, N), N)

    return _TailLevel(q, t, tuple(lane[:K] for lane in shifted), serr[:K],
                      P, remainder)


@lru_cache(maxsize=4096)
def _em_weight(x: int, j: int) -> Fraction:
    """B_2j / (2j)! * x (x + 1) ... (x + 2j - 2), exactly: the coefficient
    of n^(-x-2j+1) in the Euler-Maclaurin expansion of sum_{n > m} n^{-x}."""
    return _bernoulli(2 * j) * prod(range(x, x + 2 * j - 1)) \
        / factorial(2 * j)


@lru_cache(maxsize=1024)
def _em_terms(x: int, room: int):
    """(slot offset, numerator, denominator) of the Euler-Maclaurin
    weights of n^-x: 1/(x-1) at offset 0, 1/2 at 1, then the Bernoulli
    weights at offsets 2j up to the first one past ``room``."""
    terms = [(0, 1, x - 1), (1, 1, 2)]
    for j in count(1):
        w = _em_weight(x, j)
        terms.append((2 * j, w.numerator, w.denominator))
        if 2 * j > room:
            return tuple(terms)


def _tail_em(q: Fraction, t: int, c, err, P: int) -> _TailLevel:
    """Sum the tail of a phase-free form by the Euler-Maclaurin expansion
    of the Hurwitz tails  sum_{n > m} n^{-x} = zeta(x, m+1).

    Requires x = t >= 2.  Each Hurwitz expansion's remainder is bounded
    in absolute value by its first omitted Bernoulli term, the classical
    envelope for completely monotone integrands; the weights are exact
    rationals, each applied as one integer multiply and floor division."""
    K = len(err) - 1
    if t < 2:
        raise ValueError("phase-free tail needs exponent at least 2")
    width = 1 if c[1] is None else 2
    out = tuple(None if lane is None else [0] * (K + 1) for lane in c)
    out_err = [0] * (K + 1)
    folded = []
    for k in range(K + 1):
        size = _modulus(c, k) + err[k]
        for offset, num, den in _em_terms(t + k, K - k):
            slot = k + offset
            if slot > K:
                folded.append((size * abs(num), den, slot - K - 1))
                continue
            for lane, src in zip(out, c):
                if lane is not None:
                    lane[slot] += src[k] * num // den
            out_err[slot] += _ceil_div(err[k] * abs(num), den) + width
    shifted, serr = _shift_down(out, out_err, t - 1)
    sizes = _sizes(out, out_err)

    def remainder(R, N):
        # the terms past slot K fold into the remainder: for n > N,
        # n^-(slot) <= (N + 1)^(K + 1 - slot) n^-(K + 1)
        rem = sum(_ceil_div(x, den * (N + 1) ** p) for x, den, p in folded)
        return rem + _remainder(sizes, t - 1, N) + _ceil_div(R, t + K)

    return _TailLevel(q, t - 1, shifted, serr, P, remainder)


def _sum_level(q: Fraction, t: int, c, err, P: int) -> _TailLevel:
    """The tail W(m) = sum over n > m of the form (q, t, c, err)."""
    _work.add("tail_levels")
    if q == 0:
        return _tail_em(q, t, c, err, P)
    return _tail_abel(q, t, c, err, P)


# ---------------------------------------------------------------------------
# Nested-sum evaluation.
# ---------------------------------------------------------------------------


def ze_eval(
    idx: MzvIndex,
    prec: int = 53,
    cutoff: int = DEFAULT_CUTOFF,
) -> Evaluation:
    """Evaluate a nested harmonic sum with a guaranteed error bound.

    The simplex below a cutoff N is summed by cumulative prefix sums; the
    part where at least one variable exceeds N is split by the deepest
    such variable, which factors it into a computed partial sum times a
    pure tail.  Pure tails are completed by the certified expansion
    engine with a number of retained correction powers beyond the
    leading ones.  Both run in fixed point (Python ints scaled by
    2^(prec + 56)), and a proved rounding term, carried through the
    levels, bounds every floor of the sums, the tails and their products.
    The returned error adds every certified remainder, that rounding term
    and one unit 2^-prec (1 + |value|) for the final rounding to ``prec``
    bits.

    That number is 4 + max(0, prec - 53) // 5, one more power per 5
    bits, but at most half of N * |1 - z| (and at least 4), where z runs
    over the levels' accumulated colours exp(2 pi i (eps_1 + ... +
    eps_j)) other than 1: the tails of those levels are expansions in
    1/(N |1 - z|), which diverge past about that order.

    N is chosen before anything is summed.  At each N of the ladder
    ``cutoff``, 2 ``cutoff``, ... (DEFAULT_CUTOFF = 64 by default, never
    past MAX_CUTOFF) the tails are built, and their remainders are
    predicted with a proved bound on the partial sums they multiply; the
    first N whose predicted remainder fits under half a unit 2^-prec is
    summed, once (the last one when none fits).  The prediction bounds
    the remainder reported, so where it fits the error is under
    2^(1 - prec) (1 + |value|), within one unit of what any cutoff gives,
    that of 10^4 with 4 terms included.  ``cutoff`` must lie in
    [64, MAX_CUTOFF] and ``prec`` must be at least MIN_PREC.  A repeated
    call returns the identical Evaluation.
    """
    check_prec(prec)
    if not isinstance(idx, MzvIndex):
        idx = MzvIndex(tuple(idx))
    if idx.depth == 0:
        return Evaluation(mpmath.mpf(1), mpmath.mpf(0), certified=True)
    if idx.depth > MAX_DEPTH:
        raise ValueError(f"depth {idx.depth} exceeds the supported {MAX_DEPTH}")
    if idx.weight > MAX_WEIGHT:
        raise ValueError(f"weight {idx.weight} exceeds the supported {MAX_WEIGHT}")
    if cutoff < 64:
        raise ValueError("cutoff below 64 leaves no room for certified tails")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the supported {MAX_CUTOFF}")
    return _ze_chosen(idx, prec, int(cutoff))


def _default_terms(idx: MzvIndex, prec: int, cutoff: int) -> int:
    """ze_eval's tail terms: one more power per 5 bits past 53, capped by
    half the turns cutoff * |1 - z| of every accumulated colour z other
    than 1 (but never below 4)."""
    terms = 4 + max(0, prec - 53) // 5
    for q in accumulate(idx.eps, lambda a, b: (a + b) % 1):
        if q:
            turns = cutoff * 2 * sin(pi * min(q, 1 - q))
            terms = min(terms, max(4, int(turns) // 2))
    return terms


# Guard bits of ze_eval's fixed point: it computes in units 2^-P with
# P = prec + _FIX_GUARD.  The proved rounding term of the prefix sums is a
# few units times cutoff * |inner sums| per level, at most about
# 2^-(prec + 34) for supported indices at the cutoff 1024 (2^-(prec + 29)
# at 16384 and 2^-(prec + 22) at 2^19, the largest cutoff of ze_eval's
# ladder); that of the tails and of their products with the sums at most
# about 2^-(prec + 46).  Both stay far under the half unit 2^-(prec + 1)
# that the ladder leaves them.
_FIX_GUARD = 56


def _fixed_mul(xr, xi, yr, yi, P: int):
    """floor(x * y / 2^P) entry by entry for complex lanes of fixed-point
    ints, an imaginary lane of None standing for zero.  Each product is
    exact; each output lane adds one floor, less than one unit 2^-P."""
    if xi is None and yi is None:
        return [(a * c) >> P for a, c in zip(xr, yr)], None
    if xi is None:
        xr, xi, yr, yi = yr, yi, xr, xi
    if yi is None:
        return ([(a * c) >> P for a, c in zip(xr, yr)],
                [(b * c) >> P for b, c in zip(xi, yr)])
    return ([(a * c - b * d) >> P for a, b, c, d in zip(xr, xi, yr, yi)],
            [(a * d + b * c) >> P for a, b, c, d in zip(xr, xi, yr, yi)])


# Sums of the same exponent and precision share their powers: the longest
# list built per (s, P) is kept and extended, and the colours are repeats
# of one cached row per (q, P).
@lru_cache(maxsize=4)
def _power_store(s: int, P: int) -> list:
    return []


def _powers(s: int, P: int, N: int) -> list:
    """floor(2^P n^-s) for n = 1 .. N."""
    a = _power_store(s, P)
    if len(a) < N:
        one = 1 << P
        a.extend(one // n**s for n in range(len(a) + 1, N + 1))
    return a[:N]


@lru_cache(maxsize=64)
def _colour_row(q: Fraction, P: int):
    """exp(2 pi i q n) for n = 1 .. d, d the denominator of q, as (real,
    imaginary) lanes of :func:`_unit_root`."""
    d = q.denominator
    roots = _roots(d, P)
    row = [roots[q.numerator * n % d] for n in range(1, d + 1)]
    return [z[0] for z in row], [z[1] for z in row]


def _fixed_colour(q: Fraction, P: int, N: int):
    """The colour exp(2 pi i q n) for n = 1 .. N as lanes of nint(2^P x),
    each part within one unit 2^-P; no imaginary lane for q = 1/2."""
    re, im = _colour_row(q, P)
    reps = N // len(re) + 1
    return (re * reps)[:N], (im * reps)[:N] if any(im) else None


def _prefix_sums(idx: MzvIndex, N: int, P: int):
    """Fixed-point prefix sums, for every level j and n <= N + 1, of
    S_j(n) = sum over n > m_j > ... > m_r > 0 of prod_{i >= j} of
    z_i^{m_i} m_i^{-s_i}, with z_i = exp(2 pi i eps_i).

    Returns (tops, err): tops[j] = S~_j(N + 1) as a (real, imaginary or
    None) pair of ints scaled by 2^P, with tops[r + 1] = 1, and err[j] an
    int proved to bound |S~_j(n) - S_j(n)| in units u = 2^-P for every n.
    The bound: a~ = floor(2^P n^-s) / 2^P is within u below a = n^-s, and
    each part of the colour c~ is within u of c, so the coloured factor
    g~ = floor(a~ c~) is within 6u of a c (within u when uncoloured, g~ =
    a~).  The level-j summand floor(g~ S~_{j+1}(n)), with L lanes, is then
    within  L u + 6u |S~_{j+1}(n)| + a |S~_{j+1}(n) - S_{j+1}(n)|  of its
    true value, and prefix sums of ints add no rounding."""
    r = idx.depth
    _work.add(("cutoff", N))
    _work.add("prefix_terms", r * N)
    one = 1 << P
    tops = [None] * (r + 2)
    err = [0] * (r + 2)
    tops[r + 1] = (one, None)
    inner = None
    for j in range(r, 0, -1):
        s_j, e_j = idx.s[j - 1], idx.eps[j - 1]
        a = _powers(s_j, P, N)
        if e_j == 0:
            lanes, slack = (a, None), 1
        else:
            lanes, slack = _fixed_mul(a, None, *_fixed_colour(e_j, P, N), P), 6
        if inner is None:
            err[j] = N * slack
        else:
            lanes = _fixed_mul(*lanes, *inner, P)
            width = 1 if lanes[1] is None else 2
            size = sum(max(map(abs, lane)) for lane in inner if lane is not None)
            a_sum = sum(a) + N  # bounds 2^P * sum of n^-s_j over n <= N
            # -(-x >> P) is the ceiling of x / 2^P
            err[j] = (N * width - (-N * slack * size >> P)
                      - (-err[j + 1] * a_sum >> P))
        inner = tuple(lane if lane is None else list(accumulate(lane, initial=0))
                      for lane in lanes)
        tops[j] = tuple(lane if lane is None else lane[-1] for lane in inner)
    return tops, err


def _tail_chain(idx: MzvIndex, P: int, terms: int) -> list:
    """The pure tails' levels, whose coefficients do not depend on the
    cutoff: level j - 1 sums W_j(m), the sum over n_1 > ... > n_j > m of
    the first j levels' summands, with ``terms`` correction powers and
    the depth plus 2 more, so that each summed level keeps ``terms`` past
    its leading ones."""
    K0 = terms + idx.depth + 2
    q, t, c, err = Fraction(0), 0, ([1 << P] + [0] * K0, None), [0] * (K0 + 1)
    chain = []
    for s_j, q_j in zip(idx.s, idx.eps):
        level = _sum_level((q_j + q) % 1, s_j + t, c, err, P)
        chain.append(level)
        q, t, c, err = level.q, level.t, level.c, level.err
    return chain


def _tail_forms(chain: list, N: int) -> list:
    """The tail forms of :func:`_tail_chain` at the cutoff N, each level's
    remainder carried into the next."""
    R, forms = 0, []
    for level in chain:
        forms.append(level.at(R, N))
        R = forms[-1].R
    return forms


def _predicted_remainder(idx: MzvIndex, N: int, P: int, forms: list) -> int:
    """An int at least the remainder that :func:`_telescope` reports at N
    with these forms, in units 2^-P, known before any prefix sum.

    Form j's certified remainder multiplies |S~_{j+1}(N + 1)| plus its
    rounding term; |S_{j+1}(N + 1)| is at most the product over the
    levels i > j of the partial sums of n^-s_i up to N, each at most
    1 + ln N for s_i = 1 and zeta(s_i) <= 2 otherwise.  Both exceed those
    sums by more than 1/3 at N >= 64 (H_N <= ln N + 0.59), far more than
    the rounding terms and the float ln N can take, so the product, taken
    up to units, bounds what the prefix sums will give."""
    one = 1 << P
    size, predicted = one, 0
    for j in range(idx.depth, 0, -1):
        predicted += _ceil_div(forms[j - 1].error_at(N) * size, one)
        b = Fraction(2 if idx.s[j - 1] > 1 else 1 + log(N))
        size = _ceil_div(size * b.numerator, b.denominator)
    return predicted


def _choose_cutoff(idx: MzvIndex, prec: int, cutoff: int):
    """(N, forms, predicted): the first N of the ladder cutoff, 2 cutoff,
    ... whose predicted remainder fits under half a unit 2^-prec, or the
    last one not past MAX_CUTOFF, with its tail forms and that prediction
    in units 2^-(prec + _FIX_GUARD).  A rejected N costs only its tails'
    remainders, or their coefficients too where it keeps fewer terms
    than the next.

    Half a unit leaves the rounding term the other half: an error that
    adds one unit 2^-prec (1 + |value|) stays under 2^(1 - prec) (1 +
    |value|)."""
    P = prec + _FIX_GUARD
    goal = 1 << (_FIX_GUARD - 1)
    N, built = cutoff, None
    while True:
        terms = _default_terms(idx, prec, N)
        if terms != built:
            chain, built = _tail_chain(idx, P, terms), terms
        try:
            forms = _tail_forms(chain, N)
        except ValueError:
            # the binomial re-expansions of this many terms need a larger N
            N *= 2
            continue
        predicted = _predicted_remainder(idx, N, P, forms)
        if predicted <= goal or 2 * N > MAX_CUTOFF:
            return N, forms, predicted
        N *= 2


def _telescope(idx: MzvIndex, N: int, P: int, forms: list):
    """The nested sum in units u = 2^-P from the prefix sums below N and
    the pure tails ``forms`` at N: (value, rounding, remainder) with
    value a (real, imaginary or None) pair of ints, rounding an int
    bounding its distance from the same prefix sums and tail expansions
    in exact arithmetic, and remainder an int bounding the tails'
    certified remainders.

    The tails are telescoped: the sum over the deepest level j still
    above the cutoff of (pure j-tail at N) times (prefix sum below N).
    Each product adds one floor per lane, and the errors of both factors
    carry into it, the prefix sums' err as rounding and the tails'
    remainders, times the prefix sums, as remainder."""
    tops, err = _prefix_sums(idx, N, P)
    (vr, vi), rounding, remainder = tops[1], err[1], 0
    for j, W in enumerate(forms, 1):
        ((tr, ti), tail_err), (wr, wi) = W.value_at(N), tops[j + 1]
        vr += (tr * wr - (ti or 0) * (wi or 0)) >> P
        if ti is not None or wi is not None:
            vi = (vi or 0) + ((tr * (wi or 0) + (ti or 0) * wr) >> P)
        # |T W - T~ W~| <= |T - T~| (|W~| + err) + |T~| err, plus the floors
        w_size = _size(wr, wi) + err[j + 1]
        rounding += (_ceil_div(tail_err * w_size + _size(tr, ti) * err[j + 1],
                               1 << P) + (1 if vi is None else 2))
        remainder += _ceil_div(W.error_at(N) * w_size, 1 << P)
    return (vr, vi), rounding, remainder


def _evaluation(idx: MzvIndex, prec: int, fixed) -> Evaluation:
    """The Evaluation of a result of :func:`_telescope` at P = prec +
    _FIX_GUARD: value and bound convert to mpmath once, the bound rounded
    up, and the bound gains one unit 2^-prec (1 + |value|) for the
    value's rounding to ``prec`` bits."""
    P = prec + _FIX_GUARD
    (re, im), rounding, remainder = fixed
    with mpmath.workprec(prec):
        value = mpmath.mpf((re, -P))
        if not idx.is_real():
            value = mpmath.mpc(value, mpmath.mpf((im or 0, -P)))
        unit = mpmath.ldexp(1 + abs(value), -prec)._mpf_
        bound = mpf_add(from_man_exp(rounding + remainder, -P, prec, round_ceiling),
                        unit, prec, round_ceiling)
        return Evaluation(value, mpmath.mpf(bound), certified=True)


@lru_cache(maxsize=512)
def _ze_chosen(idx: MzvIndex, prec: int, cutoff: int) -> Evaluation:
    """The body of :func:`ze_eval` for a validated index, memoised: the
    cutoff from :func:`_choose_cutoff` and one telescoped sum there."""
    P = prec + _FIX_GUARD
    N, forms, predicted = _choose_cutoff(idx, prec, cutoff)
    fixed = _telescope(idx, N, P, forms)
    _work.add(("remainder", N, P, predicted, fixed[2]))
    return _evaluation(idx, prec, fixed)


# ---------------------------------------------------------------------------
# Simplex quadrature for the integral twin.
# ---------------------------------------------------------------------------


def _decode_word(w: WaWord) -> MzvIndex:
    """Invert the dictionary: split the word into blocks, one nonzero
    letter plus its following zeros each, negate the phases back to
    cumulative colours and difference them.  Raises if a decoded colour
    falls outside the supported denominators."""
    blocks = []
    for p in w.phases:
        if p is not None:
            blocks.append([p, 1])
        else:
            blocks[-1][1] += 1
    blocks.reverse()
    s = tuple(count for _, count in blocks)
    eps = []
    previous = Fraction(0)
    for phase, _ in blocks:
        eps.append((previous - phase) % 1)
        previous = phase
    return MzvIndex(s, tuple(eps))


def _right_distance(w: WaWord) -> float:
    """d, the least |1 - a| = 2 sin(pi q) over the letters a = exp(2 pi i q)
    other than 0 and 1, as a double; 1 when there is none."""
    return min((2 * sin(pi * min(p, 1 - p)) for p in w.phases if p),
               default=1)


def _right_exponent(w: WaWord) -> int:
    """e with h_1 = 2^-e the largest power of two at most min(1/8, d / 4)."""
    return max(3, ceil(log2(4 / _right_distance(w))))


def wa_eval(w: WaWord, prec: int = 53) -> Evaluation:
    """Evaluate an iterated simplex integral with a proved error bound.

    The path [0, 1] is split at h_0 = 1/8 and 1 - h_1, where h_1 is the
    largest power of two at most min(1/8, d / 4) and d the least distance
    |1 - a| of a letter a other than 0 and 1 (h_1 = 1/8 for every colour
    of denominator up to 12).  The two endpoint slivers are summed exactly
    as Taylor series (:func:`~resurgence._chebyshev.endpoint_series`):
    every prefix F_j(h_0) of the word at 0, and every suffix G_j at 1,
    which with z = 1 - u is (-1)^(l - j) times the prefix integral of the
    reversed word of letters 1 - a over [0, h_1].  The middle runs on
    straight spectral panels graded by factors of 2, [1/8, 1/4, 1/2,
    3/4, ..., 1 - h_1], four for real words, seeded with the F_j(h_0)
    and returning every F_j(1 - h_1); the value is the sum over j of
    F_j(1 - h_1) G_j (Chen's identity).  The panels run once, at the
    degree :func:`~resurgence._chebyshev.panel_bound` picks: the panels'
    Bernstein parameters are about 5.8, which gives 24 nodes for most
    words at 53 bits, and the degree grows in proportion to ``prec``.

    The reported error is the sum of four proved terms, computed at
    prec + 24 bits and rounded up:

    * the panel term of :func:`~resurgence._chebyshev.panel_bound`, with
      each F_j weighted by |G_j| plus the series bound b_1, at most a
      quarter unit 2^-(prec + 2);
    * the series bounds: the bound b_1 of each G_j times |F_j|, and the
      bound b_0 of the prefixes carried to 1 - h_1 times |G_j| + b_1.
      Carried, b_0 grows at most to 2 b_0 / h_1: on [h_0, 1 - h_1] every
      kernel is at most max(1 / z, 1 / (1 - z)), which integrates to
      log(2 / h_1), so each integral over the middle of k letters is at
      most log(2 / h_1)^k / k!.  Both bounds include the letters' own
      rounding: the letters lie within delta = 16 units 2^-p (p = prec
      + 24) of the ones meant, and their differences from 1 within 18,
      and in a sliver whose least nonzero letter is r, where every
      kernel is within 3 delta / r of its exact value relative to the
      majorant of :func:`~resurgence._chebyshev.endpoint_series`, a
      level of l letters moves by at most 6 l delta / r;
    * the rounding term: the rounding count of ``panel_bound``, and the
      suffixes' conversion, the products and their sum at p bits;
    * the unit 2^-prec (1 + |value|).

    So ``certified`` is True.  Words outside the dictionary image are
    evaluated with the same sign convention and marked ``flagged``.
    ``prec`` must be at least MIN_PREC, and a word at most MAX_WEIGHT
    letters long.
    """
    check_prec(prec)
    if not isinstance(w, WaWord):
        w = WaWord(tuple(w))
    if w.length > MAX_WEIGHT:
        raise NotImplementedError(
            f"words longer than {MAX_WEIGHT} letters are out of scope"
        )
    try:
        _decode_word(w)
        flagged = False
    except ValueError:
        flagged = True

    right = _right_exponent(w)
    with mpmath.workprec(prec + 24):
        p = mpmath.mp.prec
        alphas = w.letter_values()
        length = w.length
        start, left_bound, _ = endpoint_series(alphas, 3)
        ends, right_bound, _ = endpoint_series([1 - a for a in alphas[::-1]],
                                               right)
        # the letters lie within 16 units 2^-p of the ones meant, and the
        # letters 1 - a within 18: a sliver's levels move by at most
        # 6 l delta / r, r its least nonzero letter, 1 at 0 and
        # min(1, d) at 1, d rounded down
        left_bound += mpmath.ldexp(96 * length, -p)
        right_bound += mpmath.ldexp(108 * length, -p) \
            / (min(1, _right_distance(w)) * (1 - 2 ** -40))
        # G_j, the integral of the letters after the j-th, at index j
        suffixes = [(-1) ** (length - j) * _values(*ends[length - j], p)[0]
                    for j in range(length + 1)]
        points = ([mpmath.mpf(1) / 8, mpmath.mpf(1) / 4]
                  + [1 - mpmath.ldexp(1, -k) for k in range(1, right + 1)])
        panels = [segment(a, b) for a, b in zip(points[:-1], points[1:])]
        weights = [float(abs(g) + right_bound) * (1 + 2 ** -40)
                   for g in suffixes[1:]]
        n, panel, rounding = panel_bound(alphas, panels, weights, prec,
                                         start[1:])
        levels = [1] + iterated_levels(alphas, panels, n, start[1:])
        sign = -1 if w.zero_count % 2 else 1
        products = [f * g for f, g in zip(levels, suffixes)]
        value = sign * mpmath.fsum(products)
        carried = mpmath.ldexp(left_bound, right + 1)
        series = mpmath.fsum(abs(f) * right_bound
                             + (abs(g) + right_bound) * carried
                             for f, g in zip(levels, suffixes))
        # the suffixes' conversion, the products and their sum at p bits
        rounding += mpmath.ldexp((length + 8) * mpmath.fsum(
            map(abs, products)), 1 - p)
        unit = mpmath.ldexp(1 + abs(value), -prec)
        error = rounded_up(panel + series + rounding + unit, prec)
        _work.add(("terms", n, len(panels), float(panel), float(series),
                   float(rounding), float(unit)))

    with mpmath.workprec(prec):
        # real letters (0, 1, -1) keep the whole integration real
        return Evaluation(+value, error, certified=True, flagged=flagged)


# ---------------------------------------------------------------------------
# Dictionary and products.
# ---------------------------------------------------------------------------


def ze_to_wa(idx: MzvIndex) -> WaWord:
    """Spell an index as its integral word: innermost block first, each
    block the letter exp(-2 pi i * cumulative colour) followed by s_j - 1
    zeros.  The word length is the weight."""
    if not isinstance(idx, MzvIndex):
        idx = MzvIndex(tuple(idx))
    if idx.depth == 0:
        raise ValueError("the empty index has no integral word")
    cumulative = []
    running = Fraction(0)
    for e in idx.eps:
        running = (running + e) % 1
        cumulative.append(running)
    letters = []
    for j in range(idx.depth, 0, -1):
        letters.append(-cumulative[j - 1] % 1)
        letters.extend([None] * (idx.s[j - 1] - 1))
    return WaWord(tuple(letters))


def stuffle_product(a: MzvIndex, b: MzvIndex) -> dict:
    """Expand Ze(a) * Ze(b) as a formal sum {MzvIndex: multiplicity} via
    the quasi-shuffle of the (s, eps) letter sequences, where aligned
    letters may merge by adding exponents and colours."""
    if not isinstance(a, MzvIndex):
        a = MzvIndex(tuple(a))
    if not isinstance(b, MzvIndex):
        b = MzvIndex(tuple(b))
    out: dict = {}
    for word, mult in stuffle(a.letters(), b.letters()).items():
        s = tuple(int(pair[0]) for pair in word)
        eps = tuple(pair[1] for pair in word)
        term = MzvIndex(s, eps)
        out[term] = out.get(term, 0) + mult
    return out


def _shuffle_terms(a: MzvIndex, b: MzvIndex) -> dict:
    """Expand the product over interleavings of the integral words and
    decode each back to an index."""
    if a.depth == 0 or b.depth == 0:
        other = b if a.depth == 0 else a
        return {other: 1} if other.depth else {}
    out: dict = {}
    for word, mult in shuffle(ze_to_wa(a).word(), ze_to_wa(b).word()).items():
        term = _decode_word(WaWord(tuple(word)))
        out[term] = out.get(term, 0) + mult
    return out


class RelationCheck(Record, frozen=True):
    """One side of a product identity: its decomposition, the summed
    value, the residual against the product, and the error budget the
    residual must stay inside."""

    mode: str
    terms: tuple
    value: object
    error: object
    residual: object
    budget: object
    ok: bool


class RelationReport(Record, frozen=True):
    """The outcome of checking Ze(a) * Ze(b) against its expansions."""

    left: MzvIndex
    right: MzvIndex
    product_value: object
    product_error: object
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self, digits: int = 17) -> dict:
        """The report as JSON-ready data: values rounded to the working
        precision and printed to ``digits`` significant digits."""
        def num(x):
            x = mpmath.mpc(x)
            if x.imag == 0:
                return mpmath.nstr(x.real, digits)
            return mpmath.nstr(x, digits)

        return {
            "left": str(self.left),
            "right": str(self.right),
            "product": {
                "value": num(self.product_value),
                "error": mpmath.nstr(self.product_error, 5),
            },
            "checks": [
                {
                    "mode": check.mode,
                    "terms": [
                        {"index": str(term), "multiplicity": mult}
                        for term, mult in check.terms
                    ],
                    "value": num(check.value),
                    "error": mpmath.nstr(check.error, 5),
                    "residual": mpmath.nstr(check.residual, 5),
                    "budget": mpmath.nstr(check.budget, 5),
                    "ok": check.ok,
                }
                for check in self.checks
            ],
            "ok": self.ok,
        }


def verify_relation(
    a: MzvIndex,
    b: MzvIndex,
    prec: int = 53,
    modes: tuple = ("stuffle", "shuffle"),
) -> RelationReport:
    """Check Ze(a) * Ze(b) against its stuffle and shuffle expansions.

    Every value on both sides comes from the certified nested-sum
    evaluator, so each check's budget is a guaranteed bound and a
    failing check would be a genuine contradiction.  Failures are
    recorded in the report rather than raised.  ``modes`` must name at
    least one of "stuffle" and "shuffle": a report with no checks would
    pass vacuously."""
    if not modes:
        raise ValueError("modes must name at least one of stuffle, shuffle")
    for mode in modes:
        if mode not in ("stuffle", "shuffle"):
            raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(a, MzvIndex):
        a = MzvIndex(tuple(a))
    if not isinstance(b, MzvIndex):
        b = MzvIndex(tuple(b))
    ev_a = ze_eval(a, prec=prec)
    ev_b = ze_eval(b, prec=prec)
    with mpmath.workprec(prec + 16):
        product = ev_a.value * ev_b.value
        product_err = (
            abs(ev_a.value) * ev_b.error
            + abs(ev_b.value) * ev_a.error
            + ev_a.error * ev_b.error
        )
        checks = []
        for mode in modes:
            if mode == "stuffle":
                decomposition = stuffle_product(a, b)
            else:
                decomposition = _shuffle_terms(a, b)
            total = mpmath.mpf(0)
            side_err = mpmath.mpf(0)
            terms = tuple(
                sorted(decomposition.items(), key=lambda kv: (kv[0].s, kv[0].eps))
            )
            for term, mult in terms:
                ev = ze_eval(term, prec=prec)
                total = total + mult * ev.value
                side_err = side_err + abs(mult) * ev.error
            residual = abs(total - product)
            budget = side_err + product_err + mpmath.ldexp(1 + abs(product), -prec)
            checks.append(
                RelationCheck(
                    mode=mode,
                    terms=terms,
                    value=+total,
                    error=+side_err,
                    residual=+residual,
                    budget=+budget,
                    ok=bool(residual <= budget),
                )
            )
    with mpmath.workprec(prec):
        return RelationReport(
            left=a,
            right=b,
            product_value=+product,
            product_error=+product_err,
            checks=tuple(checks),
        )
