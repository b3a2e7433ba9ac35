"""Representable Borel transforms: exact germs, branches, singularities.

The Borel plane objects the symbolic layer works with are built from a few
closed shapes, each carried exactly:

* :class:`RationalBF`: a rational function with factored denominator over a
  declared pole set (numerators and roots are exact scalars);
* :class:`LogPoleBF`: r_0(zeta) + sum of r_i(zeta) * log(1 - zeta/a_i), the
  shape produced by convolving simple poles, with an integer branch index
  per logarithm;
* :class:`StirlingBF`: the meromorphic minor zeta^-2 (zeta/2 coth(zeta/2) - 1)
  with its lattice of simple poles at 2*pi*i*k;
* :class:`DilogBF`: the dilogarithm minor with its loop monodromy at 1;
* :class:`PowerBF`: g(sigma) zeta^(sigma-1) (optionally times log zeta) for
  fractional-power monomials, evaluated in polar form so Hankel contours can
  track the argument continuously.

Each shape carries two interfaces, each with defaults in
:class:`BorelFunction`.  The *exact* one is what extraction and the alien
operators read:

* ``log_form()`` gives (rational, [(a, r, k), ...]) for a shape that is a
  rational function plus rational multiples r of Log(1 - zeta/a) +
  2*pi*i*k, and None otherwise;
* ``singularity_at(omega)`` gives (a_0, chi) at omega on the current
  branch, ``taylor(order)`` the Taylor coefficients at the origin, and
  ``divide_linear(p)`` the shape divided by (zeta - p).  The defaults read
  all three off ``log_form`` and normalise through :func:`log_shape`; a
  shape without a log form refuses them with NotImplementedError unless
  it overrides them, as Stirling and the dilogarithm do for the first two;
* ``_with_branch_updates`` continues the shape past detours and loops.  The
  default returns the shape itself when it is ``single_valued`` or the
  path crosses nothing, and refuses any other path.

The *numeric* one holds the summation rules that :mod:`.laplace` sums
every shape through, each built once per sum: ``singular_values`` (with
the ``single_valued`` flag), ``panel_sampler``, ``ellipse_rule``,
``tail_rule`` and ``origin_head``; how a shape is evaluated on a contour
is decided here, not in the sums.  A shape need only implement
``singular_points`` and ``numeric_evaluator``: the default sampler
builds a scalar evaluator for the :class:`Contour` (the principal sheet
along a ray, ``polar_evaluator`` on a circle, the difference of two
polar sheets on a Hankel ray) and maps it over the nodes; the default
ellipse rule samples that evaluator on the boundary of a panel's
Bernstein ellipses, at points closer together than the ellipse comes to
a singular point, and is marked not proved; the other defaults take a
tail envelope sampled on the principal sheet and marked not proved, a
floor from the singular moduli and no origin head, and
``polar_evaluator`` refuses a shape that is not single-valued.  Every
sampler refuses the Hankel ray of a single-valued shape.  Each bundled
shape overrides what it knows: proved tail envelopes and ellipse
majorants (from partial fractions, the log bound, the Stirling lattice
and coth bound, the dilogarithm's inversion bound on ellipses clear of
its cut, and closed forms for power kernels), for power kernels
polar evaluation and an exact head series at the origin, and for
rational shapes, the Stirling minor and power kernels panel samples
computed in integers and libmp.  A power kernel takes t^(sigma-1) on a
ray or e^(i (sigma-1) phi) on a circle, and the lane of log t or phi when it carries a log, as a
scalar of the panel times vectors that depend only on the panel's shape
(cached per half / mid on a ray, the ray kernel at i (sigma-1) half on a
circle), and applies its sheet constants to the lanes as integer
products.  The tail envelopes integrate to incomplete-gamma
moments, Gamma(s, m T) / m^s, which :func:`_moment_integral` bounds in
closed form at a non-integer order and takes from ``mpmath.gammainc``
at an integer one.

Branch bookkeeping follows one convention throughout the package: the
principal branch uses arg in (-pi, pi], a "+" detour passes *below* the
singular point (to the right when traveling outward), and a full
counterclockwise loop adds one to a log's branch integer k, the branch value
being  principal + 2*pi*i*k.  With that convention a "+" detour at a point
leaves k unchanged (the on-cut principal value is already the lower-side
limit continued through), while a "-" detour subtracts one.

``extract_singularity`` continues a shape along a path to omega and asks
the branch reached for its simple-singularity data there: the polar
weight a_0 and the log coefficient chi with

    f(omega + xi) = a_0 / (2*pi*i*xi) + chi(xi) log(xi) / (2*pi*i) + F(xi),

where F is branch-dependent and never stored.  Exactness policy: a_0 and
chi come out in the scalar ring whenever the configuration is collinear
with rational ratios (the supported calculus); genuinely non-simple input
raises :class:`~resurgence.errors.NotSimpleError`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpc_div,
                          mpc_mul, mpf_add, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_log, mpf_mul, mpf_pi, mpf_pos, mpf_shift,
                          mpf_sub)

from . import _work
from ._chebyshev import (GUARD, NEST, _bernstein, _clearance, _complex_tuple,
                         _exponentials, _fixed, _mantissas, _nested, _nodes,
                         _plus, _product, _quotients, _scaled, _vector,
                         _node_cosines, _unit_points)
from .errors import (DecayMarginError, NotSimpleError, UnreachableBranchError,
                     UnsupportedDivisionError)
from .scalars import ExactScalar
from .series import BorelSeries, _bernoulli

__all__ = [
    "RationalFunction",
    "BorelFunction",
    "Contour",
    "RationalBF",
    "LogPoleBF",
    "StirlingBF",
    "DilogBF",
    "PowerBF",
    "PathSpec",
    "SingularityData",
    "log_shape",
    "points_between",
    "continue_along",
    "continue_eval",
    "extract_singularity",
    "convolve",
    "euler_minor",
    "stirling_minor",
    "dilog_minor",
    "power_minor",
]


# -- exact univariate polynomial helpers (coefficient lists, index = power) --------


def _poly_trim(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def _poly_divmod(num, den):
    """Exact polynomial division; the leading denominator coefficient must
    divide in the scalar ring (it is a monomial in every supported flow)."""
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    quot = [ExactScalar()] * max(0, len(num) - len(den) + 1)
    while True:
        num = _poly_trim(num)
        if len(num) < len(den):
            return _poly_trim(quot), num
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        quot[shift] = quot[shift] + c
        for i, d in enumerate(den):
            num[shift + i] = num[shift + i] - c * d


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else ExactScalar()
        b = q[i] if i < len(q) else ExactScalar()
        out.append(a + b)
    return _poly_trim(out)


def _poly_scale(p, c):
    return _poly_trim([v * c for v in p])


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [ExactScalar() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_eval(p, x: ExactScalar) -> ExactScalar:
    acc = ExactScalar()
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_shift(p, a: ExactScalar):
    """Coefficients of p(x + a) (recentring at a)."""
    out = [ExactScalar() for _ in p]
    for k, c in enumerate(p):
        if c.is_zero():
            continue
        # (x + a)^k = sum of C(k, j) a^(k-j) x^j
        for j in range(k + 1):
            out[j] = out[j] + c * math.comb(k, j) * a ** (k - j)
    return _poly_trim(out)


def _series_mul(p, q, order):
    out = [ExactScalar() for _ in range(order + 1)]
    for i, a in enumerate(p[: order + 1]):
        if a.is_zero():
            continue
        for j, b in enumerate(q[: order + 1 - i]):
            out[i + j] = out[i + j] + a * b
    return out


class RationalFunction:
    """num(zeta) / (lead * product over poles of (zeta - p)^m), all exact.

    The denominator stays factored over its declared pole set; that keeps
    residues and local expansions exact without polynomial factoring.
    """

    def __init__(self, num, poles=None, lead=1):
        self.num = _poly_trim([ExactScalar.coerce(c) for c in num])
        clean = {}
        for p, m in (poles or {}).items():
            p = ExactScalar.coerce(p)
            if m < 0:
                raise ValueError("pole multiplicities must be >= 0")
            if m:
                clean[p] = clean.get(p, 0) + m
        self.poles = clean
        self.lead = ExactScalar.coerce(lead)
        if self.lead.is_zero():
            raise ZeroDivisionError("zero leading denominator coefficient")
        if not self.num:
            self.poles = {}
            self.lead = ExactScalar.from_rational(1)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls([])

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls([c])

    @classmethod
    def simple_pole(cls, p, residue=1) -> "RationalFunction":
        """residue / (zeta - p)."""
        return cls([residue], poles={p: 1})

    def is_zero(self) -> bool:
        return not self.num

    def denominator_poly(self):
        den = [self.lead]
        for p, m in self.poles.items():
            lin = [-ExactScalar.coerce(p), ExactScalar.from_rational(1)]
            for _ in range(m):
                den = _poly_mul(den, lin)
        return den

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # common denominator: union of pole multiplicities
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = max(poles.get(p, 0), m)
        lead = self.lead * other.lead

        def lift(rf, cofactor):
            extra = [cofactor]
            for p, m in poles.items():
                need = m - rf.poles.get(p, 0)
                lin = [-p, ExactScalar.from_rational(1)]
                for _ in range(need):
                    extra = _poly_mul(extra, lin)
            return _poly_mul(rf.num, extra)

        num = _poly_add(lift(self, other.lead), lift(other, self.lead))
        return RationalFunction(num, poles=poles, lead=lead)

    def __neg__(self):
        return RationalFunction(_poly_scale(self.num, -1), poles=self.poles,
                                lead=self.lead)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = poles.get(p, 0) + m
        return RationalFunction(
            _poly_mul(self.num, other.num), poles=poles,
            lead=self.lead * other.lead,
        )

    def scale(self, c) -> "RationalFunction":
        return RationalFunction(_poly_scale(self.num, c), poles=self.poles,
                                lead=self.lead)

    def divide_linear(self, p) -> "RationalFunction":
        """Divide by (zeta - p)."""
        poles = dict(self.poles)
        key = ExactScalar.coerce(p)
        poles[key] = poles.get(key, 0) + 1
        return RationalFunction(self.num, poles=poles, lead=self.lead)

    # -- analysis -------------------------------------------------------------------

    def _reduced_at(self, p):
        """(numerator, multiplicity) at p after cancelling numerator zeros."""
        m = self.poles.get(p, 0)
        num = self.num
        while m > 0 and num and _poly_eval(num, p).is_zero():
            # divide num by (zeta - p) synthetically; the remainder is 0
            quotient = []
            carry = ExactScalar()
            for c in reversed(num):
                carry = carry * p + c
                quotient.append(carry)
            num = _poly_trim(list(reversed(quotient[:-1])))
            m -= 1
        return num, m

    def pole_order(self, p) -> int:
        p = ExactScalar.coerce(p)
        return self._reduced_at(p)[1]

    def residue(self, p) -> ExactScalar:
        """Residue at a simple pole p (exact)."""
        p = ExactScalar.coerce(p)
        num, m = self._reduced_at(p)
        if m > 1:
            raise NotSimpleError(f"pole of order {m} at {p}", point=str(p),
                                 order=m)
        if m == 0:
            return ExactScalar()
        denom = self.lead
        for q, mq in self.poles.items():
            if q != p:
                denom = denom * (p - q) ** mq
        return _poly_eval(num, p) / denom

    def exact_eval(self, x) -> ExactScalar:
        x = ExactScalar.coerce(x)
        denom = self.lead
        for p, m in self.poles.items():
            diff = x - p
            if diff.is_zero():
                raise ZeroDivisionError(f"evaluation at pole {p}")
            denom = denom * diff**m
        return _poly_eval(self.num, x) / denom

    def numeric_evaluator(self, prec: int = 53):
        """A closure z -> value rounded to ``prec`` bits.

        The coefficients, the leading factor and the poles are evaluated
        once, at the prec + 16 bits the arithmetic runs at, so a caller
        that samples many points pays for the exact constants once.
        """
        work = prec + 16
        coeffs = [c.evaluate(work) for c in reversed(self.num)]
        lead = self.lead.evaluate(work)
        poles = [(p.evaluate(work), m) for p, m in self.poles.items()]

        def evaluate(z):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(z)
                val = mpmath.mpc(0)
                for c in coeffs:
                    val = val * zv + c
                den = lead
                for p, m in poles:
                    den *= (zv - p) ** m
                out = val / den
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def numeric_eval(self, z, prec: int = 53):
        return self.numeric_evaluator(prec)(z)

    def taylor_at(self, center, order: int):
        """Exact Taylor coefficients at a regular point, as a list."""
        center = ExactScalar.coerce(center)
        num_local = _poly_shift(self.num, center)
        num_local += [ExactScalar()] * max(0, order + 1 - len(num_local))
        series = num_local[: order + 1]
        inv_lead = ExactScalar.from_rational(1) / self.lead
        series = [c * inv_lead for c in series]
        for p, m in self.poles.items():
            base = center - p
            if base.is_zero():
                raise ZeroDivisionError(f"Taylor expansion at the pole {p}")
            # 1/(xi + base)^m = base^-m * sum of C(-m, k) (xi/base)^k
            inv = []
            for k in range(order + 1):
                coeff = Fraction((-1) ** k * math.comb(m + k - 1, k))
                inv.append(base ** (-(m + k)) * coeff)
            series = _series_mul(series, inv, order)
        return series

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        left = _poly_mul(self.num, other.denominator_poly())
        right = _poly_mul(other.num, self.denominator_poly())
        return left == right

    def __repr__(self):
        if self.is_zero():
            return "<RationalFunction 0>"
        ps = ", ".join(f"{p}^{m}" if m > 1 else f"{p}"
                       for p, m in self.poles.items())
        return f"<RationalFunction deg {len(self.num) - 1} / poles [{ps}]>"


# -- path specifications -----------------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """A continuation path: the straight segment from 0 toward ``target``,
    with one sign per singular point crossed strictly inside the segment
    ("+" passes below, "-" above), plus optional full loops (point, turns)
    appended at the end (positive turns are counterclockwise).
    """

    target: object
    signs: tuple = ()
    loops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for s in self.signs:
            if s not in ("+", "-", 1, -1):
                raise ValueError(f"detour sign must be '+' or '-', got {s!r}")

    def sign_values(self):
        return tuple(1 if s in ("+", 1) else -1 for s in self.signs)


def _segment_ratio(point: ExactScalar, target: ExactScalar):
    """Exact ratio point/target when it is a rational in (0, 1), else None."""
    try:
        q = point / target
    except Exception:
        return None
    if not q.is_rational():
        return None
    r = q.as_fraction()
    if 0 < r < 1:
        return r
    return None


def _intermediate_points(singular, target):
    """Singular points strictly inside the segment (0, target), in order."""
    found = []
    for s in singular:
        r = _segment_ratio(ExactScalar.coerce(s), ExactScalar.coerce(target))
        if r is not None:
            found.append((r, ExactScalar.coerce(s)))
    found.sort(key=lambda t: t[0])
    return [s for _, s in found]


# -- tail rules -----------------------------------------------------------------------


def _moment_integral(order, m, T):
    """A bound >= the integral over [T, inf) of e^(-m t) t^(order-1) dt,
    which is Gamma(s, x) / m^s with s = order and x = m T: exact, from
    ``mpmath.gammainc``, at an integer order, and in closed form at any
    other:

    * s < 1: Gamma(s, x) <= x^(s-1) e^(-x), since t^(s-1) <= x^(s-1) for
      t >= x, and the integral of e^(-t) over [x, inf) is e^(-x);
    * s > 1 and x > s - 1: Gamma(s, x) <= x^(s-1) e^(-x) / (1 - (s-1)/x),
      since log is concave, log(t / x) <= (t - x) / x, so
      t^(s-1) <= x^(s-1) e^((s-1)(t-x)/x) for t >= x, and the integral of
      e^(-x - (1 - (s-1)/x)(t - x)) over [x, inf) is
      e^(-x) / (1 - (s-1)/x);
    * and Gamma(s, x) <= Gamma(s), the whole integral, taken as the bound
      for s > 1 up to x = s - 1 and as the min with the bound above past
      it.

    The truncation walk of the Laplace sums evaluates the bound at every
    ladder point it tries, so it needs no monotony in T (the bound has
    it: x^s e^(-x) / (x - s + 1) decreases in x, its log having
    derivative (1 - y)/(s - 1 + y) - 1/y < 0 at y = x - s + 1 > 0)."""
    x = m * T
    if mpmath.isint(order):
        _work.add("gammainc")
        with _work.timing("gammainc_s"):
            return mpmath.gammainc(order, x) / m ** order
    _work.add("closed_form")
    s1 = order - 1
    if s1 < 0:
        bound = mpmath.exp(s1 * mpmath.log(x) - x)
    else:
        bound = mpmath.gamma(order)
        if x > s1:
            bound = min(bound, mpmath.exp(s1 * mpmath.log(x) - x)
                        / (1 - s1 / x))
    return bound / m ** order


def _rotation(theta):
    """e^(-i theta), which turns the ray at angle ``theta`` onto the
    positive axis."""
    return mpmath.exp(mpmath.mpc(0, -1) * theta)


def _rotated(values, theta):
    """The points u = v e^(-i theta) of ``values``: one rotation per sum or
    tail rule, which every distance to the ray then reads."""
    rotation = _rotation(theta)
    return [v * rotation for v in values]


def _pole_tail_distance(u, T):
    """min over t >= T of |t e^(i theta) - v|, by exact geometry, for the
    rotated point u = v e^(-i theta) (:func:`_rotated`)."""
    if u.real >= T:
        return abs(u.imag)
    return abs(mpmath.mpf(T) - u)


def _partial_fractions(rat, prec):
    """(moduli of the polynomial part's coefficients, [(pole, |residue|),
    ...] of the proper part) at ``prec`` bits, or None when the division
    is not exact in the scalar ring (a leading coefficient that is not a
    monomial) or a pole is not simple; kept on ``rat`` per precision, for
    the tail and the ellipse rule of one sum."""
    built = rat.__dict__.setdefault("_fractions", {})
    key = prec, mpmath.mp.prec
    if key not in built:
        built[key] = _fractions(rat, prec)
    return built[key]


def _fractions(rat, prec):
    """:func:`_partial_fractions`, computed."""
    try:
        quot, rem = _poly_divmod(rat.num, rat.denominator_poly())
    except UnsupportedDivisionError:
        return None
    rat = RationalFunction(rem, poles=rat.poles, lead=rat.lead)
    if any(rat.pole_order(p) > 1 for p in rat.poles):
        return None
    return ([abs(c.evaluate(prec)) for c in quot],
            [(p.evaluate(prec), abs(rat.residue(p).evaluate(prec)))
             for p in rat.poles])


def _rational_envelope(rat, theta, prec):
    """A function T -> (M, poly) with |rat(t e^(i theta))| <= M + sum of
    poly[j] t^j for t >= T, or None.

    The polynomial part is bounded by the moduli of its coefficients, and
    the proper part by the partial fraction bound sum of |res_p| /
    dist(tail, p); where :func:`_partial_fractions` gives None the caller
    falls back to a sampled envelope.
    """
    parts = _partial_fractions(rat, prec)
    if parts is None:
        return None
    poly, poles = parts
    rotation = _rotation(theta)
    poles = [(v * rotation, r) for v, r in poles]

    def envelope(T):
        M = mpmath.mpf(0)
        for u, r in poles:
            M += r / _pole_tail_distance(u, T)
        return M, poly

    return envelope


def _moment_tail(m, moment, T, M, poly=()):
    """The integral over t >= T of e^(-m t) t^moment (M + sum of poly[j]
    t^j), each term by :func:`_moment_integral`."""
    tail = M * _moment_integral(moment + 1, m, T)
    for j, c in enumerate(poly):
        tail += c * _moment_integral(moment + 1 + j, m, T)
    return abs(tail)


def _sampled_tail(f, theta, m, moment, prec):
    """A bound T -> (tail bound, False) from a constant envelope sampled
    from the shape's ``numeric_evaluator`` at ``prec`` bits on the
    principal sheet of the ray at angle ``theta``: honest only for
    decaying shapes, so it is not proved."""
    evaluate = f.numeric_evaluator(prec)
    direction = mpmath.exp(mpmath.mpc(0, 1) * theta)

    def bound(T):
        samples = [abs(evaluate(T * c * direction))
                   for c in (1, mpmath.mpf(3) / 2, 2, 3, 5, 8)]
        if samples[-1] > 2 * samples[0] + 1:
            raise NotImplementedError(
                "the integrand does not appear to decay along the ray, and "
                "no proved envelope is available for this shape"
            )
        return _moment_tail(m, moment, T, 4 * max(samples)), False

    return bound


def _envelope_tail(envelope, f, theta, m, moment, prec):
    """A bound T -> (tail bound, True) from ``envelope(T)`` = (M, poly),
    or the sampled bound when ``envelope`` is None."""
    if envelope is None:
        return _sampled_tail(f, theta, m, moment, prec)
    return lambda T: (_moment_tail(m, moment, T, *envelope(T)), True)


class Contour(NamedTuple):
    """Where a Laplace sum samples a shape, in polar form zeta = r e^(i phi).

    A ray (``radius`` None) is parametrised by r = t at the continuous
    angle ``theta``; with ``hankel`` its samples are the difference of the
    two sheets, f(t, theta) - f(t, theta - 2 pi).  A circle of radius
    ``radius`` is parametrised by the continuous angle phi.  A panel is the
    parameter interval mid + half x for x in [-1, 1], sampled at the
    Chebyshev-Lobatto nodes x_j = -cos(pi j / n), n dividing NEST.
    """

    theta: object
    radius: object = None
    hankel: bool = False

    def parameters(self, mid, half, n: int, bits: int):
        """mid + half x_j at the nodes, as mpf tuples rounded to ``bits``."""
        m, h = (mpmath.mpmathify(v)._mpf_ for v in (mid, half))
        return [mpf_add(m, mpf_mul(h, from_man_exp(-c, -bits)), bits)
                for c in _node_cosines(n, bits)]

    def points(self, mid, half, n: int, bits: int):
        """The points zeta_j at the nodes as integer real and imaginary
        parts times 2^bits; the imaginary parts are None on the ray
        theta = 0.  A circle's points are every (NEST / n)-th of the cached
        unit points of degree NEST (:func:`._chebyshev._unit_points`)."""
        if self.radius is None:
            m, h = (_mantissas([mpmath.mpmathify(v)._mpf_], -bits)[0]
                    for v in (mid, half))
            ts = [m - (h * c >> bits) for c in _node_cosines(n, bits)]
            if self.theta == 0:
                return ts, None
            _work.add("cos_sin")
            c, s = _mantissas(mpf_cos_sin(mpmath.mpf(self.theta)._mpf_, bits),
                              -bits)
            return [t * c >> bits for t in ts], [t * s >> bits for t in ts]
        wr, wi, _half = _unit_points(mid, half, NEST, bits)
        wr, wi = wr[::NEST // n], wi[::NEST // n]
        r = _mantissas([mpmath.mpf(self.radius)._mpf_], -bits)[0]
        return [r * x >> bits for x in wr], [r * y >> bits for y in wi]


def _one_sheet(f, contour: Contour):
    """Refuse the Hankel ray of a single-valued shape: its sheets agree."""
    if contour.hankel and f.single_valued:
        raise ValueError(
            f"{type(f).__name__} is single-valued: hankel_laplace integrates "
            "only the circle of a single-valued shape, never its Hankel ray"
        )


# -- majorants on Bernstein ellipses -------------------------------------------

# the relative margin of the ellipse rules' double-precision arithmetic: a
# few dozen roundings, each of a unit 2^-53, and libm's log and exp
_MARGIN = 1 + 2.0 ** -20
# the least and the most points of an ellipse at which the sampled default
# evaluates a shape
_BOUNDARY_POINTS = 12
_MAX_BOUNDARY_POINTS = 48


class _Frame:
    """The images in the Borel plane of the Bernstein ellipses E_rho of one
    panel mid + half x of a contour, in doubles; E_rho has semi-axes
    a = (rho + 1/rho) / 2 and b = (rho - 1/rho) / 2.

    On a ray the image is t e^(i theta) for t in mid + half E_rho, and
    points are taken in the rotated frame u = v e^(-i theta), where it is
    the ellipse of centre mid, foci mid -+ half and semi-axes half a and
    half b.  On a circle of radius R it is R e^(i phi) for phi in
    mid + half E_rho, inside the annulus R e^(-half b) <= |zeta| <=
    R e^(half b) (|Im phi| <= half b); points stay as they are."""

    def __init__(self, contour: Contour):
        self.radius = None if contour.radius is None \
            else float(contour.radius)
        self.rotation = cmath.exp(-1j * float(contour.theta))

    def point(self, v) -> complex:
        v = complex(v)
        return v if self.radius is not None else v * self.rotation

    def radii(self, mid, half, rho):
        """(r, R): bounds of the least and the largest |zeta| on the
        image of E_rho.  On a ray the vertex mid - half a is the point of
        the ellipse nearest the origin when it is positive."""
        a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
        if self.radius is None:
            return max(0.0, mid - abs(half) * a), abs(mid) + abs(half) * a
        spread = abs(half) * b
        return self.radius * math.exp(-spread), self.radius * math.exp(spread)

    def distances(self, p, mid, half, rhos):
        """Per rho, a lower bound of the distance from the frame point p to
        the image of E_rho, 0 where they may meet: on a ray half times the
        clearance of the ellipse through p (``_chebyshev._clearance``), on
        a circle the gap between |p| and the annulus."""
        if self.radius is None:
            rho_p = _bernstein((p - mid) / half)
            return [abs(half) * _clearance(rho_p, rho) if rho < rho_p
                    else 0.0 for rho in rhos]
        size = abs(p)
        out = []
        for rho in rhos:
            low, high = self.radii(mid, half, rho)
            out.append(max(size - high, low - size, 0.0))
        return out

    def cut_distances(self, start: float, mid, half, rhos):
        """Per rho, a lower bound of the distance from the image of E_rho
        on a ray to the cut [start, inf) of a principal sheet, start > 0:
        ``distances`` from the cut's point of least Bernstein parameter.

        The cut is the half-line x = P + s D, s >= start, in the panel's
        coordinate x.  The Bernstein parameter grows with the sum
        of the distances to the foci -1 and 1, which is convex along a
        line, so its least point is the line's least point, or the cut's
        start where that lies before it.  Along the line the least point
        is where the segment from 1 to the mirror image of -1 meets it,
        or a point of [-1, 1] where the line crosses that."""
        # y = (x - P) / u puts the line on the real axis, u its direction
        u = self.rotation
        P = -mid / half
        low, high = (-1 - P) / u, (1 - P) / u
        if low.imag * high.imag <= 0:
            # the line meets [-1, 1]
            r = low.real if low.imag == high.imag else low.real + (
                high.real - low.real) * low.imag / (low.imag - high.imag)
        else:
            low = low.conjugate()
            r = low.real + (high.real - low.real) * (-low.imag) \
                / (high.imag - low.imag)
        nearest = max(r * abs(half), start)
        return self.distances(nearest * u, mid, half, rhos)


def _margined(majorant):
    """The majorant grown by the margin of its double arithmetic."""
    return lambda mid, half, rhos: [m * _MARGIN
                                    for m in majorant(mid, half, rhos)]


def _rational_majorant(rat, frame: _Frame, prec):
    """A majorant (mid, half, rhos) -> bounds of |rat| on the images of the
    ellipses, or None where :func:`_partial_fractions` gives none: the
    moduli of the polynomial part's coefficients at the largest |zeta|,
    plus |res_p| over the distance to each simple pole p."""
    parts = _partial_fractions(rat, prec)
    if parts is None:
        return None
    poly = [float(c) for c in parts[0]]
    poles = [(frame.point(v), float(r)) for v, r in parts[1]]

    def majorant(mid, half, rhos):
        out = []
        for rho in rhos:
            top = frame.radii(mid, half, rho)[1]
            out.append(sum(c * top ** j for j, c in enumerate(poly) if c))
        for p, r in poles:
            for i, d in enumerate(frame.distances(p, mid, half, rhos)):
                out[i] += r / d if d > 0 else math.inf
        return out

    return majorant


def _logpole_majorant(f, frame: _Frame, prec):
    """The majorant of a rational-plus-logs shape, or None: the rational
    majorants of its parts, each log factor bounded by
    |Log(1 - zeta/a) + 2 pi i k| <= |ln|1 - zeta/a|| + 2 pi (1 + |k|).
    The ellipse is convex and avoids a, so it subtends at most a half
    turn from a: the continued argument of 1 - zeta/a stays within pi of
    its principal value on the panel, inside (-pi, pi); and
    |ln|1 - zeta/a|| is at most ln(1 + |zeta| / |a|) or ln(|a| / d) with
    d the distance to a."""
    rational = _rational_majorant(f.rational_part, frame, prec)
    if rational is None:
        return None
    logs = []
    for a, r, k in f.log_terms:
        cofactor = _rational_majorant(r, frame, prec)
        if cofactor is None:
            return None
        av = complex(a.evaluate(prec))
        logs.append((cofactor, frame.point(av), abs(av),
                     2 * math.pi * (1 + abs(k))))

    def majorant(mid, half, rhos):
        out = rational(mid, half, rhos)
        for cofactor, p, size, branch in logs:
            for i, (c, d, rho) in enumerate(zip(
                    cofactor(mid, half, rhos),
                    frame.distances(p, mid, half, rhos), rhos)):
                if c:
                    top = frame.radii(mid, half, rho)[1]
                    near = math.log(size / d) if d > 0 else math.inf
                    out[i] += c * (max(math.log1p(top / size), near)
                                   + branch)
        return out

    return majorant


def _sampled_majorant(evaluate, frame: _Frame, points):
    """A majorant from a contour's scalar evaluator, for a shape without a
    proved one: four times the largest modulus at points of the boundary
    of two ellipses, the middle and the largest of the rho asked that it
    samples; by the maximum principle an ellipse's maximum bounds every
    ellipse inside it, so each rho takes the least sampled ellipse
    containing it, and a rho past the largest gets none (math.inf).

    An ellipse is sampled only where its points, at equal steps of the
    angle, lie at most as far apart as the ellipse lies from the frame
    ``points`` (the singular points), with _BOUNDARY_POINTS to
    _MAX_BOUNDARY_POINTS points: a pole of residue r at distance d from
    the ellipse then shows at least r / (3 d / 2) at some point, against
    its peak r / d.  Not a proof: the boundary is sampled, not
    bounded."""

    def clearance(mid, half, rhos):
        near = [math.inf] * len(rhos)
        for p in points:
            near = list(map(min, near, frame.distances(p, mid, half, rhos)))
        return near

    def count(mid, half, rho, gap):
        """The points the ellipse needs: its steps are at most
        2 pi half a / k long, stretched by the circle's largest radius on a
        circle frame."""
        if gap <= 0:
            return math.inf
        a = (rho + 1 / rho) / 2
        stretch = 1.0 if frame.radius is None \
            else frame.radii(mid, half, rho)[1]
        return max(_BOUNDARY_POINTS,
                   math.ceil(2 * math.pi * abs(half) * a * stretch / gap))

    def largest(mid, half, rho, k):
        a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
        return 4 * max(abs(complex(evaluate(mpmath.mpc(
            mid + half * a * math.cos(t), half * b * math.sin(t)))))
            for t in (2 * math.pi * j / k for j in range(k)))

    def majorant(mid, half, rhos):
        counts = {rho: count(mid, half, rho, gap)
                  for rho, gap in zip(rhos, clearance(mid, half, rhos))}
        usable = sorted(rho for rho, k in counts.items()
                        if k <= _MAX_BOUNDARY_POINTS)
        if not usable:
            return [math.inf] * len(rhos)
        inner, outer = usable[len(usable) // 2], usable[-1]
        near = largest(mid, half, inner, counts[inner])
        far = near if outer == inner \
            else largest(mid, half, outer, counts[outer])
        return [near if rho <= inner else far if rho <= outer else math.inf
                for rho in rhos]

    return majorant


# -- the Borel function variants ------------------------------------------------------


class BorelFunction:
    """Base class of the Borel shapes.  A shape implements
    ``singular_points`` and ``numeric_evaluator``, plus ``log_form`` when it
    has one; the module docstring says what the exact and the numeric
    defaults below do with them."""

    # one sheet: both rays of a Hankel contour see the same values
    single_valued = False

    def singular_points(self):
        raise NotImplementedError

    def points_within(self, radius):
        """The singular points, at least all those of modulus up to
        ``radius``: every shape but Stirling's lattice lists all of them."""
        return self.singular_points()

    def numeric_evaluator(self, prec: int = 53):
        """A closure zeta -> value at ``prec`` bits, with every exact
        constant of the shape evaluated once when it is built."""
        raise NotImplementedError

    def numeric_eval(self, zeta, prec: int = 53):
        return self.numeric_evaluator(prec)(zeta)

    def singular_values(self, prec: int):
        """The nonzero singular points as numbers at ``prec`` bits."""
        vals = [p.evaluate(prec) if hasattr(p, "evaluate")
                else mpmath.mpmathify(p) for p in self.singular_points()]
        return [v for v in vals if abs(v) > 0]

    def polar_evaluator(self, prec: int = 53):
        """(r, angle) -> f(r e^(i angle)) on the sheet the continuous angle
        reaches.  Single-valued shapes have one sheet; any other shape
        must override this to be summed on a Hankel contour."""
        if not self.single_valued:
            raise NotImplementedError(
                "Hankel contours need a single-valued shape or one with "
                "polar (continuous-angle) evaluation; got "
                f"{type(self).__name__}"
            )
        evaluate = self.numeric_evaluator(prec)
        return lambda r, ang: evaluate(
            r * mpmath.exp(mpmath.mpc(0, 1) * ang))

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """(floor, bound) on the ray at angle ``theta``: the least
        truncation point, and T -> (bound, proved?) for the integral over
        t >= T of e^(-m t) |f(t e^(i theta))| t^moment, with what does not
        depend on T computed once.  Laplace sums evaluate the bound at the
        points of their segment ladder from the floor on, and truncate at
        the first that meets their goal.  The default floor is past twice
        the farthest value of ``sing`` (capped at 32) and at least 4, and
        the bound sampled."""
        mods = [abs(v) for v in sing]
        top = min(max(mods, default=mpmath.mpf(0)), mpmath.mpf(32))
        return (max(mpmath.mpf(4), 2 * top + 1),
                _sampled_tail(self, theta, m, moment, prec))

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """(majorant, proved): a function (mid, half, rhos) -> upper bounds,
        per rho, of the modulus of the samples ``panel_sampler`` gives on
        the panel mid + half x of ``contour`` (doubles), continued to the
        Bernstein ellipse E_rho of x (math.inf where the rule has none),
        and whether the bounds are proved; ``sing`` are the sum's
        ``singular_values``.  Laplace sums read it to pick each panel's
        degree and bound its quadrature error before they sample.  The
        default samples the boundary of the ellipses with the contour's
        scalar evaluator, clear of ``sing`` (:func:`_sampled_majorant`),
        so it is not proved."""
        frame = _Frame(contour)
        return _sampled_majorant(self._contour_evaluator(contour, prec),
                                 frame, [frame.point(v) for v in sing]), False

    def origin_head(self, w, theta, moment, prec: int):
        """(h, head, error): the integral of e^(-w t) f(t e^(i theta))
        t^moment over [0, h], done exactly, with h at most a quarter of
        the floor of ``tail_rule``, so below the truncation point; the
        quadrature covers [h, T].  The default, for shapes regular at the
        origin, has h = 0.  A shape whose origin no head covers raises
        here, before any sampling."""
        return 0, 0, 0

    def _contour_evaluator(self, contour: Contour, prec: int):
        """One scalar evaluator of the contour's parameter at ``prec``
        bits, built once per (contour, prec) for the default sampler and
        the default ellipse rule: f(t e^(i theta)) on the principal sheet
        along a ray, ``polar_evaluator`` at (radius, phi) on a circle, and
        polar(t, theta) - polar(t, theta - 2 pi) on a Hankel ray, which
        a single-valued shape refuses (see :func:`_one_sheet`)."""
        _one_sheet(self, contour)
        built = self.__dict__.setdefault("_evaluators", {})
        if (contour, prec) in built:
            return built[contour, prec]
        if contour.radius is not None:
            polar, rho = self.polar_evaluator(prec), contour.radius

            def evaluate(phi):
                return polar(rho, phi)
        elif contour.hankel:
            polar, theta = self.polar_evaluator(prec), contour.theta
            below = theta - 2 * mpmath.pi

            def evaluate(t):
                return polar(t, theta) - polar(t, below)
        else:
            point = self.numeric_evaluator(prec)
            direction = mpmath.exp(mpmath.mpc(0, 1) * contour.theta)

            def evaluate(t):
                return point(t * direction)
        built[contour, prec] = evaluate
        return evaluate

    def panel_sampler(self, contour: Contour, prec: int):
        """A function (mid, half, n) -> the shape's samples on one panel of
        ``contour`` (see :class:`Contour`), at its n + 1 nodes, as one
        block-fixed-point vector of :mod:`._chebyshev` at prec + GUARD
        bits.  The default maps the contour's scalar evaluator
        (:meth:`_contour_evaluator`) over the nodes and converts the
        values once."""
        evaluate = self._contour_evaluator(contour, prec)
        bits = prec + GUARD

        def sample(mid, half, n):
            return _fixed([evaluate(mid + half * x) for x in _nodes(n, prec)],
                          bits)

        return sample

    def _with_branch_updates(self, passed_with_signs, loops):
        """Return a copy continued past the given (point, sign) list and
        loops; a single-valued shape is its own continuation."""
        if self.single_valued or not (passed_with_signs or loops):
            return self
        raise UnreachableBranchError(
            f"{type(self).__name__} carries no branch state for this path"
        )

    # -- the exact interface -------------------------------------------------

    def log_form(self):
        """(rational, [(a, r, k), ...]) when the shape is rational(zeta) plus
        the sum of r(zeta) [Log(1 - zeta/a) + 2*pi*i*k], else None."""
        return None

    def _exact_form(self, rule: str):
        form = self.log_form()
        if form is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no exact {rule} rule")
        return form

    def singularity_at(self, omega: ExactScalar):
        """(a_0, chi) at omega on this branch: the polar weight and the log
        coefficient as a shape, or None when it vanishes."""
        rational, terms = self._exact_form("extraction")
        tau = ExactScalar.tau()
        a0 = tau * rational.residue(omega)
        chi = RationalFunction.zero()
        for a, r, k in terms:
            if a == omega:
                if r.pole_order(omega) > 0:
                    raise NotSimpleError(
                        f"log coefficient at {omega} is itself singular there",
                        point=str(omega),
                    )
                # r(omega + xi) log(-xi/omega): the log(xi) part feeds chi,
                # the branch constant multiplies an analytic factor (-> F)
                shifted = RationalFunction(
                    _poly_shift(r.num, omega),
                    poles={p - omega: m for p, m in r.poles.items()},
                    lead=r.lead,
                )
                chi = chi + shifted.scale(tau)
            else:
                rho = r.residue(omega)
                if not rho.is_zero():
                    a0 = a0 + tau * rho * _log_value(a, k, omega)
        return a0, (None if chi.is_zero() else RationalBF(chi))

    def taylor(self, order: int) -> BorelSeries:
        """Exact Taylor coefficients at the origin through ``order``."""
        rational, terms = self._exact_form("Taylor")
        coeffs = rational.taylor_at(ExactScalar(), order)
        for a, r, k in terms:
            # Log(1 - zeta/a) = - sum over m >= 1 of (zeta/a)^m / m
            logs = [ExactScalar.tau() * k]
            for m in range(1, order + 1):
                logs.append(a ** (-m) * Fraction(-1, m))
            rloc = r.taylor_at(ExactScalar(), order)
            prod = _series_mul(rloc, logs, order)
            coeffs = [c + p for c, p in zip(coeffs, prod)]
        return BorelSeries(0, coeffs)

    def divide_linear(self, p) -> "BorelFunction":
        """The shape divided by (zeta - p)."""
        rational, terms = self._exact_form("division")
        return log_shape(rational.divide_linear(p),
                         [(a, r.divide_linear(p), k) for a, r, k in terms])


def _log_value(a: ExactScalar, k: int, point: ExactScalar) -> ExactScalar:
    """Exact branch value of Log(1 - point/a) + 2*pi*i*k.

    Supported when w = 1 - point/a is a nonzero rational: the value is
    log|w| (+ i*pi if w < 0) + 2*pi*i*k.  Other configurations are not
    representable in the scalar ring and raise ValueError.
    """
    w = ExactScalar.from_rational(1) - point / a
    if not w.is_rational() or w.is_zero():
        raise ValueError(
            f"branch value of log at {point} (base point {a}) is "
            f"not representable in the scalar ring"
        )
    q = w.as_fraction()
    if q > 0:
        val = ExactScalar.log_rational(q)
    else:
        val = ExactScalar.log_rational(-q) + ExactScalar.i_pi()
    return val + ExactScalar.tau() * k


def log_shape(rational: RationalFunction, log_terms) -> BorelFunction:
    """rational + the sum of r [Log(1 - zeta/a) + 2*pi*i*k] over the
    (a, r, k) terms: a LogPoleBF, or a RationalBF when no nonzero log term
    is left."""
    shape = LogPoleBF(rational, log_terms)
    return shape if shape.log_terms else RationalBF(rational)


class RationalBF(BorelFunction):
    single_valued = True

    def __init__(self, rat: RationalFunction):
        self.rat = rat

    def singular_points(self):
        return [p for p in self.rat.poles if self.rat.pole_order(p) > 0]

    def numeric_evaluator(self, prec: int = 53):
        return self.rat.numeric_evaluator(prec)

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """The rational envelope from T = 1."""
        envelope = _rational_envelope(self.rat, theta, prec)
        return (mpmath.mpf(1),
                _envelope_tail(envelope, self, theta, m, moment, prec))

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """The partial-fraction majorant (:func:`_rational_majorant`), or
        the sampled default where it has none."""
        _one_sheet(self, contour)
        majorant = _rational_majorant(self.rat, _Frame(contour), prec)
        if majorant is None:
            return super().ellipse_rule(contour, sing, prec)
        return _margined(majorant), True

    def panel_sampler(self, contour: Contour, prec: int):
        """Exact integer Horner evaluation of the numerator and the factored
        denominator at the contour's points, then one rounded division per
        node (:func:`._chebyshev._quotients`); a real vector on the real
        ray when every coefficient and pole is real."""
        _one_sheet(self, contour)
        if self.rat.is_zero():
            return super().panel_sampler(contour, prec)
        bits = prec + GUARD
        work = bits + 16
        rat = self.rat
        with mpmath.workprec(work):
            lead = rat.lead.evaluate(work)
            coeffs = [c.evaluate(work) / lead for c in reversed(rat.num)]
        # the coefficients over the lead, highest degree first, at one
        # exponent; the poles times 2^bits
        (cr, ci), exp = _fixed(coeffs, bits)
        poles = [(_mantissas(_complex_tuple(p.evaluate(work)), -bits), m)
                 for p, m in rat.poles.items()]
        real = not any(ci) and not any(pi for (_pr, pi), _m in poles)
        degree = len(coeffs) - 1
        # the numerator comes out times 2^(bits degree - exp) and the
        # denominator times 2^(bits order)
        exp += bits * (sum(m for _p, m in poles) - degree)

        def sample(mid, half, n):
            zr, zi = contour.points(mid, half, n, bits)
            parts = 1 if zi is None and real else 2
            if zi is None:
                zi = [0] * len(zr)
            nr, ni = [cr[0]] * len(zr), [ci[0]] * len(zr)
            for k in range(1, degree + 1):
                ar, ai = cr[k] << bits * k, ci[k] << bits * k
                nr, ni = ([a * x - b * y + ar
                           for a, b, x, y in zip(nr, ni, zr, zi)],
                          [a * y + b * x + ai
                           for a, b, x, y in zip(nr, ni, zr, zi)])
            dr, di = [1] * len(zr), [0] * len(zr)
            for (pr, pi), m in poles:
                for _ in range(m):
                    dr, di = ([a * (x - pr) - b * (y - pi)
                               for a, b, x, y in zip(dr, di, zr, zi)],
                              [a * (y - pi) + b * (x - pr)
                               for a, b, x, y in zip(dr, di, zr, zi)])
            # num / den = num conj(den) / |den|^2, with a zero imaginary
            # part on the real ray of a real shape
            quotients, s = _quotients(
                ([a * c + b * d for a, b, c, d in zip(nr, ni, dr, di)],
                 [b * c - a * d for a, b, c, d in zip(nr, ni, dr, di)]),
                [c * c + d * d for c, d in zip(dr, di)], bits)
            return quotients[:parts], exp - s

        return sample

    def log_form(self):
        return self.rat, []

    def __repr__(self):
        return f"<RationalBF {self.rat!r}>"


def _logpole_envelope(f, theta, prec):
    """A function T -> envelope (M, poly) of a rational-plus-logs shape
    beyond T, or None.

    Each log factor obeys |Log(1 - zeta/a) + 2 pi i k| <= ln(1 + t/|a|) + B
    with B = pi (1 + 2 |k|).  A proper cofactor with simple poles decays
    like 2 * (sum |res|) / t once T >= 2 max|pole| + 1 (enforced by the
    truncation floor); the product (B + ln(1 + t/|a|)) / t is decreasing,
    so its value at T is a constant bound for the whole tail.  A
    polynomial part sum q_j t^j of the cofactor is bounded by
    sum |q_j| t^j, and the log by its tangent at T, ln(1 + t/|a|) <=
    ln(1 + T/|a|) + (t - T) / (|a| + T), so it adds that polynomial times
    alpha + beta t.
    """
    rational = _rational_envelope(f.rational_part, theta, prec)
    if rational is None:
        return None
    logs = []
    for a, r, k in f.log_terms:
        parts = _partial_fractions(r, prec)
        if parts is None:
            return None
        q, poles = parts
        ressum = sum((res for _v, res in poles), mpmath.mpf(0))
        logs.append((q, abs(a.evaluate(prec)), mpmath.pi * (1 + 2 * abs(k)),
                     ressum))

    def envelope(T):
        M, poly = rational(T)
        poly = list(poly)
        for q, av, B, ressum in logs:
            if q:
                beta = 1 / (av + T)
                alpha = mpmath.log(1 + T / av) + B - T * beta
                poly += [mpmath.mpf(0)] * (len(q) + 1 - len(poly))
                for j, c in enumerate(q):
                    poly[j] += c * alpha
                    poly[j + 1] += c * beta
            if ressum:
                M += (2 * ressum / T) * (mpmath.log(1 + T / av) + B)
        return M, poly

    return envelope


class LogPoleBF(BorelFunction):
    """r_0(zeta) + sum of r_i(zeta) * [Log(1 - zeta/a_i) + 2*pi*i*k_i]."""

    def __init__(self, rational_part: RationalFunction, log_terms):
        self.rational_part = rational_part
        terms = []
        seen = set()
        for item in log_terms:
            if len(item) == 2:
                a, r = item
                k = 0
            else:
                a, r, k = item
            a = ExactScalar.coerce(a)
            if a.is_zero():
                raise ValueError("log branch point at the origin is not allowed")
            if a in seen:
                raise ValueError(f"duplicate log branch point {a}")
            seen.add(a)
            if not r.is_zero():
                terms.append((a, r, int(k)))
        self.log_terms = terms

    def singular_points(self):
        pts = {p for p in self.rational_part.poles
               if self.rational_part.pole_order(p) > 0}
        for a, r, _k in self.log_terms:
            pts.add(a)
            pts.update(p for p in r.poles if r.pole_order(p) > 0)
        return sorted(pts, key=lambda s: s.sort_key())

    def numeric_evaluator(self, prec: int = 53):
        work = prec + 16
        rational = self.rational_part.numeric_evaluator(work)
        with mpmath.workprec(work):
            tau = 2 * mpmath.pi * mpmath.mpc(0, 1)
            logs = [(a.evaluate(work), k * tau, r.numeric_evaluator(work))
                    for a, r, k in self.log_terms]

        def evaluate(zeta):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(zeta)
                total = rational(zv)
                for av, branch, r in logs:
                    logval = mpmath.log(1 - zv / av) + branch
                    total += r(zv) * logval
            with mpmath.workprec(prec):
                return +total

        return evaluate

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """:func:`_logpole_envelope` from past twice the farthest pole (and
        at least 4)."""
        mods = [abs(p.evaluate(prec)) for p in self.rational_part.poles]
        for _a, r, _k in self.log_terms:
            mods.extend(abs(p.evaluate(prec)) for p in r.poles)
        top = max(mods, default=mpmath.mpf(0))
        envelope = _logpole_envelope(self, theta, prec)
        return (max(mpmath.mpf(4), 2 * top + 1),
                _envelope_tail(envelope, self, theta, m, moment, prec))

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """:func:`_logpole_majorant` on a ray, or the default where it has
        none."""
        majorant = None if contour.radius is not None or contour.hankel \
            else _logpole_majorant(self, _Frame(contour), prec)
        if majorant is None:
            return super().ellipse_rule(contour, sing, prec)
        return _margined(majorant), True

    def log_form(self):
        return self.rational_part, self.log_terms

    def _with_branch_updates(self, passed_with_signs, loops):
        ks = {a: k for a, _r, k in self.log_terms}
        for point, sign in passed_with_signs:
            if point in ks:
                # "+" (below) continues onto the principal on-cut branch,
                # "-" (above) drops one full turn
                if sign < 0:
                    ks[point] = ks[point] - 1
        for point, turns in loops:
            point = ExactScalar.coerce(point)
            if point in ks:
                ks[point] = ks[point] + int(turns)
            elif point not in self.singular_points():
                raise UnreachableBranchError(
                    f"loop around {point}, which is not a singular point",
                    point=str(point),
                )
        return LogPoleBF(
            self.rational_part,
            [(a, r, ks[a]) for a, r, _k in self.log_terms],
        )

    def __repr__(self):
        pts = ", ".join(f"{a}(k={k})" for a, _r, k in self.log_terms)
        return f"<LogPoleBF logs at [{pts}]>"


@lru_cache(maxsize=8)
def _stirling_lattice(prec: int):
    """2 pi i k for k = 1, -1, 2, -2, ..., 48, -48 at ``prec`` bits, rounded
    as ``ExactScalar.evaluate`` rounds tau k: the product k (2 pi) at
    prec + 16 bits, then rounded to prec."""
    two_pi = mpf_shift(mpf_pi(prec + 16, "n"), 1)
    return tuple(mpmath.mp.make_mpc((fzero, mpf_pos(
        mpf_mul(from_int(k), two_pi, prec + 16, "n"), prec, "n")))
        for j in range(1, 49) for k in (j, -j))


class StirlingBF(BorelFunction):
    """zeta^-2 (zeta/2 coth(zeta/2) - 1): simple poles at 2*pi*i*k, k != 0,
    with residue 1/(2*pi*i*k); single-valued.

    ``singular_points`` lists the first ``count`` conjugate pairs, and
    ``points_within`` as many as a path to a given modulus can cross.  Ray
    sums check the first 48 pairs."""

    single_valued = True

    def singular_points(self, count: int = 8):
        tau = ExactScalar.tau()
        out = []
        for k in range(1, count + 1):
            out.append(tau * k)
            out.append(tau * (-k))
        return out

    def points_within(self, radius):
        return self.singular_points(count=int(radius / (2 * math.pi)) + 1)

    def numeric_evaluator(self, prec: int = 53):
        work = prec + 24
        with mpmath.workprec(work):
            half = mpmath.mpf(1) / 2
            floor = mpmath.mpf(2) ** (-work)
        # Taylor coefficients B_{2k+2} / (2k+2)!, computed at most once each
        # and only as far as the points evaluated so far have needed
        terms = []

        def term(k):
            while len(terms) <= k:
                j = 2 * len(terms) + 2
                b = _bernoulli(j)
                with mpmath.workprec(work):
                    terms.append(mpmath.mpf(b.numerator) / b.denominator
                                 / mpmath.factorial(j))
            return terms[k]

        def evaluate(zeta):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(zeta)
                if abs(zv) < half:
                    # Taylor sum: sum of B_{2k+2} zeta^(2k) / (2k+2)!; the
                    # closed form loses half its digits to cancellation near 0
                    total = mpmath.mpc(0)
                    power = mpmath.mpc(1)
                    k = 0
                    while True:
                        t = term(k)
                        total += t * power
                        if abs(power) * abs(t) < floor and k > 2:
                            break
                        power *= zv * zv
                        k += 1
                        if k > prec:
                            break
                    out = total
                else:
                    out = (zv / 2 * mpmath.coth(zv / 2) - 1) / zv**2
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def singular_values(self, prec: int):
        return list(_stirling_lattice(prec))

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """The envelope beyond T, from T = 4.

        With w = zeta/2 the bound chain is |coth w| <= 1 + 1/|sinh w| and
        |sinh w| >= 2 delta / pi where delta = min(dist(w, pi i Z), pi/2);
        the lattice distance is computed exactly over the pole range that can
        matter (0 < |k| <= kmax) and capped there.  The minor itself is then
        bounded by (|coth|/2)/t + 1/t^2.

        The distance from the tail to 2 pi i k is |T - 2 pi k (sin theta +
        i cos theta)|, convex in k, while 2 pi k sin theta < T, and
        |2 pi k cos theta|, growing with |k|, beyond.  So it is taken only
        at the points that can be nearest: k = +-1, the integers next to
        T sin theta / 2 pi, and the first k with 2 pi k sin theta >= T (and
        the one before it), each clamped to the range.
        """
        tau = 2 * mpmath.pi
        sin = mpmath.sin(theta)
        rotation = _rotation(theta)

        def bound(T):
            kmax = max(96, int(T / float(tau)) + 2)
            centre = T * sin / tau
            ks = [1, -1, int(mpmath.floor(centre)), int(mpmath.ceil(centre))]
            if sin and T <= kmax * tau * abs(sin):
                first = int(mpmath.ceil(T / (tau * abs(sin))))
                ks += [first, first - 1] if sin > 0 else [-first, 1 - first]
            d = mpmath.inf
            for k in sorted({max(-kmax, min(kmax, k)) for k in ks} - {0}):
                d = min(d, _pole_tail_distance(
                    mpmath.mpc(0, tau * k) * rotation, T))
            delta = min(d / 2, mpmath.pi / 2)
            coth_bound = 1 + mpmath.pi / (2 * delta)
            M = (coth_bound / 2) / T + 1 / mpmath.mpf(T) ** 2
            return _moment_tail(m, moment, T, M), True

        return mpmath.mpf(4), bound

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """A proved majorant from the Taylor series inside |zeta| = pi and
        the coth bound of ``tail_rule`` outside.

        Since |B_2k| / (2k)! = 2 zeta(2k) / (2 pi)^2k <= (pi^2 / 3) /
        (2 pi)^2k, the series bounds the minor by
        (1 / 12) / (1 - |zeta|^2 / (4 pi^2)) for |zeta| < 2 pi, so by 1/9
        on |zeta| <= pi.  Where |zeta| >= s >= pi, |f| <= C / (2 s) +
        1 / s^2 with C = 1 + pi / (2 delta) bounding |coth(zeta / 2)|,
        delta = min(s / 2, d / 2, pi / 2) and d the distance to the
        lattice 2 pi i k, k != 0, of which only the k with
        2 pi |k| <= R + pi can come within pi of a region of largest
        modulus R."""
        _one_sheet(self, contour)
        frame = _Frame(contour)
        tau, pi = 2 * math.pi, math.pi
        lattice = []

        def majorant(mid, half, rhos):
            radii = [frame.radii(mid, half, rho) for rho in rhos]
            count = int((max(r for _low, r in radii) + pi) / tau)
            while len(lattice) < 2 * count:
                k = len(lattice) // 2 + 1
                lattice.extend((frame.point(1j * tau * k),
                                frame.point(-1j * tau * k)))
            near = [math.inf] * len(rhos)
            for p in lattice[:2 * count]:
                near = list(map(min, near,
                                frame.distances(p, mid, half, rhos)))
            out = []
            for (low, high), d in zip(radii, near):
                if high <= pi:
                    out.append((1 / 12) / (1 - (high / tau) ** 2))
                    continue
                s = max(low, pi)
                delta = min(s / 2, d / 2, pi / 2)
                bound = (1 + pi / (2 * delta)) / (2 * s) + 1 / s ** 2 \
                    if delta > 0 else math.inf
                out.append(max(bound, 1 / 9) if low < pi else bound)
            return out

        return _margined(majorant), True

    def panel_sampler(self, contour: Contour, prec: int):
        """One exponential per node: (zeta/2 - 1 + zeta / (e^zeta - 1))
        / zeta^2 for |zeta| >= 1/2, with libmp on tuples, and inside the
        Taylor series of ``numeric_evaluator`` summed in integers."""
        _one_sheet(self, contour)
        bits = prec + GUARD
        work = bits + 8
        # B_{2k+2} / (2k+2)! times 2^bits; the term ratio is at most
        # (1 / 4 pi)^2 < 2^-7 on |zeta| < 1/2
        taylor = []
        for k in range(bits // 7 + 2):
            taylor.append(round(_bernoulli(2 * k + 2) * (1 << bits)
                                / math.factorial(2 * k + 2)))
        taylor.reverse()
        quarter = 1 << (2 * bits - 2)
        one = (fone, fzero)

        def sample(mid, half, n):
            zr, zi = contour.points(mid, half, n, bits)
            real = zi is None
            re, im = [], []
            far = 0
            for x, y in zip(zr, [0] * len(zr) if real else zi):
                if x * x + y * y < quarter:
                    sr, si = (x * x - y * y) >> bits, (2 * x * y) >> bits
                    ar, ai = 0, 0
                    for c in taylor:
                        ar, ai = (((ar * sr - ai * si) >> bits) + c,
                                  (ar * si + ai * sr) >> bits)
                    re.append(from_man_exp(ar, -bits))
                    im.append(from_man_exp(ai, -bits))
                    continue
                far += 1
                if real:
                    z = from_man_exp(x, -bits)
                    q = mpf_div(z, mpf_sub(mpf_exp(z, work), fone, work),
                                work)
                    h = mpf_add(mpf_sub(mpf_shift(z, -1), fone, work), q,
                                work)
                    re.append(mpf_div(h, mpf_mul(z, z), work))
                    continue
                z = (from_man_exp(x, -bits), from_man_exp(y, -bits))
                e = mpf_exp(z[0], work)
                c, s = mpf_cos_sin(z[1], work)
                q = mpc_div(z, (mpf_sub(mpf_mul(e, c), fone, work),
                                mpf_mul(e, s)), work)
                h = (mpf_add(mpf_sub(mpf_shift(z[0], -1), fone, work), q[0],
                             work),
                     mpf_add(mpf_shift(z[1], -1), q[1], work))
                f = mpc_div(h, mpc_mul(z, z, work), work)
                re.append(f[0])
                im.append(f[1])
            _work.add("exp", far)
            if not real:
                _work.add("cos_sin", far)
            return _vector((re,) if real else (re, im), bits)

        return sample

    def singularity_at(self, omega: ExactScalar):
        # a simple pole at omega = 2*pi*i*k, k != 0, residue 1/(2*pi*i*k)
        tau = ExactScalar.tau()
        q = omega / tau
        k = q.as_fraction() if q.is_rational() else Fraction(0)
        if k == 0 or k.denominator != 1:
            return ExactScalar(), None
        return tau * (ExactScalar.tau(-1) / int(k)), None

    def taylor(self, order: int) -> BorelSeries:
        coeffs = []
        for n in range(order + 1):
            if n % 2 == 1:
                coeffs.append(ExactScalar())
            else:
                k = n // 2
                coeffs.append(ExactScalar.from_rational(
                    _bernoulli(2 * k + 2) / math.factorial(2 * k + 2)))
        return BorelSeries(0, coeffs)

    def __repr__(self):
        return "<StirlingBF>"


class DilogBF(BorelFunction):
    """The dilogarithm sum of zeta^n / n^2, with loop monodromy at 1:
    each counterclockwise loop adds -2*pi*i*log(zeta), so the state is the
    loop count n (and the continued function then has a log branch point at
    the origin, carried by the secondary index m)."""

    def __init__(self, n: int = 0, m: int = 0):
        self.n = int(n)
        self.m = int(m)

    def singular_points(self):
        pts = [ExactScalar.from_rational(1)]
        if self.n:
            pts.insert(0, ExactScalar())
        return pts

    def numeric_evaluator(self, prec: int = 53):
        work = prec + 16
        n = self.n
        with mpmath.workprec(work):
            # each counterclockwise loop at 1 adds -2*pi*i*log(zeta), and
            # the log itself sits on the branch indexed by m
            tau = 2 * mpmath.pi * mpmath.mpc(0, 1)
            loops = -n * tau
            branch = self.m * tau

        def evaluate(zeta):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(zeta)
                total = mpmath.polylog(2, zv)
                if n:
                    total += loops * (mpmath.log(zv) + branch)
            with mpmath.workprec(prec):
                return +total

        return evaluate

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """The bound of ``tail_rule`` at the largest |zeta| R of the
        ellipse, B = pi^2/3 + (ln+ R + pi)^2 / 2 (pi^2/6 inside the unit
        disc bounds it there too), on the ellipses clear of the cut
        [1, inf) of the principal sheet (:meth:`_Frame.cut_distances`).
        An ellipse that crosses the cut but holds neither 1 nor 0 meets
        the real axis only past 1, so the integrand continues across the
        cut as Li2 -+ 2 pi i log zeta, with no cut of the log inside: B
        plus 2 pi (max(ln R, -ln r) + pi) there, r the least |zeta|; other
        ellipses have none.  Rays sum the sheet without loops only
        (``origin_head``), and nothing else runs on the dilogarithm.
        Proved."""
        frame = _Frame(contour)
        one = frame.point(1)
        pi2 = math.pi ** 2

        def majorant(mid, half, rhos):
            out = []
            for rho, clear, gap in zip(
                    rhos, frame.cut_distances(1.0, mid, half, rhos),
                    frame.distances(one, mid, half, rhos)):
                low, top = frame.radii(mid, half, rho)
                bound = pi2 / 3 + (max(math.log(top), 0.0) + math.pi) ** 2 / 2
                if clear <= 0:
                    bound = bound + 2 * math.pi * (max(
                        math.log(top), -math.log(low)) + math.pi) \
                        if gap > 0 and low > 0 else math.inf
                out.append(bound)
            return out

        return _margined(majorant), True

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """Guaranteed tail bound beyond T >= 1, from T = 4.

        The inversion identity Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2
        bounds the principal sheet by pi^2/3 + (ln t + pi)^2 / 2 once
        |z| >= 1 (the series bounds |Li2(1/z)| by pi^2/6 there), and each
        stored loop at 1 contributes |2 pi (Log z + 2 pi i m)| <= 2 pi
        (ln t + pi (1 + 2 |m|)).  With ln t <= 2 sqrt(t) the whole envelope
        is A + B sqrt(t) + C t, whose weighted tails are incomplete gammas,
        each bounded by :func:`_moment_integral`.
        """
        pi = mpmath.pi
        loops = abs(self.n)
        sheet = abs(self.m)
        A = pi ** 2 / 3 + pi ** 2 / 2 + 2 * pi ** 2 * loops * (1 + 2 * sheet)
        B = 2 * pi + 4 * pi * loops
        C = mpmath.mpf(2)
        half = mpmath.mpf(1) / 2

        def bound(T):
            return abs(A * _moment_integral(moment + 1, m, T)
                       + B * _moment_integral(moment + 1 + half, m, T)
                       + C * _moment_integral(moment + 2, m, T)), True

        return mpmath.mpf(4), bound

    def origin_head(self, w, theta, moment, prec: int):
        if self.n:
            raise NotImplementedError(
                f"the dilogarithm minor after {self.n} loop(s) at 1 has a "
                "log singularity at the origin, which ray sums do not "
                "cover; only the sheet without loops (n = 0) is summed"
            )
        return super().origin_head(w, theta, moment, prec)

    def _with_branch_updates(self, passed_with_signs, loops):
        n, m = self.n, self.m
        one = ExactScalar.from_rational(1)
        for point, sign in passed_with_signs:
            if point == one and sign < 0:
                # passing above the cut lands one sheet down, exactly as for
                # the plain logarithm
                n -= 1
        for point, turns in loops:
            point = ExactScalar.coerce(point)
            if point == one:
                n += int(turns)
            elif point.is_zero():
                m += int(turns)
            else:
                raise UnreachableBranchError(
                    f"the dilogarithm has no singular point at {point}",
                    point=str(point),
                )
        return DilogBF(n, m)

    def singularity_at(self, omega: ExactScalar):
        tau = ExactScalar.tau()
        if omega == ExactScalar.from_rational(1):
            # Li2(1 + xi) = pi^2/6 - log(1 + xi) log(-xi) - Li2(-xi):
            # chi / (2 pi i) = -log(1 + xi), no polar part
            return ExactScalar(), LogPoleBF(
                RationalFunction.zero(),
                [(-1, RationalFunction.constant(-tau), 0)],
            )
        if omega.is_zero() and self.n:
            # after n loops the germ at the origin is -n * 2*pi*i * log(zeta),
            # so chi = -n * (2*pi*i)^2 as a constant
            return ExactScalar(), RationalBF(
                RationalFunction.constant(tau * tau * (-self.n)))
        return ExactScalar(), None

    def taylor(self, order: int) -> BorelSeries:
        if self.n:
            raise ValueError("no Taylor expansion at 0 after a loop at 1")
        coeffs = [ExactScalar()]
        for k in range(1, order + 1):
            coeffs.append(ExactScalar.from_rational(Fraction(1, k * k)))
        return BorelSeries(0, coeffs)

    def __repr__(self):
        return f"<DilogBF loops={self.n}, origin branch={self.m}>"


@lru_cache(maxsize=64)
def _power_g(sigma: Fraction, prec: int):
    """g(sigma) = e^(i pi sigma) Gamma(1 - sigma) / (2 pi i) at ``prec``
    bits, once per (sigma, prec)."""
    with mpmath.workprec(prec + 16):
        s = mpmath.mpf(sigma.numerator) / sigma.denominator
        g = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * s) \
            * mpmath.gamma(1 - s) / (2 * mpmath.pi * mpmath.mpc(0, 1))
    with mpmath.workprec(prec):
        return +g


@lru_cache(maxsize=64)
def _power_g_prime(sigma: Fraction, prec: int):
    """g'(sigma) = g(sigma) (i pi - digamma(1 - sigma)) at ``prec`` bits,
    once per (sigma, prec)."""
    with mpmath.workprec(prec + 16):
        s = mpmath.mpf(sigma.numerator) / sigma.denominator
        gp = _power_g(sigma, prec + 16) \
            * (mpmath.mpc(0, 1) * mpmath.pi - mpmath.digamma(1 - s))
    with mpmath.workprec(prec):
        return +gp


@lru_cache(maxsize=64)
def _log_nodes(r, n: int, bits: int):
    """log(1 + r x_j) at the nodes x_j = -cos(pi j / n), for an mpf tuple
    0 < r < 1, as mpf tuples at bits + 8 bits: one ``mpf_log`` per node,
    shared by every ray panel with half = r mid; the degree n divides
    NEST and reads them off degree NEST."""
    if n != NEST:
        return _log_nodes(r, NEST, bits)[::NEST // n]
    work = bits + 8
    _work.add("log", n + 1)
    return tuple(mpf_log(mpf_add(fone, mpf_mul(r, from_man_exp(-c, -bits)),
                                 work), work)
                 for c in _node_cosines(n, bits))


@lru_cache(maxsize=64)
def _power_nodes(r, s1, n: int, bits: int):
    """(1 + r x_j)^s1 at the nodes as one vector of mantissa tuples, from
    :func:`_log_nodes`: one ``mpf_exp`` per node at bits + 8 bits, shared
    by every ray panel with half = r mid and every sum with that s1; the
    degree n divides NEST and reads them off degree NEST, whose largest
    entry, at an end, it shares."""
    if n != NEST:
        return _nested(_power_nodes(r, s1, NEST, bits), n)
    work = bits + 8
    _work.add("exp", n + 1)
    parts, exp = _vector(([mpf_exp(mpf_mul(s1, x, work), work)
                           for x in _log_nodes(r, n, bits)],), bits)
    return tuple(map(tuple, parts)), exp


def _ray_lanes(m, h, s1, n: int, bits: int, with_log: bool):
    """t^s1 and, ``with_log``, log t at the nodes t_j = mid + half x_j of
    a ray panel, for the mpf tuples m = mid > h = half, as vectors (the
    second None without a log): with r = half / mid, mid^s1 times
    :func:`_power_nodes` and log mid plus :func:`_log_nodes`.  The panel
    pays one ``mpf_log`` and one ``mpf_exp``, for mid^s1."""
    work = bits + 8
    _work.add("log")
    _work.add("exp")
    r = mpf_div(h, m, work)
    log_mid = mpf_log(m, work)
    scale = _vector(([mpf_exp(mpf_mul(s1, log_mid, work), work)],), bits)
    power = _scaled(_power_nodes(r, s1, n, bits), scale, bits)
    if not with_log:
        return power, None
    return power, _plus(_vector((_log_nodes(r, n, bits),), bits),
                        _vector(([log_mid],), bits), bits)


@lru_cache(maxsize=32)
def _power_constants(sigma: Fraction, with_log: bool, contour: Contour,
                     work: int):
    """(A, B, s1) at ``work`` bits, once per contour: the samples of the
    power kernel of ``sigma`` are t^s1 (A + B log t) on a ray and
    e^(i s1 phi) (A + B phi) on a circle, with s1 = sigma - 1 and A and B
    summed over the sheets."""
    g = _power_g(sigma, work)
    gp = _power_g_prime(sigma, work) if with_log else 0
    with mpmath.workprec(work):
        i = mpmath.mpc(0, 1)
        s1 = mpmath.mpf(sigma.numerator) / sigma.denominator - 1
        if contour.radius is None:
            theta = mpmath.mpf(contour.theta)
            sheets = [(theta, 1)]
            if contour.hankel:
                sheets.append((theta - 2 * mpmath.pi, -1))
            phases = [(sign * g * mpmath.expj(s1 * a), a)
                      for a, sign in sheets]
            # g e^(i s1 a) (log t + i a) + g' e^(i s1 a) per sheet
            A = sum(c * (i * a + gp / g) if with_log else c
                    for c, a in phases)
            B = sum(c for c, _a in phases) if with_log else 0
        else:
            rho = mpmath.mpf(contour.radius)
            power = g * rho ** s1
            # g rho^s1 e^(i s1 phi) (log rho + i phi) + g' rho^s1 ...
            A = power * (mpmath.log(rho) + gp / g) if with_log else power
            B = power * i if with_log else 0
    return A, B, s1


class PowerBF(BorelFunction):
    """g(sigma) zeta^(sigma-1), optionally times log(zeta), with

        g(sigma) = e^(i pi sigma) Gamma(1 - sigma) / (2 pi i).

    These are the Borel shapes of the pure monomials z^-sigma and
    -z^-sigma log z.  Evaluation is polar: the caller supplies modulus and a
    *continuous* argument, so contours that wind around the origin stay on
    the right branch by construction.
    """

    def __init__(self, sigma, with_log: bool = False):
        self.sigma = Fraction(sigma)
        if self.sigma.denominator == 1:
            raise ValueError("sigma must be non-integer (integers are poles "
                             "of the normalization)")
        self.with_log = bool(with_log)

    def g_value(self, prec: int = 53):
        return _power_g(self.sigma, prec)

    def g_prime_value(self, prec: int = 53):
        return _power_g_prime(self.sigma, prec)

    def polar_evaluator(self, prec: int = 53):
        """A closure (radius, theta) -> value at zeta = radius * e^(i theta),
        theta a continuous angle; g, g' and the exponent are evaluated once."""
        work = prec + 16
        with_log = self.with_log
        g = self.g_value(work)
        gp = self.g_prime_value(work) if with_log else None
        with mpmath.workprec(work):
            s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator
            exponent = s - 1
            i = mpmath.mpc(0, 1)

        def evaluate(radius, theta):
            with mpmath.workprec(work):
                r = mpmath.mpf(radius)
                th = mpmath.mpf(theta)
                logz = mpmath.log(r) + i * th
                power = mpmath.exp(exponent * logz)
                if with_log:
                    out = g * power * logz + gp * power
                else:
                    out = g * power
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """A proved majorant in closed form, from the constants of
        :func:`_power_constants`.  On a ray the ellipse of t is convex,
        symmetric about the positive axis and clear of the origin when
        its vertex r = mid - half a is positive, so it lies in Re t > 0:
        |t^s1| is at most r^s1 or R^s1, R = mid + half a, and
        |log t| <= max(|ln r|, |ln R|) + pi / 2.  On a circle
        |e^(i s1 phi)| <= e^(|s1| half b) and |phi| <= |mid| + half a."""
        A, B, s1 = _power_constants(self.sigma, self.with_log, contour,
                                   prec + GUARD + 8)
        A, B, s1 = abs(complex(A)), abs(complex(B)), float(s1)
        frame = _Frame(contour)

        def on_ray(mid, half, rhos):
            out = []
            for rho in rhos:
                low, high = frame.radii(mid, half, rho)
                if not low > 0:
                    out.append(math.inf)
                    continue
                logs = (math.log(low), math.log(high))
                out.append(math.exp(max(s1 * x for x in logs))
                           * (A + B * (max(map(abs, logs)) + math.pi / 2)))
            return out

        def on_circle(mid, half, rhos):
            return [math.exp(abs(s1 * half) * (rho - 1 / rho) / 2)
                    * (A + B * (abs(mid) + abs(half) * (rho + 1 / rho) / 2))
                    for rho in rhos]

        return _margined(on_ray if contour.radius is None else on_circle), \
            True

    def panel_sampler(self, contour: Contour, prec: int):
        """With s1 = sigma - 1, the power lane: t^s1 on a ray, shared by
        both Hankel sheets, or e^(i s1 phi) on the circle; and with a log,
        the lane of log t or of phi.  Each power lane is a scalar of the
        panel times a vector that depends only on the panel's shape.  On
        the ray t = mid (1 + r x) with r = half / mid, so t^s1 is
        mid^s1 times :func:`_power_nodes` and log t is log mid plus
        :func:`_log_nodes`, both cached per r: every panel of the
        doubling ladder [2^k h, 2^(k+1) h] has r = 1/3.  On the circle
        e^(i s1 phi) is e^(i s1 mid) times the ray kernel
        ``_chebyshev._exponentials`` at i s1 half.  So a panel pays one
        ``mpf_log`` and one ``mpf_exp`` on a ray, or one ``mpf_cos_sin``
        on the circle.  The samples t^s1 (A + B log t) and
        e^(i s1 phi) (A + B phi), with the constants A and B summed once
        over the sheets and rho^s1 folded into them on the circle, are
        integer products of those lanes and constants."""
        bits = prec + GUARD
        work = bits + 8
        with_log = self.with_log
        on_ray = contour.radius is None
        A, B, s1 = _power_constants(self.sigma, self.with_log, contour,
                                   work)
        with mpmath.workprec(work):
            A, B = _fixed([A], bits), _fixed([B], bits)
        s1 = s1._mpf_

        def sample(mid, half, n):
            m, h = (mpmath.mpmathify(v)._mpf_ for v in (mid, half))
            if on_ray:
                power, lane = _ray_lanes(m, h, s1, n, bits, with_log)
            else:
                _work.add("cos_sin")
                c, s = mpf_cos_sin(mpf_mul(s1, m, work), work)
                power = _scaled(_exponentials((fzero, mpf_mul(s1, h, work)),
                                              n, bits),
                                _vector(([c], [s]), bits), bits)
                if with_log:
                    lane = _vector((contour.parameters(mid, half, n, bits),),
                                   bits)
            if not with_log:
                return _scaled(power, A, bits)
            return _product(power, _plus(_scaled(lane, B, bits), A, bits),
                            bits)

        return sample

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """Proved tail bound via incomplete gamma moments, from T = 1
        (:func:`_moment_integral`).

        |f| <= |g| t^(sigma-1) (+ log factor), and the modulus integral
        integral over [T, inf) of e^(-m t) t^(s-1) dt is Gamma(s, m T) /
        m^s, bounded in closed form by :func:`_moment_integral`.  The log
        factor uses |log zeta| <= ln t + |theta| + 2 pi (covering the
        Hankel sheet range) and ln t <= 2 sqrt(t).
        """
        s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator + moment
        g = abs(self.g_value(prec))
        if not self.with_log:
            return mpmath.mpf(1), lambda T: (g * _moment_integral(s, m, T),
                                             True)
        A = abs(mpmath.mpf(theta)) + 2 * mpmath.pi
        gp = abs(self.g_prime_value(prec))
        root = s + mpmath.mpf(1) / 2

        def bound(T):
            base = _moment_integral(s, m, T)
            return g * (A * base + 2 * _moment_integral(root, m, T)) \
                + gp * base, True

        return mpmath.mpf(1), bound

    def origin_head(self, w, theta, moment, prec: int):
        """Exact series for the integral over [0, h], with
        h = min(1/4, 1/(2 max(|w|, 1))), 1/4 being a quarter of the floor
        of ``tail_rule``; sigma <= 0 is refused, as the kernel is not
        integrable at the origin.

        Expanding the exponential kernel termwise,

            integral over [0, h] of e^(-w t) f(t e^(i theta)) t^moment dt
            = e^(i theta (sigma - 1)) * sum over k of (-w)^k / k! *
              [coefficients] * h^(s + k) / (s + k)   with s = sigma + moment,

        where the log variant also needs integral of t^(s+k-1) log t dt =
        h^(s+k) (log h / (s+k) - 1/(s+k)^2).  With h <= 1/(2|w|) the term
        ratio stays below 1/2 past the first few terms, so the truncation
        remainder is bounded by the last computed term.  This sidesteps the
        quadrature entirely on the panel where the endpoint singularity
        would otherwise cap its accuracy.
        """
        if self.sigma <= 0:
            raise DecayMarginError(
                f"the power kernel with sigma = {self.sigma} is not "
                "integrable at the origin",
                margin=float(self.sigma),
            )
        h = min(mpmath.mpf(1) / 4, 1 / (2 * max(abs(w), 1)))
        s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator + moment
        g = self.g_value(prec)
        gp = self.g_prime_value(prec) if self.with_log else None
        logh = mpmath.log(h)
        total = mpmath.mpc(0)
        ck = mpmath.mpc(1)
        bound = mpmath.mpf(0)
        negligible = mpmath.ldexp(1, -(prec + 8))
        for k in range(prec + 64):
            base = h ** (s + k) / (s + k)
            if self.with_log:
                logint = base * (logh - 1 / (s + k))
                term = ck * (g * logint
                             + (g * mpmath.mpc(0, 1) * theta + gp) * base)
            else:
                term = ck * g * base
            total += term
            bound = abs(term)
            if bound < negligible * (1 + abs(total)) and k > 2:
                break
            ck = ck * (-w) / (k + 1)
        phase = mpmath.exp(mpmath.mpc(0, 1) * theta * (s - moment - 1))
        return h, phase * total, bound

    def numeric_evaluator(self, prec: int = 53):
        polar = self.polar_evaluator(prec)

        def evaluate(zeta):
            with mpmath.workprec(prec + 16):
                zv = mpmath.mpmathify(zeta)
                return polar(abs(zv), mpmath.arg(zv))

        return evaluate

    def singular_points(self):
        return [ExactScalar()]

    def __repr__(self):
        return f"<PowerBF sigma={self.sigma}{' with log' if self.with_log else ''}>"


# -- continuation and extraction -------------------------------------------------------


def points_between(f: BorelFunction, omega) -> list:
    """Singular points of f strictly inside the segment (0, omega), in order.

    Membership is decided exactly: a point s counts when s/omega is a
    rational number in (0, 1) in the scalar ring."""
    omega = ExactScalar.coerce(omega)
    return _intermediate_points(f.points_within(abs(omega.evaluate(53))),
                                omega)


def continue_along(f: BorelFunction, path: PathSpec) -> BorelFunction:
    """The branch of f reached along the path (see PathSpec)."""
    target = ExactScalar.coerce(path.target)
    inter = points_between(f, target)
    signs = path.sign_values()
    if len(signs) != len(inter):
        raise UnreachableBranchError(
            f"path to {target} crosses {len(inter)} singular point(s) "
            f"{[str(s) for s in inter]} but {len(signs)} sign(s) were given",
            expected=len(inter),
            given=len(signs),
        )
    return f._with_branch_updates(list(zip(inter, signs)), tuple(
        (ExactScalar.coerce(p), t) for p, t in path.loops
    ))


def continue_eval(f: BorelFunction, path: PathSpec, zeta=None, prec: int = 53):
    """Numeric value of the continued branch, at the path target by default."""
    g = continue_along(f, path)
    point = path.target if zeta is None else zeta
    point_val = point.evaluate(prec) if isinstance(point, ExactScalar) else point
    return g.numeric_eval(point_val, prec)


@dataclass
class SingularityData:
    """Simple-singularity data at a point reached along a path.

    ``a0`` is the coefficient of 1/(2*pi*i*xi); ``chi`` is the exact log
    coefficient (a BorelFunction, or None when it vanishes); ``chi_series``
    its Taylor expansion; the regular remainder is branch-dependent and
    deliberately not part of the data.
    """

    point: ExactScalar
    a0: ExactScalar
    chi: BorelFunction | None
    chi_series: BorelSeries
    path: PathSpec


def extract_singularity(f: BorelFunction, omega, signs=(), order: int = 8,
                        loops=()) -> SingularityData:
    """Extract (a_0, chi) at omega along the path with the given detour signs."""
    omega = ExactScalar.coerce(omega)
    path = PathSpec(target=omega, signs=tuple(signs), loops=tuple(loops))
    a0, chi = continue_along(f, path).singularity_at(omega)
    series = (chi.taylor(order) if chi is not None
              else BorelSeries(0, [ExactScalar()] * (order + 1)))
    return SingularityData(omega, a0, chi, series, path)


# -- convolution --------------------------------------------------------------------


def _convolve_monomials(i: int, j: int):
    """zeta^i * zeta^j convolution = i! j! / (i+j+1)! zeta^(i+j+1)."""
    return (
        i + j + 1,
        Fraction(math.factorial(i) * math.factorial(j),
                 math.factorial(i + j + 1)),
    )


def _poly_convolve(p, q):
    out = []
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            if b.is_zero():
                continue
            n, c = _convolve_monomials(i, j)
            while len(out) <= n:
                out.append(ExactScalar())
            out[n] = out[n] + a * b * c
    return _poly_trim(out)


def convolve(f: BorelFunction, g: BorelFunction) -> BorelFunction:
    """Convolution product (f * g)(zeta) = integral of f(u) g(zeta-u).

    Supported pairs: polynomial x polynomial, and simple-pole rational x
    polynomial (the shape needed by the monomial recursion); the latter
    produces a LogPoleBF, or a RationalBF when every residue is zero
    (:func:`log_shape`).  Everything stays exact.
    """
    if not isinstance(f, RationalBF) or not isinstance(g, RationalBF):
        raise TypeError("convolve supports rational shapes only")
    rf, rg = f.rat, g.rat
    if rf.poles and rg.poles:
        raise NotImplementedError(
            "convolution of two singular factors is outside the supported shapes"
        )
    if rg.poles:
        rf, rg = rg, rf
    # now rg is a polynomial (possibly with lead != 1)
    gpoly = _poly_scale(rg.num, ExactScalar.from_rational(1) / rg.lead)
    if not rf.poles:
        fpoly = _poly_scale(rf.num, ExactScalar.from_rational(1) / rf.lead)
        return RationalBF(RationalFunction(_poly_convolve(fpoly, gpoly)))
    # split rf into polynomial part + simple poles via exact partial fractions
    for p in rf.poles:
        if rf.pole_order(p) > 1:
            raise NotImplementedError("convolution needs simple poles")
    quot, rem = _poly_divmod(rf.num, rf.denominator_poly())
    proper = RationalFunction(rem, poles=rf.poles, lead=rf.lead)
    pieces = [(p, proper.residue(p)) for p in rf.poles]
    out_poly = _poly_convolve(quot, gpoly)
    log_terms = []
    for p, rho in pieces:
        if rho.is_zero():
            continue
        # (rho/(u - p)) * g = rho g(zeta - p) Log(1 - zeta/p) + polynomial
        g_shift = _poly_shift(gpoly, -p)
        log_terms.append((p, RationalFunction(_poly_scale(g_shift, rho)), 0))
        out_poly = _poly_add(out_poly, _pole_convolve_poly_part(p, rho, gpoly))
    return log_shape(RationalFunction(out_poly), log_terms)


def _pole_convolve_poly_part(p: ExactScalar, rho: ExactScalar, gpoly):
    """The polynomial remainder of (rho/(u-p)) * g for polynomial g.

    From (1/(u-p)) * u^j: integrate (zeta-u)^j/(u-p) after expanding
    (zeta-u)^j = ((zeta-p) - (u-p))^j; the m >= 1 terms give
    -sum over m of C(j, m) (zeta-p)^(j-m) (-(u-p))^m / m evaluated between
    u = 0 and u = zeta, which is a polynomial in zeta.
    """
    # for each monomial g_j u^j and each m >= 1, the integral from 0 to zeta
    # of (u-p)^(m-1) du equals ((zeta-p)^m - (-p)^m)/m
    out = []
    for j, gj in enumerate(gpoly):
        if gj.is_zero():
            continue
        for m in range(1, j + 1):
            coeff = gj * rho * math.comb(j, m) * ((-1) ** m) * Fraction(1, m)
            # (zeta-p)^(j-m) * ((zeta-p)^m - (-p)^m)
            first = _poly_shift(
                [ExactScalar()] * j + [ExactScalar.from_rational(1)], -p
            )
            second = _poly_scale(
                _poly_shift([ExactScalar()] * (j - m)
                            + [ExactScalar.from_rational(1)], -p),
                (-p) ** m,
            )
            piece = _poly_add(first, _poly_scale(second, -1))
            out = _poly_add(out, _poly_scale(piece, coeff))
    return out


# -- classical minors -------------------------------------------------------------------


def euler_minor() -> RationalBF:
    """1/(1+zeta), the Borel transform of the Euler series."""
    return RationalBF(RationalFunction.simple_pole(-1, 1))


def stirling_minor() -> StirlingBF:
    return StirlingBF()


def dilog_minor() -> DilogBF:
    return DilogBF()


def power_minor(sigma, with_log: bool = False) -> PowerBF:
    return PowerBF(sigma, with_log=with_log)
