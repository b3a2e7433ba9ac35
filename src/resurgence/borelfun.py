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
every shape through: ``singular_values``, ``ray_evaluator``,
``polar_evaluator`` (with the ``single_valued`` flag), ``truncation_floor``,
``tail_bound`` and ``origin_head``.  A shape need only implement
``singular_points`` and ``numeric_evaluator``: the defaults take the
principal sheet along a ray, a sampled tail envelope marked not proved, a
floor from the singular moduli and no origin head, and refuse a Hankel
contour unless the shape is single-valued.  Each bundled shape overrides
what it knows: proved tail envelopes, and for power kernels an exact head
series at the origin.

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

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import DecayMarginError, NotSimpleError, UnreachableBranchError
from .scalars import ExactScalar
from .series import BorelSeries

__all__ = [
    "RationalFunction",
    "BorelFunction",
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


# -- tail envelopes -------------------------------------------------------------------


def _moment_integral(order, m, T):
    """integral over [T, inf) of e^(-m t) t^(order-1) dt = Gamma(order, m T)
    / m^order."""
    return mpmath.gammainc(order, m * T) / m ** order


def _pole_tail_distance(v, theta, T):
    """min over t >= T of |t e^(i theta) - v|, by exact geometry."""
    u = v * mpmath.exp(mpmath.mpc(0, -1) * theta)
    if u.real >= T:
        return abs(u.imag)
    return abs(mpmath.mpf(T) - u)


def _rational_envelope(rat, theta, T, prec):
    """Constant M with |rat(t e^(i theta))| <= M for t >= T, or None.

    Valid for proper rational functions with simple poles: the partial
    fraction bound sum of |res_p| / dist(tail, p).  Anything else returns
    None and the caller falls back to a sampled envelope.
    """
    if rat.is_zero():
        return mpmath.mpf(0)
    if len(rat.num) - 1 >= sum(rat.poles.values()):
        return None
    M = mpmath.mpf(0)
    for p in rat.poles:
        if rat.pole_order(p) > 1:
            return None
        d = _pole_tail_distance(p.evaluate(prec), theta, T)
        if not d > 0:
            return None
        M += abs(rat.residue(p).evaluate(prec)) / d
    return M


def _envelope_tail(M, evalf, m, T, moment):
    """(tail bound, proved?) from a constant envelope M of |f| beyond T.

    M = None falls back to an envelope sampled from the ray evaluator
    ``evalf``, honest only for decaying shapes, so it is not proved.
    """
    proved = M is not None
    if not proved:
        samples = [abs(evalf(T * c))
                   for c in (1, mpmath.mpf(3) / 2, 2, 3, 5, 8)]
        if samples[-1] > 2 * samples[0] + 1:
            raise NotImplementedError(
                "the integrand does not appear to decay along the ray, and "
                "no proved envelope is available for this shape"
            )
        M = 4 * max(samples)
    return abs(M * _moment_integral(moment + 1, m, T)), proved


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

    def ray_evaluator(self, theta, prec: int):
        """t -> f(t e^(i theta)) on the principal sheet, with the shape's
        evaluator built once."""
        evaluate = self.numeric_evaluator(prec)
        direction = mpmath.exp(mpmath.mpc(0, 1) * theta)
        return lambda t: evaluate(t * direction)

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

    def truncation_floor(self, sing, prec: int):
        """Smallest ray truncation point at which ``tail_bound`` holds,
        given the singular values ``sing``: past twice the farthest of
        them (capped at 32) and at least 4."""
        mods = [abs(v) for v in sing]
        top = min(max(mods, default=mpmath.mpf(0)), mpmath.mpf(32))
        return max(mpmath.mpf(4), 2 * top + 1)

    def tail_bound(self, evalf, theta, m, T, moment, prec: int):
        """(bound, proved?) for the integral over t >= T of e^(-m t)
        |f(t e^(i theta))| t^moment, with ``evalf`` the ray evaluator.
        The default envelope is sampled, so it is not proved."""
        return _envelope_tail(None, evalf, m, T, moment)

    def origin_head(self, w, theta, moment, prec: int):
        """A function T -> (h, head, error): the integral of e^(-w t)
        f(t e^(i theta)) t^moment over [0, h], done exactly, once the
        truncation point T is known; the quadrature covers [h, T].  The
        default, for shapes regular at the origin, has h = 0.  A shape
        whose origin no head covers raises here, before any sampling."""
        return lambda T: (0, 0, 0)

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

    def truncation_floor(self, sing, prec: int):
        return mpmath.mpf(1)

    def tail_bound(self, evalf, theta, m, T, moment, prec: int):
        M = _rational_envelope(self.rat, theta, T, prec)
        return _envelope_tail(M, evalf, m, T, moment)

    def log_form(self):
        return self.rat, []

    def __repr__(self):
        return f"<RationalBF {self.rat!r}>"


def _logpole_envelope(f, theta, T, prec):
    """Constant envelope for a rational-plus-logs shape beyond T.

    Each log factor obeys |Log(1 - zeta/a) + 2 pi i k| <= ln(1 + t/|a|)
    + pi + 2 pi |k|, and its proper rational cofactor decays like
    2 * (sum |res|) / t once T >= 2 max|pole| + 1 (enforced by the
    truncation floor).  The product (B + ln(1 + t/|a|)) / t is decreasing,
    so its value at T is a valid constant bound for the whole tail.
    """
    M = _rational_envelope(f.rational_part, theta, T, prec)
    if M is None:
        return None
    for a, r, k in f.log_terms:
        if r.is_zero():
            continue
        if not r.poles or len(r.num) - 1 >= sum(r.poles.values()):
            return None
        ressum = mpmath.mpf(0)
        for p in r.poles:
            if r.pole_order(p) > 1:
                return None
            ressum += abs(r.residue(p).evaluate(prec))
        av = abs(a.evaluate(prec))
        B = mpmath.pi * (1 + 2 * abs(k))
        M += (2 * ressum / T) * (mpmath.log(1 + T / av) + B)
    return M


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

    def truncation_floor(self, sing, prec: int):
        mods = [abs(p.evaluate(prec)) for p in self.rational_part.poles]
        for _a, r, _k in self.log_terms:
            mods.extend(abs(p.evaluate(prec)) for p in r.poles)
        top = max(mods, default=mpmath.mpf(0))
        return max(mpmath.mpf(4), 2 * top + 1)

    def tail_bound(self, evalf, theta, m, T, moment, prec: int):
        M = _logpole_envelope(self, theta, T, prec)
        return _envelope_tail(M, evalf, m, T, moment)

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


class StirlingBF(BorelFunction):
    """zeta^-2 (zeta/2 coth(zeta/2) - 1): simple poles at 2*pi*i*k, k != 0,
    with residue 1/(2*pi*i*k); single-valued.

    ``singular_points`` lists the first ``count`` conjugate pairs; paths
    whose targets sit farther out on the lattice than that must raise the
    count when building continuation data.  Ray sums check the first 48
    pairs."""

    single_valued = True

    def singular_points(self, count: int = 8):
        tau = ExactScalar.tau()
        out = []
        for k in range(1, count + 1):
            out.append(tau * k)
            out.append(tau * (-k))
        return out

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
                p, q = mpmath.bernfrac(j)
                with mpmath.workprec(work):
                    terms.append(mpmath.mpf(int(p)) / int(q)
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
        return [p.evaluate(prec) for p in self.singular_points(count=48)]

    def truncation_floor(self, sing, prec: int):
        return mpmath.mpf(4)

    def tail_bound(self, evalf, theta, m, T, moment, prec: int):
        """The envelope beyond T.

        With w = zeta/2 the bound chain is |coth w| <= 1 + 1/|sinh w| and
        |sinh w| >= 2 delta / pi where delta = min(dist(w, pi i Z), pi/2);
        the lattice distance is computed exactly over the pole range that can
        matter and capped there.  The minor itself is then bounded by
        (|coth|/2)/t + 1/t^2.
        """
        tau = 2 * mpmath.pi
        kmax = max(96, int(T / float(tau)) + 2)
        d = mpmath.inf
        for k in range(1, kmax + 1):
            for sgn in (1, -1):
                d = min(d, _pole_tail_distance(mpmath.mpc(0, sgn * tau * k),
                                               theta, T))
        delta = min(d / 2, mpmath.pi / 2)
        coth_bound = 1 + mpmath.pi / (2 * delta)
        M = (coth_bound / 2) / T + 1 / mpmath.mpf(T) ** 2
        return _envelope_tail(M, evalf, m, T, moment)

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
                p, q = mpmath.bernfrac(2 * k + 2)
                coeffs.append(ExactScalar.from_rational(
                    Fraction(int(p), int(q) * math.factorial(2 * k + 2))
                ))
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

    def tail_bound(self, evalf, theta, m, T, moment, prec: int):
        """Guaranteed tail bound beyond T >= 1.

        The inversion identity Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2
        bounds the principal sheet by pi^2/3 + (ln t + pi)^2 / 2 once
        |z| >= 1 (the series bounds |Li2(1/z)| by pi^2/6 there), and each
        stored loop at 1 contributes |2 pi (Log z + 2 pi i m)| <= 2 pi
        (ln t + pi (1 + 2 |m|)).  With ln t <= 2 sqrt(t) the whole envelope
        is A + B sqrt(t) + C t, whose weighted tails are incomplete gammas.
        """
        pi = mpmath.pi
        loops = abs(self.n)
        sheet = abs(self.m)
        A = pi ** 2 / 3 + pi ** 2 / 2 + 2 * pi ** 2 * loops * (1 + 2 * sheet)
        B = 2 * pi + 4 * pi * loops
        C = mpmath.mpf(2)
        half = mpmath.mpf(1) / 2
        return abs(A * _moment_integral(moment + 1, m, T)
                   + B * _moment_integral(moment + 1 + half, m, T)
                   + C * _moment_integral(moment + 2, m, T)), True

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
        with mpmath.workprec(prec + 16):
            s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator
            g = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * s) \
                * mpmath.gamma(1 - s) / (2 * mpmath.pi * mpmath.mpc(0, 1))
        with mpmath.workprec(prec):
            return +g

    def g_prime_value(self, prec: int = 53):
        with mpmath.workprec(prec + 16):
            s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator
            g = self.g_value(prec + 16)
            gp = g * (mpmath.mpc(0, 1) * mpmath.pi - mpmath.digamma(1 - s))
        with mpmath.workprec(prec):
            return +gp

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

    def eval_polar(self, radius, theta, prec: int = 53):
        """Value at zeta = radius * e^(i theta), theta a continuous angle."""
        return self.polar_evaluator(prec)(radius, theta)

    def ray_evaluator(self, theta, prec: int):
        # polar, so a ray angle outside (-pi, pi] continues onto its sheet
        polar = self.polar_evaluator(prec)
        return lambda t: polar(t, theta)

    def truncation_floor(self, sing, prec: int):
        return mpmath.mpf(1)

    def tail_bound(self, evalf, theta, m, T, moment, prec: int):
        """Exact tail bound via incomplete gamma moments.

        |f| <= |g| t^(sigma-1) (+ log factor), and the modulus integral
        integral over [T, inf) of e^(-m t) t^(s-1) dt equals
        Gamma(s, m T) / m^s.  The log factor uses |log zeta| <= ln t + |theta|
        + 2 pi (covering the Hankel sheet range) and ln t <= 2 sqrt(t).
        """
        s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator + moment
        g = abs(self.g_value(prec))
        base = _moment_integral(s, m, T)
        if not self.with_log:
            return g * base, True
        A = abs(mpmath.mpf(theta)) + 2 * mpmath.pi
        gp = abs(self.g_prime_value(prec))
        return g * (A * base + 2 * _moment_integral(s + mpmath.mpf(1) / 2, m, T)) \
            + gp * base, True

    def origin_head(self, w, theta, moment, prec: int):
        """Exact series for the integral over [0, h], with
        h = min(1/2, T/4, 1/(2 max(|w|, 1))); sigma <= 0 is refused, as
        the kernel is not integrable at the origin.

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

        def head(T):
            h = min(mpmath.mpf(1) / 2, T / 4, 1 / (2 * max(abs(w), 1)))
            s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator \
                + moment
            g = self.g_value(prec)
            gp = self.g_prime_value(prec) if self.with_log else None
            logh = mpmath.log(h)
            total = mpmath.mpc(0)
            ck = mpmath.mpc(1)
            bound = mpmath.mpf(0)
            floor = mpmath.ldexp(1, -(prec + 8))
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
                if bound < floor * (1 + abs(total)) and k > 2:
                    break
                ck = ck * (-w) / (k + 1)
            phase = mpmath.exp(mpmath.mpc(0, 1) * theta * (s - moment - 1))
            return h, phase * total, bound

        return head

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
    return _intermediate_points(f.singular_points(), ExactScalar.coerce(omega))


def continue_along(f: BorelFunction, path: PathSpec) -> BorelFunction:
    """The branch of f reached along the path (see PathSpec)."""
    target = ExactScalar.coerce(path.target)
    inter = _intermediate_points(f.singular_points(), target)
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
    produces a LogPoleBF.  Everything stays exact.
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
        log_terms.append((p, RationalFunction(_poly_scale(g_shift, rho))))
        out_poly = _poly_add(out_poly, _pole_convolve_poly_part(p, rho, gpoly))
    return LogPoleBF(RationalFunction(out_poly), log_terms)


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
