"""The truncation walk of the Laplace sums against its definition.

The segments of a sum run along the doubling ladder lo, then 1/2, 1, 2,
... (2 lo, 4 lo, ... when the origin head covers [0, lo]), and the
truncation point T is the first ladder point at or past the floor of the
shape's tail rule whose tail bound is within target / 4.  ``walked``
checks that of what ``_choose_truncation`` returns: the points are that
ladder; T is at or past the floor and its bound is the one reported and
within target / 4; the ladder point before T, where it is at or past the
floor, is not; and the bound was evaluated once at each ladder point from
the floor to T and nowhere else.  It is checked on every ray the recorded
sums of ``test_laplace_golden`` take, whose ``diagnostics["truncation"]``
must be the end of the last segment they integrate, on a seeded grid of
shapes, angles, points, targets and moments, and on a seeded grid of the
dilogarithm's sheets.  A ray with a decay margin of 1e-6 is summed or
refused with ``decay-margin``, at one tail bound per doubling at most.
"""

import cmath
import random
from fractions import Fraction

import mpmath
import pytest
from test_laplace_golden import CALLS

from resurgence import _work, laplace
from resurgence.borelfun import (
    DilogBF,
    LogPoleBF,
    PowerBF,
    RationalBF,
    RationalFunction,
    StirlingBF,
    euler_minor,
)
from resurgence.errors import DecayMarginError
from resurgence.laplace import (RaySpec, _choose_truncation, _kernel,
                                laplace_ray)
from resurgence.scalars import ExactScalar


def counted(rule, calls):
    """The tail rule with its bound evaluations appended to ``calls``."""
    floor, bound = rule

    def count(T):
        calls.append(T)
        return bound(T)

    return floor, count


def walked(rule, lo, target, got, calls):
    """Check the walk's result ``got`` = (pts, tail, proved) on the tail
    rule ``rule`` from ``lo``, with ``calls`` the points its bound was
    evaluated at; returns T."""
    floor, bound = rule
    pts, tail, proved = got
    first = mpmath.mpf(1) / 2 if lo == 0 else 2 * mpmath.mpf(lo)
    assert pts == [lo] + [first * 2 ** k for k in range(len(pts) - 1)]
    T = pts[-1]
    assert T >= floor
    assert (tail, proved) == bound(T)
    assert tail <= target / 4
    if len(pts) > 2 and pts[-2] >= floor:
        assert bound(pts[-2])[0] > target / 4
    assert calls == [t for t in pts[1:] if t >= floor]
    return T


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_rays_match_the_walk(name, monkeypatch):
    walks, ends = [], []
    choose, panels = laplace._choose_truncation, laplace._panels

    def chosen(rule, w, lo, target, max_nodes):
        calls = []
        got = choose(counted(rule, calls), w, lo, target, max_nodes)
        walks.append(walked(rule, lo, target, got, calls))
        return got

    def integrated(pieces, max_nodes):
        # the ray piece comes last, after a Hankel contour's circle
        ends.append(pieces[-1].pts[-1])
        return panels(pieces, max_nodes)

    monkeypatch.setattr(laplace, "_choose_truncation", chosen)
    monkeypatch.setattr(laplace, "_panels", integrated)
    result = CALLS[name]()
    results = [result.plus, result.minus] if hasattr(result, "plus") \
        else [result]
    truncations = [r.diagnostics["truncation"] for r in results]
    if name == "hankel-pole":  # a single-valued shape's circle alone
        assert not walks
        assert truncations == [r.diagnostics["radius"] for r in results]
    else:
        assert truncations == [float(T) for T in walks] \
            == [float(T) for T in ends]


SHAPES = {
    "euler": euler_minor(),
    "double-pole": RationalBF(RationalFunction([1], poles={-1: 2})),
    "complex-pole": RationalBF(RationalFunction.simple_pole(
        ExactScalar.tau(1), 3)),
    "polynomial-part": RationalBF(RationalFunction([1, 1], poles={-2: 1})),
    "logpole": LogPoleBF(RationalFunction.simple_pole(-3, 2),
                         [(-1, RationalFunction.simple_pole(-2, 1), 0)]),
    "log-polynomial": LogPoleBF(RationalFunction([0]),
                                [(-1, RationalFunction([1, 1]), 1)]),
    "power": PowerBF(Fraction(1, 2)),
    "power-negative": PowerBF(Fraction(-1, 3)),
    "power-log": PowerBF(Fraction(2, 3), with_log=True),
    "stirling": StirlingBF(),
}


def grid(seed, count):
    """Seeded rays with a decay margin Re(z e^(i theta)) of at least 1/8."""
    rng = random.Random(seed)
    while count:
        name = rng.choice(sorted(SHAPES))
        theta = Fraction(rng.randint(-40, 40), 100)
        z = complex(rng.randint(2, 40) / 8, rng.randint(-16, 16) / 8)
        if (z * cmath.exp(1j * theta)).real < 1 / 8:
            continue
        count -= 1
        yield name, theta, z, 10.0 ** -rng.randint(4, 24), rng.randint(0, 2)


def walk(f, theta, z, target, moment):
    """The walk on one ray of ``f``, from the end of its origin head,
    checked by walked(); returns whether its bound is proved.  A power
    kernel that is not integrable at the origin and a dilogarithm sheet
    looped around 1 have no head, and are walked from 0."""
    spec = RaySpec(theta, z, target_error=target)
    guard = spec.working_prec() + 24
    with mpmath.workprec(guard):
        theta, _z, w, m = _kernel(spec.theta, spec.z, guard)
        try:
            lo = f.origin_head(w, theta, moment, guard)[0]
        except (DecayMarginError, NotImplementedError):
            lo = 0
        rule = f.tail_rule(theta, m, moment, f.singular_values(guard), guard)
        target, calls = mpmath.mpf(target), []
        got = _choose_truncation(counted(rule, calls), w, lo, target, 10**9)
        walked(rule, lo, target, got, calls)
        return got[2]


@pytest.mark.parametrize("name,theta,z,target,moment", list(grid(14, 60)))
def test_grid_matches_the_walk(name, theta, z, target, moment):
    walk(SHAPES[name], theta, z, target, moment)


def dilog_grid(seed, count):
    """Seeded rays of the dilogarithm's sheets, with a decay margin of at
    least 1/8."""
    rng = random.Random(seed)
    while count:
        loops, sheet = rng.randint(-2, 2), rng.randint(-1, 1)
        theta = Fraction(rng.randint(-40, 40), 100)
        z = complex(rng.randint(2, 40) / 8, rng.randint(-16, 16) / 8)
        if (z * cmath.exp(1j * theta)).real < 1 / 8:
            continue
        count -= 1
        yield loops, sheet, theta, z, 10.0 ** -rng.randint(4, 24), \
            rng.randint(0, 2)


@pytest.mark.parametrize("loops,sheet,theta,z,target,moment",
                         list(dilog_grid(18, 12)))
def test_dilog_grid_matches_the_walk(loops, sheet, theta, z, target, moment):
    assert walk(DilogBF(loops, sheet), theta, z, target, moment)


@pytest.mark.parametrize("z", [mpmath.mpf("1e-6"), mpmath.mpc("1e-6", 1)])
def test_tiny_margin_takes_one_bound_per_doubling(z):
    """The Euler minor along theta = 0 at a decay margin of 1e-6: the
    tail bound reaches target / 4 near T = 2^25, 26 doublings from 1/2.
    On the real axis the sum is made, and lies within its error of
    e^z E1(z); where the kernel turns once per 2 pi the walk passes 4000
    turns and the ray is refused."""
    with _work.counting() as counts:
        try:
            res = laplace_ray(euler_minor(), 0, RaySpec(0, z))
        except DecayMarginError as refusal:
            assert refusal.code == "decay-margin"
            assert refusal.details["turns"] > 4000
            T = refusal.details["turns"] * 2 * mpmath.pi
        else:
            T = res.diagnostics["truncation"]
            assert abs(res.value - mpmath.exp(z) * mpmath.e1(z)) \
                <= res.error_estimate
            assert z.imag == 0
    doublings = round(float(mpmath.log(2 * T, 2)))
    assert 0 < counts["tail_bounds"] <= doublings
