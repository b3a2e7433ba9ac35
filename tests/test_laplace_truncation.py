"""The truncation search of the Laplace sums against the ladder walk.

``walk`` is the search as a plain walk: the bound of the shape's tail
rule at T_floor, 3/2 T_floor, ... until it is within target / 4, at most
400 steps.  ``_choose_truncation`` starts rules whose proved bound
decreases in T at a predicted step; it must return the same T, bound and
proved flag (``==``) as the walk on every ray the recorded sums of
``test_laplace_golden`` take, and on a seeded grid of shapes, angles,
points, targets and moments, and it must evaluate fewer bounds.  The
dilogarithm, whose bound costs three incomplete gammas, has a seeded grid
of its own.
"""

import cmath
import random
from fractions import Fraction

import mpmath
import pytest
from test_laplace_golden import CALLS

from resurgence import laplace
from resurgence.borelfun import (
    DilogBF,
    LogPoleBF,
    PowerBF,
    RationalBF,
    RationalFunction,
    StirlingBF,
    euler_minor,
)
from resurgence.laplace import RaySpec, _choose_truncation, _kernel
from resurgence.scalars import ExactScalar


def walk(rule, w, target, max_nodes):
    T, bound, _decreasing = rule
    tail, proved = bound(T)
    for _ in range(400):
        if tail <= target / 4:
            break
        T = T * 3 / 2
        tail, proved = bound(T)
    return T, tail, proved


def counted(rule, calls):
    """The tail rule with its bound evaluations appended to ``calls``."""
    floor, bound, decreasing = rule

    def count(T):
        calls.append(T)
        return bound(T)

    return floor, count, decreasing


def compare(args):
    """The search and the walk on one set of arguments: (proved?, search's
    bound evaluations, walk's), after checking that their results are
    equal."""
    searched, walked = [], []
    got = _choose_truncation(counted(args[0], searched), *args[1:])
    assert got == walk(counted(args[0], walked), *args[1:])
    return got[2], len(searched), len(walked)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_rays_match_the_walk(name, monkeypatch):
    seen = []
    search = laplace._choose_truncation

    def both(*args):
        seen.append(compare(args))
        return search(*args)

    monkeypatch.setattr(laplace, "_choose_truncation", both)
    CALLS[name]()
    if name != "hankel-pole":  # a single-valued shape's circle alone
        assert seen


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


def search(f, theta, z, target, moment):
    """The tail rule of one ray of ``f``, and compare() on it."""
    spec = RaySpec(theta, z, target_error=target)
    guard = spec.working_prec() + 24
    with mpmath.workprec(guard):
        theta, _z, w, m = _kernel(spec.theta, spec.z, guard)
        rule = f.tail_rule(theta, m, moment, f.singular_values(guard), guard)
        return rule, compare((rule, w, mpmath.mpf(target), 10**9))


@pytest.mark.parametrize("name,theta,z,target,moment", list(grid(14, 60)))
def test_grid_matches_the_walk(name, theta, z, target, moment):
    rule, (proved, searched, walked) = search(SHAPES[name], theta, z, target,
                                              moment)
    if proved and rule[2] and walked > 3:
        assert searched < walked


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
    rule, (proved, searched, walked) = search(DilogBF(loops, sheet), theta,
                                              z, target, moment)
    assert proved and rule[2]
    if walked > 3:
        assert searched < walked


@pytest.mark.parametrize("target,steps", [(1e-6, 4), (1e-10, 5),
                                          (1e-20, 6)])
def test_dilog_ray_searches_fewer_bounds(target, steps):
    """The ray at angle 0.5 through z = 2, which the walk takes 4, 5 and 6
    bound evaluations to truncate."""
    _rule, (_proved, searched, walked) = search(DilogBF(), Fraction(1, 2), 2,
                                                target, 0)
    assert walked == steps
    assert searched < walked
