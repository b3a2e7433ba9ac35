"""The truncation search of the Laplace sums against the ladder walk.

``walk`` is the search as a plain walk: the shape's tail bound at
T_floor, 3/2 T_floor, ... until it is within target / 4, at most 400
steps.  ``_choose_truncation`` starts shapes whose proved bound
decreases in T at a predicted step; it must return the same T, bound and
proved flag (``==``) as the walk on every ray the recorded sums of
``test_laplace_golden`` take, and on a seeded grid of shapes, angles,
points, targets and moments, and it must evaluate fewer bounds.
"""

import cmath
import random
from fractions import Fraction

import mpmath
import pytest
from test_laplace_golden import CALLS

from resurgence import laplace
from resurgence.borelfun import (
    LogPoleBF,
    PowerBF,
    RationalBF,
    RationalFunction,
    StirlingBF,
    euler_minor,
)
from resurgence.laplace import RaySpec, _choose_truncation, _kernel
from resurgence.scalars import ExactScalar


def walk(f, sing, theta, w, target, moment, prec, max_nodes):
    m = mpmath.mpc(w).real
    T = f.truncation_floor(sing, prec)
    tail, proved = f.tail_bound(theta, m, T, moment, prec)
    for _ in range(400):
        if tail <= target / 4:
            break
        T = T * 3 / 2
        tail, proved = f.tail_bound(theta, m, T, moment, prec)
    return T, tail, proved


class Counted:
    """A shape whose tail bound evaluations are counted."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __getattr__(self, name):
        return getattr(self.f, name)

    def tail_bound(self, *args):
        self.calls += 1
        return self.f.tail_bound(*args)


def compare(args):
    """The search and the walk on one set of arguments: (proved?, search's
    bound evaluations, walk's), after checking that their results are
    equal."""
    search, plain = Counted(args[0]), Counted(args[0])
    got = _choose_truncation(search, *args[1:])
    assert got == walk(plain, *args[1:])
    return got[2], search.calls, plain.calls


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


@pytest.mark.parametrize("name,theta,z,target,moment", list(grid(14, 60)))
def test_grid_matches_the_walk(name, theta, z, target, moment):
    f = SHAPES[name]
    spec = RaySpec(theta, z, target_error=target)
    guard = spec.working_prec() + 24
    with mpmath.workprec(guard):
        theta, _z, w, _m = _kernel(spec.theta, spec.z, guard)
        args = (f, f.singular_values(guard), theta, w, mpmath.mpf(target),
                moment, guard, 10**9)
        proved, searched, walked = compare(args)
    if proved and f.tail_decreasing and walked > 3:
        assert searched < walked
