"""Recorded exact results of singularity extraction and alien operators,
and the exact shape contract.

Every call below reads simple-singularity data off a bundled shape: Euler
at -1 and 5, Stirling on its lattice along each side, a two-log shape on
and past its branch points, a pole and a log at one point, the dilogarithm
at 1 and, twice looped, at 0, and the depth-two minors of a hyperlog
family.  Then come the alien operators on Euler and Stirling and the
Stokes automorphism and its half power on a Stirling transseries.  The
JSON forms of every exact number (a_0 and the Taylor coefficients of chi,
or the coefficients of a series) and the class names of chi and of each
minor must equal the literals recorded from the same calls.  A change
that moves any of them changes the numbers the package reports, and must
say so.

The contract test defines a shape here, 1/(1 + zeta) + log(1 - zeta/2),
with nothing but ``singular_points``, ``numeric_evaluator`` and
``log_form``: the defaults of ``BorelFunction`` must extract it, expand
it and alien-derive it.
"""

from fractions import Fraction

import mpmath
import pytest

from resurgence.alien import (
    ResurgentSeries,
    Transseries,
    alien_derivation,
    alien_minus,
    alien_plus,
    apply_stokes,
    euler_resurgent,
    stirling_resurgent,
    stokes_power,
)
from resurgence.borelfun import (
    BorelFunction,
    LogPoleBF,
    RationalFunction,
    dilog_minor,
    euler_minor,
    extract_singularity,
    stirling_minor,
)
from resurgence.hyperlog import MonomialFamily, default_U, gu_resurgent
from resurgence.scalars import ExactScalar
from resurgence.series import FormalSeries

TAU = ExactScalar.tau()
ORDER = 3

# 5/(zeta - 3) + 2/(zeta - 3) [Log(1 - zeta) + 2 pi i]
#              + (1 + zeta)/(zeta - 3) Log(1 - zeta/2)
TWO_LOG = LogPoleBF(
    RationalFunction.simple_pole(3, 5),
    [(1, RationalFunction.simple_pole(3, 2), 1),
     (2, RationalFunction([1, 1], poles={3: 1}), 0)],
)
# 3/(zeta - 1) + 2 Log(1 - zeta): a pole and a log at the same point
POLE_AND_LOG = LogPoleBF(RationalFunction.simple_pole(1, 3),
                         [(1, RationalFunction.constant(2), 0)])


def record_scalars(values):
    return [v.to_json() for v in values]


def record_data(data):
    """a_0, the class name of chi and its Taylor coefficients."""
    chi = None if data.chi is None else type(data.chi).__name__
    return (data.a0.to_json(), chi, record_scalars(data.chi_series.taylor))


def record_pair(phi):
    """The series coefficients, the minor's class name and its Taylor
    coefficients."""
    return (record_scalars(phi.series.coeffs), type(phi.minor).__name__,
            record_scalars(phi.minor.taylor(ORDER).taylor))


def record_transseries(ts):
    return {k: record_pair(c) for k, c in sorted(ts.components.items())}


def _extract(f, omega, signs=(), loops=()):
    return lambda: record_data(extract_singularity(
        f, omega, signs=signs, order=ORDER, loops=loops))


def _gu(word, omega, signs=()):
    def call():
        fam = MonomialFamily([1, 2], order=6)
        pair = gu_resurgent(fam, word, u=default_U(fam))
        return record_data(extract_singularity(
            pair.minor, omega, signs=signs, order=ORDER))
    return call


def _stirling_ts():
    return Transseries(TAU, {0: stirling_resurgent(order=4)})


CALLS = {
    "euler@-1": _extract(euler_minor(), -1),
    "euler@5": _extract(euler_minor(), 5),
    "stirling@1": _extract(stirling_minor(), TAU),
    "stirling@-1": _extract(stirling_minor(), -TAU),
    "stirling@2+": _extract(stirling_minor(), TAU * 2, "+"),
    "stirling@-2-": _extract(stirling_minor(), TAU * -2, "-"),
    "stirling@3++": _extract(stirling_minor(), TAU * 3, "++"),
    "stirling@3+-": _extract(stirling_minor(), TAU * 3, "+-"),
    "stirling@-3--": _extract(stirling_minor(), TAU * -3, "--"),
    "two-log@1": _extract(TWO_LOG, 1),
    "two-log@3++": _extract(TWO_LOG, 3, "++"),
    "two-log@3--": _extract(TWO_LOG, 3, "--"),
    "two-log@3+-": _extract(TWO_LOG, 3, "+-"),
    "pole-and-log@1": _extract(POLE_AND_LOG, 1),
    "dilog@1": _extract(dilog_minor(), 1),
    "dilog-looped-twice@0": _extract(dilog_minor(), 0, loops=((1, 2),)),
    "gu(1,2)@1": _gu((1, 2), 1),
    "gu(1,2)@3+": _gu((1, 2), 3, "+"),
    "gu(1,2)@3-": _gu((1, 2), 3, "-"),
    "gu(2,1)@2": _gu((2, 1), 2),
    "gu(2,1)@3+": _gu((2, 1), 3, "+"),
    "gu(2,1)@3-": _gu((2, 1), 3, "-"),
    "gu(1,1)@1": _gu((1, 1), 1),
    "gu(1,1)@2+": _gu((1, 1), 2, "+"),
    "gu(1,1)@2-": _gu((1, 1), 2, "-"),
    "gu(2,2)@2": _gu((2, 2), 2),
    "gu(2,2)@4+": _gu((2, 2), 4, "+"),
    "gu(2,2)@4-": _gu((2, 2), 4, "-"),
    "alien_plus(euler)@-1": lambda: record_pair(
        alien_plus(euler_resurgent(order=4), -1)),
    "alien_minus(euler)@-1": lambda: record_pair(
        alien_minus(euler_resurgent(order=4), -1)),
    "alien_derivation(euler)@-1": lambda: record_pair(
        alien_derivation(euler_resurgent(order=4), -1)),
    "alien_plus(stirling)@2": lambda: record_pair(
        alien_plus(stirling_resurgent(order=4), TAU * 2)),
    "alien_minus(stirling)@-3": lambda: record_pair(
        alien_minus(stirling_resurgent(order=4), TAU * -3)),
    "alien_derivation(stirling)@3": lambda: record_pair(
        alien_derivation(stirling_resurgent(order=4), TAU * 3)),
    "apply_stokes(stirling)": lambda: record_transseries(
        apply_stokes(_stirling_ts(), up_to=3)),
    "stokes_power(stirling, 1/2)": lambda: record_transseries(
        stokes_power(_stirling_ts(), Fraction(1, 2), up_to=3)),
}


# recorded from the calls above; see the module docstring
GOLDEN = {
    'euler@-1':
        ({'terms': [{'tau': 1, 'logs': [], 're': '1', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'euler@5':
        ({'terms': []},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@1':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@-1':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@2+':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@-2-':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@3++':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/3', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@3+-':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/3', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'stirling@-3--':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1/3', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'two-log@1':
        ({'terms': []},
         'RationalBF',
         [{'terms': [{'tau': 1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': 1, 'logs': [], 're': '-1/2', 'im': '0'}]},
          {'terms': [{'tau': 1, 'logs': [], 're': '-1/4', 'im': '0'}]},
          {'terms': [{'tau': 1, 'logs': [], 're': '-1/8', 'im': '0'}]}]),
    'two-log@3++':
        ({'terms': [{'tau': 1, 'logs': [], 're': '5', 'im': '0'},
                    {'tau': 1, 'logs': [[2, 1]], 're': '-2', 'im': '0'},
                    {'tau': 2, 'logs': [], 're': '5', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'two-log@3--':
        ({'terms': [{'tau': 1, 'logs': [], 're': '5', 'im': '0'},
                    {'tau': 1, 'logs': [[2, 1]], 're': '-2', 'im': '0'},
                    {'tau': 2, 'logs': [], 're': '-1', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'two-log@3+-':
        ({'terms': [{'tau': 1, 'logs': [], 're': '5', 'im': '0'},
                    {'tau': 1, 'logs': [[2, 1]], 're': '-2', 'im': '0'},
                    {'tau': 2, 'logs': [], 're': '1', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'pole-and-log@1':
        ({'terms': [{'tau': 1, 'logs': [], 're': '3', 'im': '0'}]},
         'RationalBF',
         [{'terms': [{'tau': 1, 'logs': [], 're': '2', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []}]),
    'dilog@1':
        ({'terms': []},
         'LogPoleBF',
         [{'terms': []},
          {'terms': [{'tau': 1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': 1, 'logs': [], 're': '1/2', 'im': '0'}]},
          {'terms': [{'tau': 1, 'logs': [], 're': '-1/3', 'im': '0'}]}]),
    'dilog-looped-twice@0':
        ({'terms': []},
         'RationalBF',
         [{'terms': [{'tau': 2, 'logs': [], 're': '-2', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []}]),
    'gu(1,2)@1':
        ({'terms': []},
         'RationalBF',
         [{'terms': [{'tau': -1, 'logs': [], 're': '-1/2', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1/4', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1/8', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1/16', 'im': '0'}]}]),
    'gu(1,2)@3+':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(1,2)@3-':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(2,1)@2':
        ({'terms': []},
         'RationalBF',
         [{'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]}]),
    'gu(2,1)@3+':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(2,1)@3-':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(1,1)@1':
        ({'terms': []},
         'RationalBF',
         [{'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1', 'im': '0'}]}]),
    'gu(1,1)@2+':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(1,1)@2-':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(2,2)@2':
        ({'terms': []},
         'RationalBF',
         [{'terms': [{'tau': -1, 'logs': [], 're': '-1/2', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1/4', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1/8', 'im': '0'}]},
          {'terms': [{'tau': -1, 'logs': [], 're': '-1/16', 'im': '0'}]}]),
    'gu(2,2)@4+':
        ({'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'gu(2,2)@4-':
        ({'terms': [{'tau': 0, 'logs': [], 're': '-1/2', 'im': '0'}]},
         None,
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'alien_plus(euler)@-1':
        ([{'terms': [{'tau': 1, 'logs': [], 're': '1', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []},
          {'terms': []}],
         'RationalBF',
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'alien_minus(euler)@-1':
        ([{'terms': [{'tau': 1, 'logs': [], 're': '1', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []},
          {'terms': []}],
         'RationalBF',
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'alien_derivation(euler)@-1':
        ([{'terms': [{'tau': 1, 'logs': [], 're': '1', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []},
          {'terms': []}],
         'RationalBF',
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'alien_plus(stirling)@2':
        ([{'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []},
          {'terms': []}],
         'RationalBF',
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'alien_minus(stirling)@-3':
        ([{'terms': [{'tau': 0, 'logs': [], 're': '-1/3', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []},
          {'terms': []}],
         'RationalBF',
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'alien_derivation(stirling)@3':
        ([{'terms': [{'tau': 0, 'logs': [], 're': '1/3', 'im': '0'}]},
          {'terms': []},
          {'terms': []},
          {'terms': []},
          {'terms': []}],
         'RationalBF',
         [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
    'apply_stokes(stirling)':
        {0: ([{'terms': []},
              {'terms': [{'tau': 0, 'logs': [], 're': '1/12', 'im': '0'}]},
              {'terms': []},
              {'terms': [{'tau': 0, 'logs': [], 're': '-1/360', 'im': '0'}]},
              {'terms': []}],
             'StirlingBF',
             [{'terms': [{'tau': 0, 'logs': [], 're': '1/12', 'im': '0'}]},
              {'terms': []},
              {'terms': [{'tau': 0, 'logs': [], 're': '-1/720', 'im': '0'}]},
              {'terms': []}]),
         1: ([{'terms': [{'tau': 0, 'logs': [], 're': '1', 'im': '0'}]},
              {'terms': []},
              {'terms': []},
              {'terms': []},
              {'terms': []}],
             'RationalBF',
             [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
         2: ([{'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
              {'terms': []},
              {'terms': []},
              {'terms': []},
              {'terms': []}],
             'RationalBF',
             [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
         3: ([{'terms': [{'tau': 0, 'logs': [], 're': '1/3', 'im': '0'}]},
              {'terms': []},
              {'terms': []},
              {'terms': []},
              {'terms': []}],
             'RationalBF',
             [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}])},
    'stokes_power(stirling, 1/2)':
        {0: ([{'terms': []},
              {'terms': [{'tau': 0, 'logs': [], 're': '1/12', 'im': '0'}]},
              {'terms': []},
              {'terms': [{'tau': 0, 'logs': [], 're': '-1/360', 'im': '0'}]},
              {'terms': []}],
             'StirlingBF',
             [{'terms': [{'tau': 0, 'logs': [], 're': '1/12', 'im': '0'}]},
              {'terms': []},
              {'terms': [{'tau': 0, 'logs': [], 're': '-1/720', 'im': '0'}]},
              {'terms': []}]),
         1: ([{'terms': [{'tau': 0, 'logs': [], 're': '1/2', 'im': '0'}]},
              {'terms': []},
              {'terms': []},
              {'terms': []},
              {'terms': []}],
             'RationalBF',
             [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
         2: ([{'terms': [{'tau': 0, 'logs': [], 're': '1/4', 'im': '0'}]},
              {'terms': []},
              {'terms': []},
              {'terms': []},
              {'terms': []}],
             'RationalBF',
             [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}]),
         3: ([{'terms': [{'tau': 0, 'logs': [], 're': '1/6', 'im': '0'}]},
              {'terms': []},
              {'terms': []},
              {'terms': []},
              {'terms': []}],
             'RationalBF',
             [{'terms': []}, {'terms': []}, {'terms': []}, {'terms': []}])},
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_matches_recorded_result(name):
    assert CALLS[name]() == GOLDEN[name]


class PoleAndLog(BorelFunction):
    """1/(1 + zeta) + log(1 - zeta/2), defined by its exact form only."""

    def singular_points(self):
        return [ExactScalar.from_rational(-1), ExactScalar.from_rational(2)]

    def numeric_evaluator(self, prec: int = 53):
        def evaluate(zeta):
            with mpmath.workprec(prec):
                return 1 / (1 + zeta) + mpmath.log(1 - zeta / 2)
        return evaluate

    def log_form(self):
        return (RationalFunction.simple_pole(-1, 1),
                [(ExactScalar.from_rational(2), RationalFunction.constant(1),
                  0)])


def test_default_rules_extract_a_new_shape():
    shape = PoleAndLog()
    pole = extract_singularity(shape, -1, order=ORDER)
    assert pole.a0 == TAU
    assert pole.chi is None
    log = extract_singularity(shape, 2, order=ORDER)
    assert log.a0.is_zero()
    assert log.chi_series.taylor == [TAU] + [ExactScalar()] * ORDER


def test_default_rules_expand_and_alien_derive_a_new_shape():
    shape = PoleAndLog()
    # 1/(1 + zeta) - sum of (zeta/2)^n / n
    assert shape.taylor(3).taylor == [
        ExactScalar.from_rational(c)
        for c in (1, Fraction(-3, 2), Fraction(7, 8), Fraction(-25, 24))]
    phi = ResurgentSeries.from_minor(shape, order=4)
    assert phi.consistent()
    out = alien_derivation(phi, 2)
    assert out.series == FormalSeries([0, TAU], order=4)
    assert out.minor.taylor(2).taylor == [TAU, ExactScalar(), ExactScalar()]
    assert alien_derivation(phi, -1).series == FormalSeries([TAU], order=4)
