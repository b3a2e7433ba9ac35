"""Recorded results of scripted Laplace sums, and the shape contract.

Every call below sums through the shape's own summation rules (its
singular values, panel samplers, truncation floor, tail bound and origin
head), one call per bundled shape plus moment 1, an explicit precision,
a node-capped sum, a lateral jump and Hankel contours on a pole and on a
power kernel.  The reprs of the value, the error estimate, the node count
and the diagnostics must match the literals recorded from the same calls
byte for byte; the values are printed at 256 bits so that every bit of
them is compared.  A change that moves any of them changes the numbers
the package reports, and must say so.

The contract test defines a shape here, 1/(1 + zeta)^2, with nothing but
``singular_points`` and ``numeric_evaluator``: the defaults of
``BorelFunction``, whose panel sampler and sampled tail build the
shape's evaluator themselves, must sum it along a ray to within its
reported error of the closed form 1 - z e^z E1(z), flag its sampled
tail as not rigorous, and refuse it on a Hankel contour.
"""

from fractions import Fraction

import mpmath
import pytest

from resurgence.borelfun import (
    BorelFunction,
    DilogBF,
    LogPoleBF,
    PowerBF,
    RationalBF,
    RationalFunction,
    StirlingBF,
    euler_minor,
)
from resurgence.laplace import (
    RaySpec,
    hankel_laplace,
    laplace_ray,
    lateral_jump,
    pade_minor,
)
from resurgence.scalars import ExactScalar
from resurgence.series import euler_series

EULER = euler_minor()
DOUBLE = RationalBF(RationalFunction([1], poles={-1: 2}))
LOGPOLE = LogPoleBF(RationalFunction.simple_pole(-3, 2),
                    [(-1, RationalFunction.simple_pole(-2, 1), 0)])
POLE0 = RationalBF(RationalFunction.simple_pole(0, ExactScalar.tau(-1)))


def record(result):
    """The compared reprs of a sum, or of both sums of a lateral pair."""
    with mpmath.workprec(256):
        if hasattr(result, "plus"):
            return (repr(result.jump), record(result.plus),
                    record(result.minus))
        return (repr(result.value), repr(result.error_estimate),
                result.nodes_used, repr(result.diagnostics))


CALLS = {
    "euler": lambda: laplace_ray(
        EULER, 0, RaySpec(0, 2, target_error=1e-12)),
    "euler-moment-1": lambda: laplace_ray(
        EULER, 0, RaySpec("0.3", 3, target_error=1e-10), moment=1),
    "euler-prec-90": lambda: laplace_ray(
        EULER, 1, RaySpec(0, 3, prec=90)),
    "euler-node-capped": lambda: laplace_ray(
        EULER, 0, RaySpec(0, mpmath.mpc("0.05", 2), max_nodes=200,
                          target_error=1e-10)),
    "double-pole": lambda: laplace_ray(
        DOUBLE, 0, RaySpec(0, 2, target_error=1e-10)),
    "logpole": lambda: laplace_ray(
        LOGPOLE, 0, RaySpec(0, 3, target_error=1e-10)),
    "stirling": lambda: laplace_ray(
        StirlingBF(), 0, RaySpec(0, 10, target_error=1e-12)),
    "dilog": lambda: laplace_ray(
        DilogBF(), 0, RaySpec("-0.5", 3, target_error=1e-6)),
    "power-log": lambda: laplace_ray(
        PowerBF("1/2", with_log=True), 0, RaySpec(0, 2, target_error=1e-10)),
    "pade": lambda: laplace_ray(
        pade_minor(euler_series(12)), 0, RaySpec(0, 2, target_error=1e-10)),
    "euler-jump": lambda: lateral_jump(
        EULER, 0, mpmath.pi, "0.3", -3, target_error=1e-10),
    "hankel-pole": lambda: hankel_laplace(POLE0, 0, Fraction(9, 4)),
    "hankel-power": lambda: hankel_laplace(
        PowerBF("1/3"), "0.3", 3, target_error=1e-10),
}


# recorded from the calls above; see the module docstring
GOLDEN = {
    "euler": (
        ("mpc(real='0.3613286168882225458438618465473873841986574007023591"
         "5482044219970703125', imag='0.0')"),
        ("mpf('0.000000000000000079800479786252497186529321114760197097376"
         "90526988520558833145043331827594990102')"),
        343,
        ("{'margin': 2.0, 'truncation': 17.0859375, 'tail_bound': 3.989993"
         "8826816937e-17, 'quadrature_error': 6.3968808372532156e-24, 'segm"
         "ents': 7, 'panels': 7, 'rigorous_tail': True, 'method': 'clensha"
         "w-curtis'}"),
    ),
    "euler-moment-1": (
        ("mpc(real='-0.071249593078016464275318674753689762724206957500427"
         "9613494873046875', imag='0.0000000000000012394436340968106562906"
         "35094532836990561184264109022908247059735487027865019627')"),
        ("mpf('0.000000000000004404901353800071220626718474129581119995834"
         "617925414833372599332506069913506508')"),
        294,
        ("{'margin': 2.866009467376818, 'truncation': 11.390625, 'tail_bou"
         "nd': 2.202436150494595e-15, 'quadrature_error': 4.13311968456543"
         "e-24, 'segments': 6, 'panels': 6, 'rigorous_tail': True, 'metho"
         "d': 'clenshaw-curtis'}"),
    ),
    "euler-prec-90": (
        ("mpc(real='1.2620837402553184583545895237155576658940086458380452"
         "90510365248337620869278908', imag='0.0')"),
        ("mpf('0.000000000000000077653106802083670820046728243097419918401"
         "63999496203145916280841918054924269349')"),
        294,
        ("{'margin': 3.0, 'truncation': 11.390625, 'tail_bound': 3.8826548"
         "29091266e-17, 'quadrature_error': 2.554607764946205e-24, 'segmen"
         "ts': 6, 'panels': 6, 'rigorous_tail': True, 'method': 'clenshaw-"
         "curtis'}"),
    ),
    "euler-node-capped": (
        ("mpc(real='0.1516550718338322885985164183153539596560221980325877"
         "666473388671875', imag='-0.3938034421236558371210616583124597411"
         "82465222664177417755126953125')"),
        ("mpf('0.012244339433748497745366520675705523935050678119296208024"
         "02496337890625')"),
        539,
        ("{'margin': 0.05, 'truncation': 437.8938903808594, 'tail_bound': "
         "1.412295085281008e-11, 'quadrature_error': 0.003061084851375649,"
         " 'segments': 11, 'panels': 11, 'rigorous_tail': True, 'method': "
         "'clenshaw-curtis'}"),
    ),
    "double-pole": (
        ("mpc(real='0.2773427662231689606983815743479482307520811446011066"
         "436767578125', imag='0.0')"),
        ("mpf('0.000000000003327380011245237327704026569707559010994925997"
         "710142812069378237538330722600222')"),
        294,
        ("{'margin': 2.0, 'truncation': 11.390625, 'tail_bound': 1.6636899"
         "883070707e-12, 'quadrature_error': 2.162744082010686e-24, 'segm"
         "ents': 6, 'panels': 6, 'rigorous_tail': False, 'method': 'clensh"
         "aw-curtis'}"),
    ),
    "logpole": (
        ("mpc(real='0.2360678546143881373819885943765584102038701530545949"
         "9359130859375', imag='0.0')"),
        ("mpf('0.000000000000016867413736848611656109308641157646218807877"
         "37710790763316637264068731383304112')"),
        294,
        ("{'margin': 3.0, 'truncation': 10.5, 'tail_bound': 8.433690116510"
         "378e-15, 'quadrature_error': 3.538124646225712e-26, 'segments': "
         "6, 'panels': 6, 'rigorous_tail': True, 'method': 'clenshaw-curti"
         "s'}"),
    ),
    "stirling": (
        ("mpc(real='0.0083305634333628712281896681467359411232820320947212"
         "167084217071533203125', imag='0.0')"),
        ("mpf('0.000000000000000000265949917445272986920078809542804762286"
         "0234268094600674053907553562168435482005')"),
        196,
        ("{'margin': 10.0, 'truncation': 4.0, 'tail_bound': 1.327610704778"
         "6215e-19, 'quadrature_error': 1.829712682248536e-25, 'segments'"
         ": 4, 'panels': 4, 'rigorous_tail': True, 'method': 'clenshaw-cur"
         "tis'}"),
    ),
    "dilog": (
        ("mpc(real='0.1408215195985190182348389953403966501355171203613281"
         "25', imag='-0.01366423262967624875641181603214135975576937198638"
         "916015625')"),
        ("mpf('0.000000001799494668619396139258315305648958104534074209368"
         "55487525463104248046875')"),
        343,
        ("{'margin': 2.6327476856711183, 'truncation': 9.0, 'tail_bound': "
         "8.997472709220217e-10, 'quadrature_error': 1.1323178974853932e-2"
         "0, 'segments': 7, 'panels': 7, 'rigorous_tail': True, 'method': "
         "'clenshaw-curtis'}"),
    ),
    "power-log": (
        ("mpc(real='-0.245064535867137032448663004624567207656582468189299"
         "106597900390625', imag='1.11072073453959140922064907641697573126"
         "293718814849853515625')"),
        ("mpf('0.000000000000001798097577180943345329406237030881658769542"
         "099371116663066375029877974611736136')"),
        343,
        ("{'margin': 2.0, 'truncation': 17.0859375, 'tail_bound': 8.990197"
         "805257097e-16, 'quadrature_error': 2.0213020499661296e-23, 'segm"
         "ents': 7, 'panels': 7, 'rigorous_tail': True, 'method': 'clensha"
         "w-curtis'}"),
    ),
    "pade": (
        ("mpc(real='0.3613286168881598681666689198976882835268042981624603"
         "271484375', imag='0.0')"),
        ("mpf('0.000000000000518490744913769206899756638225520771754473380"
         "6211811402708811158390744822099805')"),
        294,
        ("{'margin': 2.0, 'truncation': 13.5, 'tail_bound': 2.592453540053"
         "908e-13, 'quadrature_error': 1.0253777286708833e-24, 'segments':"
         " 6, 'panels': 6, 'rigorous_tail': False, 'method': 'clenshaw-cur"
         "tis'}"),
    ),
    "euler-jump": (
        ("mpc(real='0.0', imag='0.3128213764630997095750331027375068515539"
         "1693115234375')"),
        (
            ("mpc(real='-0.49457640134141358378852895705257708414137596264"
             "48154449462890625', imag='0.15641068823154986621907320751279"
             "08018430389347486197948455810546875')"),
            ("mpf('0.00000000001726672929308764851027011130177842425525313"
             "083773878974902515892608789727091789')"),
            392,
            ("{'margin': 2.966313233808127, 'truncation': 7.59375, 'tail_b"
             "ound': 8.416386018421449e-12, 'quadrature_error': 1.08489303"
             "76994273e-13, 'segments': 6, 'panels': 7, 'rigorous_tail': T"
             "rue, 'method': 'clenshaw-curtis'}"),
        ),
        (
            ("mpc(real='-0.49457640134141358378852895705257708414137596264"
             "48154449462890625', imag='-0.1564106882315498662190732075127"
             "908018430389347486197948455810546875')"),
            ("mpf('0.00000000001726672929308764287228122168720705097762907"
             "476166560627461876720190048217773438')"),
            392,
            ("{'margin': 2.966313233808127, 'truncation': 7.59375, 'tail_b"
             "ound': 8.416386018421441e-12, 'quadrature_error': 1.08489303"
             "76994496e-13, 'segments': 6, 'panels': 7, 'rigorous_tail': T"
             "rue, 'method': 'clenshaw-curtis'}"),
        ),
    ),
    "hankel-pole": (
        ("mpc(real='1.0', imag='0.0')"),
        ("mpf('0.000000000000000127853549842541073504844042623805619039472"
         "1641688686553811434205331354352352946')"),
        147,
        ("{'margin': 2.25, 'truncation': 0.25, 'radius': 0.25, 'tail_bound"
         "': 0.0, 'quadrature_error': 3.1963175702398454e-17, 'segments': "
         "0, 'panels': 2, 'ray_nodes': 0, 'circle_nodes': 147, 'rigorous_t"
         "ail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "hankel-power": (
        ("mpc(real='0.6933612743417572977307379578082446869302657432854175"
         "567626953125', imag='0.00000000000662791072950139309130790418260"
         "04218253276523142858422943390905857086181640625')"),
        ("mpf('0.000000000013755529907528399650846055025323229238427879731"
         "31192302833625262792338617146015')"),
        392,
        ("{'margin': 2.866009467376818, 'truncation': 7.59375, 'radius': 0"
         ".25, 'tail_bound': 6.8761846309917475e-12, 'quadrature_error': 7"
         ".901499115637731e-16, 'segments': 5, 'panels': 7, 'ray_nodes': 2"
         "45, 'circle_nodes': 147, 'rigorous_tail': True, 'method': 'clens"
         "haw-curtis'}"),
    ),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_matches_recorded_result(name):
    assert record(CALLS[name]()) == GOLDEN[name]


class SquaredPole(BorelFunction):
    """1/(1 + zeta)^2, with only the two methods every shape must have."""

    def singular_points(self):
        return [ExactScalar.from_rational(-1)]

    def numeric_evaluator(self, prec=53):
        def evaluate(zeta):
            with mpmath.workprec(prec + 16):
                out = 1 / (1 + mpmath.mpmathify(zeta)) ** 2
            with mpmath.workprec(prec):
                return +out

        return evaluate


@pytest.mark.parametrize("z", [2, mpmath.mpc(3, 1)])
def test_default_rules_sum_a_new_shape(z):
    res = laplace_ray(SquaredPole(), 0, RaySpec(0, z, target_error=1e-10))
    with mpmath.workprec(120):
        zv = mpmath.mpmathify(z)
        exact = 1 - zv * mpmath.exp(zv) * mpmath.e1(zv)
        assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate < 1e-9
    assert res.diagnostics["rigorous_tail"] is False


def test_default_rules_refuse_a_hankel_contour():
    with pytest.raises(NotImplementedError, match="SquaredPole"):
        hankel_laplace(SquaredPole(), 0, 2)
