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
        ("mpc(real='0.3613286168882225846362767648998343128496912868286017328"
         "5007476806640625', imag='0.0')"),
        ("mpf('0.000000000000000056582843983422125934928337553358387464741438"
         "7142546442489245866244024218971731')"),
        155,
        ("{'margin': 2.0, 'truncation': 17.0859375, 'tail_bound': 3.989993882"
         "6816937e-17, 'quadrature_error': 1.6682328577393047e-17, 'rounding'"
         ": 5.765792121400168e-22, 'segments': 7, 'panels': 7, 'degrees': {12"
         ": 1, 16: 1, 24: 5}, 'rigorous_tail': True, 'method': 'clenshaw-curt"
         "is'}"),
    ),
    "euler-moment-1": (
        ("mpc(real='-0.071249593078014837145355789976841620614322891924530267"
         "7154541015625', imag='-0.000000000000000000003829737663321555255996"
         "816013276567394106319372595561744091568169164030953355304')"),
        ("mpf('0.000000000000002203719969562664900453868151975640788234248670"
         "734465231670073936953713200637139')"),
        142,
        ("{'margin': 2.866009467376818, 'truncation': 11.390625, 'tail_bound'"
         ": 2.202436150494595e-15, 'quadrature_error': 1.2547805363416938e-18"
         ", 'rounding': 2.90385317280829e-20, 'segments': 6, 'panels': 6, 'de"
         "grees': {16: 1, 24: 5}, 'rigorous_tail': True, 'method': 'clenshaw-"
         "curtis'}"),
    ),
    "euler-prec-90": (
        ("mpc(real='1.2620837402553184961886264331582387958155487268745165163"
         "60813511710148304700851', imag='0.0')"),
        ("mpf('0.000000000000000039149914036257986285015187280795653576257719"
         "77221262288937185812225939007920672')"),
        142,
        ("{'margin': 3.0, 'truncation': 11.390625, 'tail_bound': 3.8826548290"
         "91266e-17, 'quadrature_error': 3.2336574351797305e-19, 'rounding': "
         "1.827356077633936e-27, 'segments': 6, 'panels': 6, 'degrees': {16: "
         "1, 24: 5}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "euler-node-capped": (
        ("mpc(real='0.1516550883981904627184904461867365199623236549086868762"
         "969970703125', imag='-0.3938033859840534135456557515708730932146863"
         "77905309200286865234375')"),
        ("mpf('0.083573136981653455624866706427655849154234601883217692375183"
         "10546875')"),
        395,
        ("{'margin': 0.05, 'truncation': 437.8938903808594, 'tail_bound': 1.4"
         "12295085281008e-11, 'quadrature_error': 0.0835731369675305, 'roundi"
         "ng': 4.1627620031425646e-20, 'segments': 11, 'panels': 11, 'degrees"
         "': {16: 3, 24: 2, 48: 6}, 'rigorous_tail': True, 'method': 'clensha"
         "w-curtis'}"),
    ),
    "double-pole": (
        ("mpc(real='0.2773427662235547894642364447070903565872868057340383529"
         "6630859375', imag='0.0')"),
        ("mpf('0.000000000001825307258581808206911498986634046562967271867274"
         "597629826615730053163133561611')"),
        102,
        ("{'margin': 2.0, 'truncation': 11.390625, 'tail_bound': 1.6636899883"
         "070707e-12, 'quadrature_error': 1.6161723563450142e-13, 'rounding':"
         " 3.4640236133474935e-20, 'segments': 6, 'panels': 6, 'degrees': {16"
         ": 6}, 'rigorous_tail': False, 'method': 'clenshaw-curtis'}"),
    ),
    "logpole": (
        ("mpc(real='0.2360678546143904840969333577826994030601781560108065605"
         "16357421875', imag='0.0')"),
        ("mpf('0.000000000000010271136332504491237425547738362404216139107691"
         "84630476531100429227194581471849')"),
        118,
        ("{'margin': 3.0, 'truncation': 10.5, 'tail_bound': 8.433690116510378"
         "e-15, 'quadrature_error': 1.8374127041281903e-15, 'rounding': 3.351"
         "186592396904e-20, 'segments': 6, 'panels': 6, 'degrees': {16: 4, 24"
         ": 2}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "stirling": (
        ("mpc(real='0.0083305634333628712281830507018355169018830608251846570"
         "0559318065643310546875', imag='0.0')"),
        ("mpf('0.000000000000000000135217117933539045746119815446366587032655"
         "7817811649073435792298903109572190406')"),
        100,
        ("{'margin': 10.0, 'truncation': 4.0, 'tail_bound': 1.327610704778621"
         "5e-19, 'quadrature_error': 2.0289938266760076e-21, 'rounding': 4.27"
         "053629000882e-22, 'segments': 4, 'panels': 4, 'degrees': {24: 4}, '"
         "rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "dilog": (
        ("mpc(real='0.1408215196251777767688651010757894255220890045166015625"
         "', imag='-0.0136642327289132944206917485985286475624889135360717773"
         "4375')"),
        ("mpf('0.000000001053646582261269267103619605375954687564998835114238"
         "3180558681488037109375')"),
        106,
        ("{'margin': 2.6327476856711183, 'truncation': 9.0, 'tail_bound': 8.9"
         "97472709220217e-10, 'quadrature_error': 1.5389918451666285e-10, 'ro"
         "unding': 1.268225844749047e-16, 'segments': 6, 'panels': 6, 'degree"
         "s': {12: 1, 16: 4, 24: 1}, 'rigorous_tail': True, 'method': 'clensh"
         "aw-curtis'}"),
    ),
    "power-log": (
        ("mpc(real='-0.245064535867136798233888693443471851196591160260140895"
         "843505859375', imag='1.11072073453959156155105431063034870931005571"
         "0375308990478515625')"),
        ("mpf('0.000000000000001063111374979534335006217092737207201299150661"
         "218412831010224350869464160496136')"),
        163,
        ("{'margin': 2.0, 'truncation': 17.0859375, 'tail_bound': 8.990197805"
         "257097e-16, 'quadrature_error': 1.6403365261241106e-16, 'rounding':"
         " 5.794184140932406e-20, 'segments': 7, 'panels': 7, 'degrees': {12:"
         " 1, 24: 6}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "pade": (
        ("mpc(real='0.3613286168882222140877379448764550318173860432580113410"
         "94970703125', imag='0.0')"),
        ("mpf('0.000000000000280799971937459895331211512459511888282622474654"
         "1402162158806987690695677883923')"),
        126,
        ("{'margin': 2.0, 'truncation': 13.5, 'tail_bound': 2.592453540053908"
         "e-13, 'quadrature_error': 2.155458102079212e-14, 'rounding': 3.6911"
         "276977713513e-20, 'segments': 6, 'panels': 6, 'degrees': {16: 3, 24"
         ": 3}, 'rigorous_tail': False, 'method': 'clenshaw-curtis'}"),
    ),
    "euler-jump": (
        ("mpc(real='0.0', imag='0.3128213764590807022258900360611733049154281"
         "6162109375')"),
        (
            ("mpc(real='-0.49457640134679731872316930940680634876116528175771"
             "236419677734375', imag='0.1564106882295403535185185882327996154"
             "117499827407300472259521484375')"),
            ("mpf('0.00000000000874175100003674330941696975032702500127733343"
             "0150379145473493736062664538621902')"),
            165,
            ("{'margin': 2.966313233808127, 'truncation': 7.59375, 'tail_boun"
             "d': 8.416386018421449e-12, 'quadrature_error': 3.25364940386407"
             "73e-13, 'rounding': 4.122888666977124e-20, 'segments': 5, 'pane"
             "ls': 5, 'degrees': {16: 1, 24: 2, 48: 2}, 'rigorous_tail': True"
             ", 'method': 'clenshaw-curtis'}"),
        ),
        (
            ("mpc(real='-0.49457640134679731872316930940680634876116528175771"
             "236419677734375', imag='-0.156410688229540353518518588232799615"
             "4117499827407300472259521484375')"),
            ("mpf('0.00000000000874175100003674098148843844312118723126633728"
             "0648215379841303729335777461528778')"),
            165,
            ("{'margin': 2.966313233808127, 'truncation': 7.59375, 'tail_boun"
             "d': 8.416386018421441e-12, 'quadrature_error': 3.25364940386412"
             "7e-13, 'rounding': 4.122888666977124e-20, 'segments': 5, 'panel"
             "s': 5, 'degrees': {16: 1, 24: 2, 48: 2}, 'rigorous_tail': True,"
             " 'method': 'clenshaw-curtis'}"),
        ),
    ),
    "hankel-pole": (
        ("mpc(real='1.0', imag='0.0')"),
        ("mpf('0.000000000000000000000861463870972902425062039752041316027066"
         "0844356117165502984727424085072818255113')"),
        98,
        ("{'margin': 2.25, 'truncation': 0.25, 'radius': 0.25, 'tail_bound': "
         "0.0, 'quadrature_error': 1.1314185532994805e-23, 'rounding': 8.5014"
         "96854399076e-22, 'segments': 0, 'panels': 2, 'degrees': {48: 2}, 'r"
         "ay_nodes': 0, 'circle_nodes': 98, 'rigorous_tail': True, 'method': "
         "'clenshaw-curtis'}"),
    ),
    "hankel-power": (
        ("mpc(real='0.6933612743488329367962802463054572399414610117673873901"
         "3671875', imag='0.0000000000028174767530760273839767705930720633747"
         "05249483298530321917496621608734130859375')"),
        ("mpf('0.000000000013871549810513194136392841170303237033869633225251"
         "2166682834049424855038523674')"),
        183,
        ("{'margin': 2.866009467376818, 'truncation': 7.59375, 'radius': 0.25"
         ", 'tail_bound': 6.8761846309917475e-12, 'quadrature_error': 1.19180"
         "50243284705e-13, 'rounding': 4.6096851845532436e-20, 'segments': 5,"
         " 'panels': 7, 'degrees': {16: 5, 48: 2}, 'ray_nodes': 85, 'circle_n"
         "odes': 98, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
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
