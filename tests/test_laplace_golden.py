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
        ("mpc(real='0.36132861688822219544750739112469462011034693205147050321"
         "102142333984375', imag='0.0')"),
        ("mpf('0.0000000000000452304504005830969125398000413964893733249021592"
         "2862217615141311455317918444052')"),
        98,
        ("{'margin': 2.0, 'truncation': 16.0, 'tail_bound': 3.724754573262993e"
         "-16, 'quadrature_error': 4.4857974366677584e-14, 'rounding': 5.76579"
         "2121400167e-22, 'segments': 6, 'panels': 6, 'degrees': {12: 1, 16: 5"
         "}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "euler-moment-1": (
        ("mpc(real='-0.0712495930780148265913252671882593958230245334561914205"
         "5511474609375', imag='0.00000000000000066786717457324911542059334598"
         "02194051341777158228445220380931068859808874549344')"),
        ("mpf('0.0000000000010466061497198487196287920185391946580593960068345"
         "65473475606722786324098706245')"),
        94,
        ("{'margin': 2.866009467376818, 'truncation': 16.0, 'tail_bound': 4.09"
         "0396961041215e-21, 'quadrature_error': 1.04660611659092e-12, 'roundi"
         "ng': 2.90385317280829e-20, 'segments': 6, 'panels': 6, 'degrees': {1"
         "2: 2, 16: 4}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "euler-prec-90": (
        ("mpc(real='1.26208374025531844448097035560596011537878218065206192832"
         "761189492885023355484', imag='0.0')"),
        ("mpf('0.0000000000000315183948464786321784335717285877288577065640080"
         "1788651024114469843968455183393')"),
        98,
        ("{'margin': 3.0, 'truncation': 16.0, 'tail_bound': 2.794439377923402e"
         "-23, 'quadrature_error': 3.151839481853241e-14, 'rounding': 1.827356"
         "077633936e-27, 'segments': 6, 'panels': 6, 'degrees': {12: 1, 16: 5}"
         ", 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "euler-node-capped": (
        ("mpc(real='0.15165508839819046271849044618673651996232365490868687629"
         "69970703125', imag='-0.393803385984053413545655751570873093214686377"
         "905309200286865234375')"),
        ("mpf('0.0835731369678276535121249496418371904837840702384710311889648"
         "4375')"),
        395,
        ("{'margin': 0.05, 'truncation': 512.0, 'tail_bound': 2.97148740526818"
         "33e-13, 'quadrature_error': 0.0835731369675305, 'rounding': 4.162762"
         "0031425646e-20, 'segments': 11, 'panels': 11, 'degrees': {16: 3, 24:"
         " 2, 48: 6}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "double-pole": (
        ("mpc(real='0.27734276622355377443416256377783923880997463129460811614"
         "990234375', imag='0.0')"),
        ("mpf('0.0000000000030290831377165469683800857063957896429755826820176"
         "54523320970838540233671665192')"),
        94,
        ("{'margin': 2.0, 'truncation': 16.0, 'tail_bound': 8.764128407677631e"
         "-17, 'quadrature_error': 3.0289954617922342e-12, 'rounding': 3.46402"
         "36133474905e-20, 'segments': 6, 'panels': 6, 'degrees': {12: 2, 16: "
         "4}, 'rigorous_tail': False, 'method': 'clenshaw-curtis'}"),
    ),
    "logpole": (
        ("mpc(real='0.23606785460944781716147427425012139678983658086508512496"
         "9482421875', imag='0.0')"),
        ("mpf('0.0000000000227985541863510376085168463365068763055972585630098"
         "9921265909288194961845874786')"),
        73,
        ("{'margin': 3.0, 'truncation': 8.0, 'tail_bound': 1.9083588124917175e"
         "-11, 'quadrature_error': 3.714966027921996e-12, 'rounding': 3.351186"
         "5923812967e-20, 'segments': 5, 'panels': 5, 'degrees': {12: 3, 16: 2"
         "}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "stirling": (
        ("mpc(real='0.00833056343336287060918063727125342302071153710585349472"
         "23961353302001953125', imag='0.0')"),
        ("mpf('0.0000000000000021617005870192602558924477081082417762469345796"
         "98978233721240894277260125022622')"),
        68,
        ("{'margin': 10.0, 'truncation': 4.0, 'tail_bound': 1.3276107047786215"
         "e-19, 'quadrature_error': 2.1615673988951536e-15, 'rounding': 4.2705"
         "3629000882e-22, 'segments': 4, 'panels': 4, 'degrees': {16: 4}, 'rig"
         "orous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "dilog": (
        ("mpc(real='0.1408215208560691100725392743697739206254482269287109375'"
         ", imag='-0.013664232161697530479327333807759714545682072639465332031"
         "25')"),
        ("mpf('0.0000000533644061982316807973605854963083938713452880620025098"
         "323822021484375')"),
        69,
        ("{'margin': 2.6327476856711183, 'truncation': 8.0, 'tail_bound': 1.16"
         "90998846980125e-08, 'quadrature_error': 4.167340722442897e-08, 'roun"
         "ding': 1.2682258456383398e-16, 'segments': 5, 'panels': 5, 'degrees'"
         ": {12: 4, 16: 1}, 'rigorous_tail': True, 'method': 'clenshaw-curtis'"
         "}"),
    ),
    "power-log": (
        ("mpc(real='-0.2450645358671388928718283539698319373201229609549045562"
         "744140625', imag='1.110720734539590108449092636933031030821439344435"
         "9302520751953125')"),
        ("mpf('0.0000000000004363498484457075984668480458199191295121674186662"
         "484584697807576958439312875271')"),
        102,
        ("{'margin': 2.0, 'truncation': 16.0, 'tail_bound': 8.032714595724631e"
         "-15, 'quadrature_error': 4.2831707590814154e-13, 'rounding': 5.79418"
         "4140932402e-20, 'segments': 6, 'panels': 6, 'degrees': {16: 6}, 'rig"
         "orous_tail': True, 'method': 'clenshaw-curtis'}"),
    ),
    "pade": (
        ("mpc(real='0.36132861688821652779970896446348760377986764069646596908"
         "5693359375', imag='0.0')"),
        ("mpf('0.0000000000119304877636665291198021339486812776061483688209031"
         "3008308868347739917226135731')"),
        94,
        ("{'margin': 2.0, 'truncation': 16.0, 'tail_bound': 1.4899018293051972"
         "e-15, 'quadrature_error': 1.1928997824925946e-11, 'rounding': 3.6911"
         "27697771336e-20, 'segments': 6, 'panels': 6, 'degrees': {12: 2, 16: "
         "4}, 'rigorous_tail': False, 'method': 'clenshaw-curtis'}"),
    ),
    "euler-jump": (
        ("mpc(real='0.0', imag='0.31282137645908070222589003606117330491542816"
         "162109375')"),
        (
            ("mpc(real='-0.494576401346797320051316970701549280420294962823390"
             "960693359375', imag='0.15641068822954035522613700989746909897348"
             "81441108882427215576171875')"),
            ("mpf('0.000000000003264274887084185705883827815117411926990983061"
             "407699400424675673093588557094336')"),
            157,
            ("{'margin': 2.966313233808127, 'truncation': 8.0, 'tail_bound': 2"
             ".3760876949784455e-12, 'quadrature_error': 8.881871508768535e-13"
             ", 'rounding': 4.122888666977124e-20, 'segments': 5, 'panels': 5,"
             " 'degrees': {16: 2, 24: 1, 48: 2}, 'rigorous_tail': True, 'metho"
             "d': 'clenshaw-curtis'}"),
        ),
        (
            ("mpc(real='-0.494576401346797320051316970701549280420294962823390"
             "960693359375', imag='-0.1564106882295403552261370098974690989734"
             "881441108882427215576171875')"),
            ("mpf('0.000000000003264274887084188492732190734646867495275072064"
             "170752278444709304494608659297228')"),
            157,
            ("{'margin': 2.966313233808127, 'truncation': 8.0, 'tail_bound': 2"
             ".3760876949784435e-12, 'quadrature_error': 8.881871508768584e-13"
             ", 'rounding': 4.122888666977124e-20, 'segments': 5, 'panels': 5,"
             " 'degrees': {16: 2, 24: 1, 48: 2}, 'rigorous_tail': True, 'metho"
             "d': 'clenshaw-curtis'}"),
        ),
    ),
    "hankel-pole": (
        ("mpc(real='1.0', imag='0.0')"),
        ("mpf('0.0000000000000000000008614638709729024250620397520413160270660"
         "844356117165502984727424085072818255113')"),
        98,
        ("{'margin': 2.25, 'truncation': 0.25, 'radius': 0.25, 'tail_bound': 0"
         ".0, 'quadrature_error': 1.1314185532994805e-23, 'rounding': 8.501496"
         "854399076e-22, 'segments': 0, 'panels': 2, 'degrees': {48: 2}, 'ray_"
         "nodes': 0, 'circle_nodes': 98, 'rigorous_tail': True, 'method': 'cle"
         "nshaw-curtis'}"),
    ),
    "hankel-power": (
        ("mpc(real='0.69336127434883293679628024630545723994146101176738739013"
         "671875', imag='0.000000000002817476753076027383976770593072063374705"
         "249483298530321917496621608734130859375')"),
        ("mpf('0.0000000000042652085686879147549488377095979733362771329461008"
         "91508489638681567157618701458')"),
        183,
        ("{'margin': 2.866009467376818, 'truncation': 8.0, 'radius': 0.25, 'ta"
         "il_bound': 2.073014010079108e-12, 'quadrature_error': 1.191805024328"
         "4705e-13, 'rounding': 4.6096851845532436e-20, 'segments': 5, 'panels"
         "': 7, 'degrees': {16: 5, 48: 2}, 'ray_nodes': 85, 'circle_nodes': 98"
         ", 'rigorous_tail': True, 'method': 'clenshaw-curtis'}"),
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
