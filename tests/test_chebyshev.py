"""The spectral kernel against the direct cosine-transform loops.

``reference_cumulative`` is the textbook construction the integration
matrix replaces: the type-I cosine transform of the samples, the
antiderivative of the Chebyshev series, and its evaluation back at the
nodes, each as an O(n^2) loop in mpmath arithmetic.  Run at three times
the working precision it is the reference the kernel must match to a few
units in the last place.

``reference_matrix`` composes the same three maps in integer arithmetic,
an O(n^3) product, and is the reference for the closed-form build of
``_matrix``; ``reference_closed_form`` is that closed form entry by entry,
each of its five products taken as written, the reference for the
integers ``_matrix`` gets with fewer.  ``reference_trig`` and
``reference_unit_points`` round
every node's cosine, sine and unit point one by one through mpmath, the
references for the tables built from the quarter wave and from libmp;
``reference_quarter_tables`` reads both tables from the whole quarter
wave, every k = 0 .. n, the reference for the halves of ``_quarter``.
``reference_row_sum`` is the largest row sum of the folded matrix with
every reflected row rebuilt from the folded ones, the reference for the
one pass of ``_row_sum``.  ``chebyshev_nodes`` gives the nodes the
kernel samples at, as mpmath values.
``reference_iterated`` is the level-by-level iterated integral in plain
mpmath: kernels dz / (a - z) from each panel's position and velocity,
products, cumulative integrals and running totals, all at the caller's
precision.  ``reference_series`` sums the endpoint Taylor
series of ``endpoint_series`` in plain mpmath, with as many terms as the
caller asks.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

import mpmath
import pytest
from mpmath.libmp import from_int, mpf_cos_pi, mpf_div, mpf_shift, to_int

from resurgence import _chebyshev, _work
from resurgence._chebyshev import (_FLOAT_MARGIN, _KERNEL_GUARD, GUARD,
                                   _BUILD_GUARD, _complex_tuple, _cosines,
                                   _exponentials, _fixed, _folded, _matrix,
                                   _node_cosines, _node_exponentials, _nodes,
                                   _round_div, _row_sum, _sines, _total,
                                   _unit_points, _values, _weights,
                                   chebyshev_cumulative, endpoint_series,
                                   iterated_levels, panel_bound, segment)
from resurgence.hyperlog import _contour_segments


def chebyshev_nodes(n):
    """The n + 1 Chebyshev-Lobatto nodes of [-1, 1], increasing, at the
    working precision: the nodes ``chebyshev_cumulative`` samples at."""
    return _nodes(n, mpmath.mp.prec)


def reference_cumulative(values):
    n = len(values) - 1
    pi = +mpmath.pi
    cos = [[mpmath.cos(pi * j * k / n) for k in range(n + 2)]
           for j in range(n + 1)]
    g = list(reversed(values))
    c = []
    for k in range(n + 1):
        s = g[0] / 2 + g[n] * (-1) ** k / 2
        for j in range(1, n):
            s += g[j] * cos[j][k]
        c.append(s * 2 / n)
    c[0] /= 2
    c[n] /= 2
    c += [0, 0]
    b = [None, c[0] - c[2] / 2]
    for k in range(2, n + 2):
        b.append((c[k - 1] - c[k + 1]) / (2 * k))
    return [sum(b[k] * (-1) ** k * (cos[j][k] - 1) for k in range(1, n + 2))
            for j in range(n + 1)]


def reference_matrix(n, prec):
    """The integration matrix as integers scaled by 2^(prec + GUARD),
    composed from the cosine transform C, the antiderivative B and the
    evaluation at the nodes, with _BUILD_GUARD extra bits throughout."""
    bits = prec + GUARD + _BUILD_GUARD
    one = 1 << bits
    cos = _cosines(n, bits)
    two_n = 2 * n
    # c_k = sum_j C[k][j] g_j with g_j = f(cos(pi j / n)): (2/n) sum'' of
    # g_j cos(pi j k / n), with c_0 and c_n halved
    edge = (0, n)
    C = [[_round_div(cos[j * k % two_n]
                     * (1 if j in edge else 2) * (1 if k in edge else 2),
                     2 * n)
          for j in range(n + 1)]
         for k in range(n + 1)]
    zero = [0] * (n + 1)
    C += [zero, zero]
    # b_1 = c_0 - c_2/2 and b_k = (c_{k-1} - c_{k+1}) / (2k) for k >= 2
    B = [[a - _round_div(b, 2) for a, b in zip(C[0], C[2])]]
    for k in range(2, n + 2):
        B.append([_round_div(a - b, 2 * k) for a, b in zip(C[k - 1], C[k + 1])])
    columns = list(zip(*B))
    # F(x_i) = sum_k b_k (T_k(x_i) - T_k(-1)), T_k(x_i) = (-1)^k cos(pi i k/n)
    shift = 2 * bits - (prec + GUARD)
    half = 1 << (shift - 1)
    rows = []
    for i in range(n + 1):
        weights = [(cos[i * k % two_n] - one) * (-1 if k % 2 else 1)
                   for k in range(1, n + 2)]
        row = [(sum(map(mul, weights, col)) + half) >> shift
               for col in columns]
        # the transform reads the samples in decreasing x order
        row.reverse()
        rows.append(tuple(row))
    return tuple(rows)


def reference_closed_form(n, prec):
    """Every row of the integration matrix from the closed form of the
    ``_chebyshev`` module docstring, entry by entry: the S sums indexed
    one k at a time, and each entry's correction terms multiplied out for
    k = n - 1, n and n + 1 and divided by its scale."""
    bits = prec + GUARD + _BUILD_GUARD
    one = 1 << bits
    two_n = 2 * n
    cos = _cosines(n, bits)
    sin = _sines(n, bits)
    lcm = math.lcm(*range(1, n + 2))
    inverse = [lcm // k for k in range(1, n + 2)]
    S = [_round_div(sum(map(mul, [sin[m * k % two_n] for k in range(1, n + 2)],
                            inverse)), lcm)
         for m in range(n + 1)]
    S += [-v for v in S[n - 1:0:-1]]
    wrap = S[n:] + S + S[:n + 1]
    den = two_n << (2 * bits - (prec + GUARD))
    columns = []
    for j in range(n + 1):
        alpha = 1 if j in (0, n) else 2
        a = alpha * sin[j]
        cn = cos[n * j % two_n]
        columns.append((
            2 * a, den - 4 * a * wrap[j + 2 * n],
            2 * _round_div(alpha * cn, 2 * (n - 1)) if n > 1 else 0,
            2 * _round_div(alpha * cos[(n + 1) * j % two_n], n),
            2 * _round_div(alpha * (2 * cos[(n + 2) * j % two_n] - cn),
                           2 * (n + 1))))
    scale = 2 * den
    out = []
    for i in range(n + 1):
        e0, e1, e2 = ((-1) ** k * (cos[i * k % two_n] - one)
                      for k in (n - 1, n, n + 1))
        entries = [(a2 * (p + q) + c2 + v0 * e0 + v1 * e1 + v2 * e2) // scale
                   for (a2, c2, v0, v1, v2), p, q in zip(
                       columns, wrap[2 * n - i:3 * n - i + 1],
                       wrap[i:i + n + 1])]
        entries.reverse()
        out.append(tuple(entries))
    return tuple(out)


def reference_trig(n, bits):
    """cos(pi m / n) and sin(pi m / n) times 2^bits for m = 0 .. 2n - 1,
    each of m = 0 .. n rounded by mpmath at bits + 16 bits and then to the
    nearest integer, the rest by the symmetries about m = n."""
    with mpmath.workprec(bits + 16):
        cos = [int(mpmath.nint(mpmath.ldexp(mpmath.cospi(mpmath.mpf(m) / n),
                                            bits)))
               for m in range(n + 1)]
        sin = [int(mpmath.nint(mpmath.ldexp(mpmath.sinpi(mpmath.mpf(m) / n),
                                            bits)))
               for m in range(n + 1)]
    return (tuple(cos + cos[n - 1:0:-1]),
            sin + [-v for v in sin[n - 1:0:-1]])


def reference_quarter_tables(n, bits):
    """The cosine and sine tables of degree n read from the whole quarter
    wave cos(pi k / (2n)) * 2^bits, k = 0 .. n, each entry libmp's cos(pi x)
    at bits + 16 bits, rounded to the nearest integer."""
    wp = bits + 16
    q = [to_int(mpf_shift(mpf_cos_pi(mpf_div(from_int(k), from_int(2 * n),
                                             wp, "n"), wp, "n"), bits), "n")
         for k in range(n + 1)]
    cos = [q[2 * m] if 2 * m <= n else -q[2 * (n - m)] for m in range(n + 1)]
    sin = [q[abs(n - 2 * m)] for m in range(n + 1)]
    return (tuple(cos + cos[n - 1:0:-1]),
            sin + [-v for v in sin[n - 1:0:-1]])


def reference_unit_points(mid, half, n, bits):
    """exp(i (mid + half u_j)) at the nodes u_j of ``_cosines`` by
    mpmath.expj at bits + 16 bits, and half, times 2^bits and truncated
    toward zero."""
    with mpmath.workprec(bits + 16):
        us = [mpmath.mpf((-c, -bits)) for c in _cosines(n, bits)[:n + 1]]
        points = [mpmath.expj(mid + half * u) for u in us]
        return (tuple(int(mpmath.ldexp(p.real, bits)) for p in points),
                tuple(int(mpmath.ldexp(p.imag, bits)) for p in points),
                int(mpmath.ldexp(half, bits)))


@lru_cache(maxsize=None)
def reference_map(n, prec):
    """The nodes and the rows of the cumulative map in mpmath: column j is
    ``reference_cumulative`` of the j-th unit vector."""
    with mpmath.workprec(prec):
        pi = +mpmath.pi
        nodes = [-mpmath.cos(pi * j / n) for j in range(n + 1)]
        unit = [[mpmath.mpf(int(i == j)) for i in range(n + 1)]
                for j in range(n + 1)]
        return nodes, list(zip(*(reference_cumulative(e) for e in unit)))


def reference_iterated(poles, panels, n):
    """The iterated integral of dz_k / (a_k - z_k), level by level in mpmath
    at the current precision."""
    nodes, matrix = reference_map(n, mpmath.mp.prec)
    totals = [0] * len(poles)
    for panel in panels:
        zs = [panel.position(u) for u in nodes]
        dzs = [panel.velocity(u) for u in nodes]
        level = None
        for k, a in enumerate(poles):
            kernel = [dz / (a - z) for z, dz in zip(zs, dzs)]
            g = (kernel if level is None
                 else [x * y for x, y in zip(level, kernel)])
            cumulative = [mpmath.fsum(map(mul, row, g)) for row in matrix]
            level = [totals[k] + f for f in cumulative]
            totals[k] = totals[k] + cumulative[-1]
    return totals[-1]


def ulps(got, want, prec, scale=None):
    """Largest deviation in units of the last place of ``scale``, by
    default the largest output."""
    if scale is None:
        scale = max(abs(w) for w in want)
    return max(abs(g - w) for g, w in zip(got, want)) / mpmath.ldexp(scale,
                                                                     -prec)


def against_reference(values, prec):
    """(kernel at prec, reference at 3 * prec) for the same samples."""
    with mpmath.workprec(prec):
        got = chebyshev_cumulative(values)
    with mpmath.workprec(3 * prec):
        want = reference_cumulative(values)
    return got, want


@pytest.mark.parametrize("n", [1, 4, 16, 24])
def test_exact_on_polynomials(n):
    """Samples of a degree-n polynomial, correctly rounded, integrate to
    its antiderivative up to the rounding of the samples: a few units in
    the last place of the largest sample."""
    rng = random.Random(n)
    prec = 77
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n + 1)]
    antider = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)]
    with mpmath.workprec(prec):
        xs = chebyshev_nodes(n)
    with mpmath.workprec(3 * prec):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
        antider = [mpmath.mpf(c.numerator) / c.denominator for c in antider]
        exact = [mpmath.polyval(coeffs[::-1], x) for x in xs]
        want = [mpmath.polyval(antider[::-1], x)
                - mpmath.polyval(antider[::-1], -1) for x in xs]
    with mpmath.workprec(prec):
        got = chebyshev_cumulative([+v for v in exact])
    assert got[0] == 0
    assert ulps(got, want, prec, max(abs(v) for v in exact)) <= 4


@pytest.mark.parametrize("n,prec", [(16, 77), (24, 77), (24, 84), (53, 77),
                                    (80, 104)])
def test_real_samples_match_reference(n, prec):
    with mpmath.workprec(prec):
        xs = chebyshev_nodes(n)
        values = [mpmath.exp(x) / (3 - x) for x in xs]
    got, want = against_reference(values, prec)
    assert all(isinstance(v, mpmath.mpf) for v in got)
    assert ulps(got, want, prec) <= 2


@pytest.mark.parametrize("n,prec", [(16, 77), (24, 77), (53, 77), (80, 104)])
def test_complex_samples_match_reference(n, prec):
    with mpmath.workprec(prec):
        xs = chebyshev_nodes(n)
        pole = mpmath.mpc(0.5, 0.75)
        values = [mpmath.log(1 - x / 2) / (pole - x) for x in xs]
        values[3] = mpmath.mpf(values[3].real)
    got, want = against_reference(values, prec)
    assert all(isinstance(v, mpmath.mpc) for v in got)
    assert ulps(got, want, prec) <= 2


def test_shared_exponent_spans_magnitudes():
    n, prec = 24, 77
    with mpmath.workprec(prec):
        xs = chebyshev_nodes(n)
        base = [1 + x / 3 for x in xs]
        for k in (-52, 52):
            scaled = chebyshev_cumulative([mpmath.ldexp(v, k) for v in base])
            plain = chebyshev_cumulative(base)
            assert scaled == [mpmath.ldexp(v, k) for v in plain]
        mixed = [mpmath.ldexp(v, (-52, 0, 52)[j % 3])
                 for j, v in enumerate(base)]
    got, want = against_reference(mixed, prec)
    assert ulps(got, want, prec) <= 2


def weights_total(values):
    """The folded weights row applied to the samples' block-fixed-point
    vector and converted once, as the Laplace panels apply it."""
    prec = mpmath.mp.prec
    bits = prec + GUARD
    parts, exp = _fixed(values, bits)
    last = _weights(len(values) - 1, prec)
    return _values([[_total(last, p)] for p in parts], exp - bits - 1,
                   prec)[0]


@pytest.mark.parametrize("n,prec", [(1, 77), (2, 77), (24, 77), (48, 77),
                                    (48, 119)])
def test_weights_row_is_the_full_integral(n, prec):
    """The last cumulative value is the reference's, and the weights row
    alone gives it bit for bit."""
    with mpmath.workprec(prec):
        xs = chebyshev_nodes(n)
        pole = mpmath.mpc(0.5, 0.75)
        values = [mpmath.exp(x) / (pole - x) for x in xs]
        reals = [v.real for v in values]
        got = [chebyshev_cumulative(values)[-1],
               chebyshev_cumulative(reals)[-1]]
        assert isinstance(got[0], mpmath.mpc)
        assert isinstance(got[1], mpmath.mpf)
        assert chebyshev_cumulative([mpmath.mpf(1)] * (n + 1))[-1] == 2
        # the same block-fixed-point path as the weights row, also when the
        # imaginary parts lie far below the real ones
        near_real = [mpmath.mpc(v.real, mpmath.ldexp(v.imag, -60))
                     for v in values]
        for samples in (values, reals, near_real):
            assert chebyshev_cumulative(samples)[-1] \
                == weights_total(samples)
    with mpmath.workprec(3 * prec):
        want = [reference_cumulative(values)[-1],
                reference_cumulative(reals)[-1]]
    assert ulps(got[:1], want[:1], prec) <= 2
    assert ulps(got[1:], want[1:], prec) <= 2


@pytest.mark.parametrize("prec", [53, 77, 104, 119])
def test_weights_are_the_folded_last_row(prec):
    """_weights builds the last matrix row directly, as the doubled
    symmetric half that _cumulate applies."""
    for n in range(1, 81):
        last = _matrix(n, prec, range(n + 1))[n]
        assert _weights(n, prec) == tuple(last[j] + last[n - j]
                                          for j in range(n // 2 + 1))


@pytest.mark.parametrize("prec", [53, 77, 104])
def test_trig_tables_match_per_node_rounding(prec):
    """The cosine and sine tables read from one quarter-wave table are
    each node's own mpmath rounding, at the scales of the kernel, the
    matrix build and the Laplace ray kernels."""
    for n in list(range(1, 65)) + [80, 96, 128]:
        for bits in (prec + GUARD, prec + GUARD + _BUILD_GUARD,
                     prec + GUARD + _KERNEL_GUARD):
            cos, sin = reference_trig(n, bits)
            assert _cosines(n, bits) == cos, (n, bits)
            assert _sines(n, bits) == sin, (n, bits)


@pytest.mark.parametrize("prec", [53, 104])
def test_trig_tables_match_whole_quarter_wave(prec):
    """Evaluating only the half of the quarter wave that each table reads
    leaves every entry as the whole quarter wave gives it."""
    for n in range(1, 130):
        for bits in (prec + GUARD, prec + GUARD + _BUILD_GUARD):
            cos, sin = reference_quarter_tables(n, bits)
            assert _cosines(n, bits) == cos, (n, bits)
            assert _sines(n, bits) == sin, (n, bits)


def test_trig_tables_without_rotation_guard(monkeypatch):
    """With no guard bits the rotation can tell no entry, so every entry
    of the quarter wave is libmp's, one call each besides the seed, and
    the tables are the same integers."""
    monkeypatch.setattr(_chebyshev, "_ROTATION_GUARD", 0)
    _chebyshev._quarter.cache_clear()
    _cosines.cache_clear()
    try:
        for n in (1, 2, 7, 24, 53):
            bits = 53 + GUARD
            cos, sin = reference_trig(n, bits)
            with _work.counting() as counts:
                assert _cosines(n, bits) == cos, n
                assert _sines(n, bits) == sin, n
            # the even half, and the odd half of an odd n, each with a seed
            halves = [n // 2 + 1] + ([(n + 1) // 2] if n % 2 else [])
            assert counts == {("cos_pi", n, bits): sum(halves) + len(halves)}
    finally:
        _chebyshev._quarter.cache_clear()
        _cosines.cache_clear()


@pytest.mark.parametrize("n", range(1, 101))
def test_matrix_rows_match_closed_form(n):
    """The build's shortcuts (e_(n-1) = e_(n+1), shifts for e_n, the
    scale's power of two shifted off first, strided S sums) give the
    integers of the closed form taken entry by entry."""
    for prec in (53, 77, 104):
        assert _matrix(n, prec, range(n + 1)) \
            == reference_closed_form(n, prec), prec


@pytest.mark.parametrize("mid,half,n,prec", [
    (mpmath.pi * 3 / 2, mpmath.pi / 2, 24, 77),
    (mpmath.pi / 2, -mpmath.pi / 2, 53, 77),
    (mpmath.mpf(-5) / 3, mpmath.mpf(7) / 9, 80, 104),
    (0, 1, 16, 53),
    (0.5, 0.25, 26, 113)])
def test_unit_points_match_expj(mid, half, n, prec):
    """The libmp unit points are mpmath.expj's, entry for entry."""
    with mpmath.workprec(prec):
        mid, half = +mpmath.mpmathify(mid), +mpmath.mpmathify(half)
    bits = prec + GUARD
    assert _unit_points(mid, half, n, bits) \
        == reference_unit_points(mid, half, n, bits)


@pytest.mark.parametrize("prec", [53, 77, 104])
def test_folded_rows_are_the_fold_of_all_rows(prec):
    """_folded builds only rows 1 .. n // 2; folded, they are those rows of
    the whole matrix."""
    for n in list(range(1, 41)) + [53, 80]:
        rows = _matrix(n, prec, range(n + 1))
        half = (n + 1) // 2
        middle = [] if n % 2 else [n // 2]
        want = tuple((tuple([row[j] + row[n - j] for j in range(half)]
                            + [2 * row[j] for j in middle]),
                      tuple(row[j] - row[n - j] for j in range(half)))
                     for row in rows[1:n // 2 + 1])
        assert _folded(n, prec)[1] == want, n


@pytest.mark.parametrize("n", [3, 24])
def test_nodes_nest(n):
    """Every other node of degree 2n is a node of degree n, so one set of
    samples carries two nested Clenshaw-Curtis rules."""
    with mpmath.workprec(77):
        assert chebyshev_nodes(2 * n)[::2] == chebyshev_nodes(n)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 24])
def test_degrees_dividing_nest_read_its_tables(n):
    """A Laplace degree dividing NEST = 48 reads its node cosines, unit
    points and ray kernel off degree 48's: the same integers as tables of
    its own."""
    bits = 109
    assert _node_cosines(n, bits) == _cosines(n, bits)[:n + 1]
    with mpmath.workprec(77):
        mid, half = mpmath.mpf("-2.8"), mpmath.mpf("3.1")
        u = _complex_tuple(mpmath.mpc("-0.6", "0.7"))
    wr, wi, h = _unit_points(mid, half, 48, bits)
    assert (wr[::48 // n], wi[::48 // n], h) \
        == _unit_points.__wrapped__(mid, half, n, bits)
    assert _exponentials(u, n, bits) \
        == _node_exponentials(u, n, bits + _KERNEL_GUARD)


def test_all_zero_samples():
    with mpmath.workprec(77):
        assert chebyshev_cumulative([mpmath.mpf(0)] * 9) == [0] * 9
        out = chebyshev_cumulative([mpmath.mpc(0)] * 9)
        assert all(isinstance(v, mpmath.mpc) and v == 0 for v in out)


def test_invalid_samples_rejected():
    with pytest.raises(ValueError):
        chebyshev_cumulative([mpmath.mpf(1)])
    with pytest.raises(ValueError):
        chebyshev_cumulative([])
    with pytest.raises(ValueError):
        chebyshev_cumulative([mpmath.mpf(1), mpmath.nan, mpmath.mpf(1)])
    with pytest.raises(ValueError):
        chebyshev_cumulative([mpmath.mpf(1), mpmath.inf, mpmath.mpf(1)])


@pytest.mark.parametrize("n", [16, 24, 53])
def test_matrix_consistent_across_precisions(n):
    fine, coarse = (_matrix(n, p, range(n + 1)) for p in (104, 77))
    drop = 104 - 77
    half = 1 << (drop - 1)
    assert max(abs(((f + half) >> drop) - c)
               for frow, crow in zip(fine, coarse)
               for f, c in zip(frow, crow)) <= 1
    # a matrix entry carries GUARD bits beyond the working precision
    assert max(abs(c) for row in coarse for c in row) < 2 << (77 + GUARD)


def test_iterated_integral_of_one_kernel():
    """int_0^1 dz / (2 - z) = log 2 over two chained panels."""
    with mpmath.workprec(77):
        panels = [segment(mpmath.mpf(0), mpmath.mpf(1) / 2),
                  segment(mpmath.mpf(1) / 2, mpmath.mpf(1))]
        got, = iterated_levels([2], panels, 24)
        assert abs(got - mpmath.log(2)) < mpmath.mpf(2) ** -70


@pytest.mark.parametrize("n", list(range(1, 25)) + [53, 80])
@pytest.mark.parametrize("prec", [77, 104])
def test_closed_form_matrix_matches_composition(n, prec):
    """The O(n^2) closed-form build gives the O(n^3) composition's entries
    to within one unit."""
    got, want = _matrix(n, prec, range(n + 1)), reference_matrix(n, prec)
    assert len(got) == len(want) == n + 1
    assert max(abs(g - w) for grow, wrow in zip(got, want)
               for g, w in zip(grow, wrow)) <= 1


def simplex_panels(edge):
    """Straight panels of [h, 1 - h], h = 2^-edge, graded geometrically
    toward both endpoints."""
    left = [mpmath.ldexp(1, -edge + k) for k in range(edge)]
    points = left + [1 - x for x in reversed(left[:-1])]
    return [segment(a, b) for a, b in zip(points[:-1], points[1:])]


REAL_WORDS = [(1,), (0, 1), (-1, 0, 1), (1, 0, 0, -1)]
PHASE = mpmath.expjpi(mpmath.mpf(2) / 3)


@pytest.mark.parametrize("letters", REAL_WORDS + [("w",), (0, "w"),
                                                  ("w", -1, 0),
                                                  (1, "w", 0, "w")])
@pytest.mark.parametrize("n", [16, 24])
def test_simplex_iterated_matches_reference(letters, n):
    """Block-fixed-point levels on simplex panels against the plain
    mpmath loop at three times the precision, real and complex letters,
    depth 1 to 4: the result is the reference to within one unit in the
    last place."""
    prec = 77
    with mpmath.workprec(prec):
        poles = [+PHASE if a == "w" else mpmath.mpf(a) for a in letters]
        panels = simplex_panels(8)
        got = iterated_levels(poles, panels, n)[-1]
    assert isinstance(got, mpmath.mpc) == ("w" in letters)
    with mpmath.workprec(3 * prec):
        want = reference_iterated(poles, panels, n)
    assert ulps([got], [want], prec) <= 1


@pytest.mark.parametrize("poles,endpoint", [([1], 3), ([2, 1], 3),
                                            ([-1, -2, -1], -3),
                                            ([1, 2, 1, 3], 4)])
def test_contour_iterated_matches_reference(poles, endpoint):
    """The same on the contour of hyperlog: straight runs and the arcs
    around the integers, depth 1 to 4."""
    prec, n = 77, 24
    with mpmath.workprec(prec):
        panels = _contour_segments(endpoint)
        got = iterated_levels(poles, panels, n)[-1]
    assert isinstance(got, mpmath.mpc)
    with mpmath.workprec(3 * prec):
        want = reference_iterated(poles, panels, n)
    assert ulps([got], [want], prec) <= 1


# -- the panel bound ---------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 12, 24, 33, 48])
@pytest.mark.parametrize("prec", [77, 104])
def test_row_sum_bounds_every_row(n, prec):
    """The row sum the panel bound carries errors with is at least the
    sum of |entries| of every row the folded apply uses: the rows built
    directly, those reflected through the weights row, and the weights
    row itself, whose sum is 2."""
    last, _pairs = _folded(n, prec)
    weights = list(last[:n // 2 + 1]) + list(last[:(n + 1) // 2][::-1])
    weights = [w // 2 for w in weights]
    rows = _matrix(n, prec, range(1, n // 2 + 1))
    sums = [sum(map(abs, row)) for row in rows]
    sums += [sum(abs(w - m) for w, m in zip(weights, reversed(row)))
             for row in rows]
    sums.append(sum(weights))
    scale = mpmath.ldexp(1, prec + GUARD)
    assert max(sums) / scale <= _row_sum(n, prec)
    assert abs(sum(weights) / scale - 2) < mpmath.ldexp(n, -prec)


def reference_row_sum(n, prec):
    """The row sum of ``_row_sum`` with each reflected row rebuilt from the
    folded ones: twice the sum of max(|e_j|, |o_j|) per folded pair, plus
    the middle entry of an even n, for every row and its reflection."""
    last, pairs = _folded(n, prec)
    half = (n + 1) // 2

    def twice(x, y):
        return 2 * sum(map(max, map(abs, x), y)) \
            + (0 if n % 2 else abs(x[half]))

    top = twice(last, [0] * half)
    for even, odd in pairs:
        y = list(map(abs, odd))
        top = max(top, twice(even, y), twice(list(map(sub, last, even)), y))
    drop = max(0, top.bit_length() - 60)
    return math.ldexp((top >> drop) + 1, drop - (prec + GUARD + 1)) \
        * _FLOAT_MARGIN


@pytest.mark.parametrize("prec", [53, 77, 104])
def test_row_sum_matches_reference(prec):
    for n in range(1, 101):
        assert _row_sum(n, prec) == reference_row_sum(n, prec), n


# every word's iterated integral at the bound's degree, against the same
# integral at a far higher precision and degree, with the panel term much
# larger than the rounding, so that a bound which undercounts shows
BOUND_CASES = [([1], 2), ([1], 3), ([2], 3), ([1, 2], 3), ([2, 4], 6),
               ([-1, 2], 1), ([3, 1], 4), ([-2, -3], -1)]


@pytest.mark.parametrize("poles,endpoint", BOUND_CASES)
@pytest.mark.parametrize("target", [20, 40])
def test_panel_bound_covers_the_contour_error(poles, endpoint, target):
    weights = [0.0] * (len(poles) - 1) + [1.0]
    with mpmath.workprec(120):
        panels = _contour_segments(endpoint)
        n, panel, rounding = panel_bound(poles, panels, weights, target)
        got = iterated_levels(poles, panels, n)[-1]
    assert n in (4, 6, 8, 12, 16, 24, 32, 48, 64)
    assert panel <= mpmath.ldexp(1, -target - 2)
    with mpmath.workprec(240):
        fine = _contour_segments(endpoint)
        m, fine_panel, fine_rounding = panel_bound(poles, fine, weights, 230)
        want = iterated_levels(poles, fine, m)[-1]
        assert abs(got - want) <= panel + rounding + fine_panel \
            + fine_rounding


@pytest.mark.parametrize("letters", [(1, 0), (-1, 1, 0), ("w", 0),
                                     (1, "w", -1)])
def test_panel_bound_covers_the_simplex_error(letters):
    """The same on graded simplex panels, with every level weighed."""
    weights = [1.0] * len(letters)
    with mpmath.workprec(120):
        poles = [+PHASE if a == "w" else mpmath.mpf(a) for a in letters]
        panels = simplex_panels(4)
        n, panel, rounding = panel_bound(poles, panels, weights, 30)
        got = iterated_levels(poles, panels, n)
    with mpmath.workprec(240):
        poles = [+PHASE if a == "w" else mpmath.mpf(a) for a in letters]
        fine = simplex_panels(4)
        m, fine_panel, fine_rounding = panel_bound(poles, fine, weights, 230)
        want = iterated_levels(poles, fine, m)
        assert sum(abs(g - w) for g, w in zip(got, want)) \
            <= panel + rounding + fine_panel + fine_rounding


def test_panel_bound_refuses_a_letter_on_the_path():
    with mpmath.workprec(77):
        with pytest.raises(ValueError, match="on the path"):
            panel_bound([mpmath.mpf(1) / 2], simplex_panels(4), [1.0], 53)


# -- endpoint series ---------------------------------------------------------


def series_value(vector):
    """A one-entry vector of ``endpoint_series`` as an mpmath number."""
    parts, exp = vector
    values = [mpmath.ldexp(p[0], exp) for p in parts]
    return values[0] if len(values) == 1 else mpmath.mpc(*values)


def reference_series(poles, h, terms):
    """F_0 .. F_r at h from ``terms`` Taylor coefficients at 0, in mpmath:
    (a - z) F_k' = F_{k-1}, and z F_k' = -F_{k-1} for a = 0."""
    c = [mpmath.mpf(1)] + [0] * (terms - 1)
    out = [mpmath.mpf(1)]
    for a in poles:
        d = [0] * terms
        for n in range(1, terms):
            d[n] = -c[n] / n if a == 0 else (c[n - 1] + (n - 1) * d[n - 1]) / (
                a * n)
        c = d
        out.append(mpmath.fsum(x * h**n for n, x in enumerate(c)))
    return out


def check_series(poles, h_exp, prec, exact):
    """Every prefix within the helper's bound of ``exact(k, h)``, computed
    at three times the precision."""
    with mpmath.workprec(prec):
        poles = [mpmath.mpmathify(a) for a in poles]
        values, bound, _ = endpoint_series(poles, h_exp)
    assert len(values) == len(poles) + 1
    with mpmath.workprec(3 * prec):
        h = mpmath.ldexp(1, -h_exp)
        for k, v in enumerate(values):
            assert abs(series_value(v) - exact(k, h)) <= bound, k
    return bound


@pytest.mark.parametrize("prec", [53, 113])
@pytest.mark.parametrize("a,h_exp", [(1, 3), (-1, 3), (1, 7), (PHASE, 3),
                                     (1 - mpmath.expjpi(mpmath.mpf(1) / 6), 4)])
def test_endpoint_series_one_letter(a, h_exp, prec):
    """F_1(h) = log(a / (a - h)), real and complex letters, and a letter
    1 - exp(i pi / 6) of modulus 0.52 as at the right end of a word."""
    with mpmath.workprec(3 * prec):
        a = mpmath.mpmathify(a)
    bound = check_series([a], h_exp, prec,
                         lambda k, h: mpmath.log(a / (a - h)) if k else 1)
    assert bound < mpmath.ldexp(1, -prec - GUARD + 8)


@pytest.mark.parametrize("prec", [53, 113])
@pytest.mark.parametrize("a", [1, PHASE])
def test_endpoint_series_polylogs(a, prec):
    """The word (a, 0, ..., 0) gives F_k(h) = (-1)^(k-1) Li_k(h / a), the
    signed polylogarithms, to depth 8."""
    with mpmath.workprec(3 * prec):
        a = mpmath.mpmathify(a)
    check_series([a] + [0] * 7, 3, prec,
                 lambda k, h: (-1) ** (k - 1) * mpmath.polylog(k, h / a)
                 if k else 1)


@pytest.mark.parametrize("prec", [53, 113])
@pytest.mark.parametrize("letters,h_exp", [
    ((1, 0, 1, 0, 0, -1, 1, 0, 0, 0, -1, 0), 3),
    (("w", 0, -1, "w", 0, 0, 1, "v", 0, 0, 0, 1), 3),
    ((2, 0, 2, 1 - PHASE, 0, 1), 4)])
def test_endpoint_series_bound_covers_truncation(letters, h_exp, prec):
    """The bound covers the distance to the same series summed with four
    times the terms at three times the precision, for words of length 12
    with zeros, real and complex letters."""
    poles = [PHASE if a == "w" else mpmath.conj(PHASE) if a == "v" else a
             for a in letters]
    with mpmath.workprec(prec):
        terms = endpoint_series([mpmath.mpmathify(a) for a in poles],
                                h_exp)[2]
    with mpmath.workprec(3 * prec):
        want = reference_series([mpmath.mpmathify(a) for a in poles],
                                mpmath.ldexp(1, -h_exp), 4 * terms)
    check_series(poles, h_exp, prec, lambda k, h: want[k])


def test_endpoint_series_refuses_outside_its_proof():
    with pytest.raises(ValueError, match="first letter"):
        endpoint_series([mpmath.mpf(0), mpmath.mpf(1)], 3)
    with pytest.raises(ValueError, match="quarter"):
        endpoint_series([mpmath.mpf(1) / 4], 3)


@pytest.mark.parametrize("letters", [(1, 0), (1, 1, 0, 0), (-1, 0, -1),
                                     (1, 0, 0, -1), ("w", 0, 1, "v")])
def test_series_seeded_run_matches_geometric_panels(letters):
    """Chen's identity: the run over [1/8, 7/8] on four panels, seeded with
    the series at 0 and joined to the series at 1, gives the 102 panels
    graded to width 2^-52 at both ends within the error they report: twice
    their distance to a 16-node run, plus 8 h (1 + log(1 / h))^l for the
    slivers of width h = 2^-52, plus one unit."""
    prec = 53
    with mpmath.workprec(prec + 24):
        poles = [+PHASE if a == "w" else mpmath.conj(PHASE) if a == "v"
                 else mpmath.mpf(a) for a in letters]
        length = len(poles)
        start, _, _ = endpoint_series(poles, 3)
        ends, _, _ = endpoint_series([1 - a for a in poles[::-1]], 3)
        points = [mpmath.mpf(k) / 8 for k in (1, 2, 4, 6, 7)]
        panels = [segment(a, b) for a, b in zip(points[:-1], points[1:])]
        levels = [1] + iterated_levels(poles, panels, 24, start[1:])
        got = mpmath.fsum((-1) ** (length - j) * f
                          * series_value(ends[length - j])
                          for j, f in enumerate(levels))
        old = simplex_panels(52)
        fine = iterated_levels(poles, old, 24)[-1]
        coarse = iterated_levels(poles, old, 16)[-1]
        h = mpmath.ldexp(1, -52)
        error = (2 * abs(fine - coarse) + 8 * h * (1 + mpmath.log(1 / h))
                 ** length + mpmath.ldexp(1 + abs(fine), -prec))
        assert abs(got - fine) <= error
