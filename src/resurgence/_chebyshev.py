"""Spectral cumulative integration on [-1, 1] at Chebyshev-Lobatto nodes.

Given samples of an integrand at the nodes x_j = -cos(pi j / n), we
interpolate by the degree-n Chebyshev polynomial, integrate the interpolant
exactly in coefficient space, and evaluate the antiderivative back at the
same nodes.  For integrands analytic in a neighbourhood of [-1, 1] the
error decays geometrically in n, so iterated integrals can be built level
by level: the cumulative values of one level are exact polynomial data for
the next.

The three linear maps (type-I cosine transform, antiderivative, evaluation
at the nodes) compose to one (n+1) x (n+1) integration matrix.  It is
built once per (n, precision), in integer arithmetic from the 2n distinct
values cos(pi m / n), and stored as integers scaled by 2^(prec + GUARD).
A call applies it in block floating point: the real parts of the samples,
and separately their imaginary parts, become one vector of integer
mantissas sharing one exponent, taken from the largest component so that
it keeps GUARD bits beyond the working precision.  The products are exact,
so the only roundings are that shared scaling, the matrix entries and the
final conversion back to the caller's precision.

:func:`iterated_integral` is the one iterated-integral engine on top of
the kernel.  It integrates a stack of kernels dz / (a - z) cumulatively
over chained panels and serves both the simplex integrals of
:mod:`resurgence.mzv` and the contour integrals of
:mod:`resurgence.hyperlog`.

:func:`clenshaw_curtis` applies only the last row of that map, the
Clenshaw-Curtis weights, built once per (n, precision) in O(n^2) from
the same cosines and applied in the same block floating point.  The
Laplace rays, lateral jumps and Hankel contours of
:mod:`resurgence.laplace` integrate their panels with it: the Lobatto
nodes of degree n are every other node of degree 2n, so one set of
samples gives two nested rules.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

import mpmath
from mpmath.libmp import from_man_exp, fzero

GUARD = 32
# extra bits carried while composing the matrix, dropped by its final rounding
_BUILD_GUARD = 24


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


@lru_cache(maxsize=32)
def _cosines(n: int, bits: int):
    """cos(pi m / n) * 2^bits rounded to integers, for m = 0 .. 2n - 1."""
    with mpmath.workprec(bits + 16):
        half = [int(mpmath.nint(mpmath.ldexp(mpmath.cospi(mpmath.mpf(m) / n),
                                             bits)))
                for m in range(n + 1)]
    # cos(pi m / n) = cos(pi (2n - m) / n)
    return tuple(half + half[n - 1:0:-1])


@lru_cache(maxsize=32)
def _nodes(n: int, prec: int):
    cos = _cosines(n, prec + GUARD)
    return tuple(mpmath.mp.make_mpf(from_man_exp(-cos[j], -(prec + GUARD),
                                                 prec, "n"))
                 for j in range(n + 1))


def chebyshev_nodes(n: int):
    """The n + 1 Chebyshev-Lobatto nodes of [-1, 1], increasing."""
    return _nodes(n, mpmath.mp.prec)


@lru_cache(maxsize=16)
def _matrix(n: int, prec: int):
    """The cumulative-integration matrix, rows indexed by output node and
    columns by input node, as integers scaled by 2^(prec + GUARD)."""
    bits = prec + GUARD + _BUILD_GUARD
    one = 1 << bits
    cos = _cosines(n, bits)
    two_n = 2 * n
    # Chebyshev coefficients c_k = sum_j C[k][j] g_j of the samples
    # g_j = f(cos(pi j / n)) by the type-I cosine transform,
    # (2/n) sum'' g_j cos(pi j k / n), with c_0 and c_n halved.
    edge = (0, n)
    C = [[_round_div(cos[j * k % two_n]
                     * (1 if j in edge else 2) * (1 if k in edge else 2),
                     2 * n)
          for j in range(n + 1)]
         for k in range(n + 1)]
    zero = [0] * (n + 1)
    C += [zero, zero]
    # antiderivative sum b_k T_k: b_1 = c_0 - c_2/2 and, for k >= 2,
    # b_k = (c_{k-1} - c_{k+1}) / (2k), from int T_k = (T_{k+1}/(k+1)
    # - T_{k-1}/(k-1)) / 2
    B = [[a - _round_div(b, 2) for a, b in zip(C[0], C[2])]]
    for k in range(2, n + 2):
        B.append([_round_div(a - b, 2 * k) for a, b in zip(C[k - 1], C[k + 1])])
    columns = list(zip(*B))
    # F(x_i) = sum_k b_k (T_k(x_i) - T_k(-1)), and on Lobatto nodes
    # x_i = -cos(pi i / n) one has T_k(x_i) = (-1)^k cos(pi i k / n)
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


def _apply(rows, parts, prec: int):
    """The matrix applied to one real vector of mpf tuples in block
    floating point, rounded back to mpf tuples at ``prec`` bits."""
    top = None
    for sign, man, exp, bc in parts:
        if man:
            if top is None or exp + bc > top:
                top = exp + bc
        elif bc:
            raise ValueError("cannot integrate non-finite samples")
    if top is None:
        return [fzero] * len(rows)
    # mantissas at one shared exponent, the largest with prec + GUARD bits
    base = top - (prec + GUARD)
    mantissas = []
    for sign, man, exp, bc in parts:
        shift = exp - base
        m = man << shift if shift >= 0 else man >> -shift
        mantissas.append(-m if sign else m)
    exp = base - (prec + GUARD)
    return [from_man_exp(sum(map(mul, row, mantissas)), exp, prec, "n")
            for row in rows]


@lru_cache(maxsize=16)
def _weights(n: int, prec: int):
    """The Clenshaw-Curtis weights of the n + 1 nodes, as integers scaled
    by 2^(prec + GUARD): the last row of the integration matrix.

    The interpolant integrates to the sum over even k of
    c_k * 2 / (1 - k^2), so the weight of sample j is that combination of
    column j of the cosine transform.  The weights are symmetric, so the
    order in which the transform reads the samples does not matter.
    """
    bits = prec + GUARD + _BUILD_GUARD
    cos = _cosines(n, bits)
    two_n = 2 * n
    edge = (0, n)
    row = []
    for j in range(n + 1):
        # w_j = (e_j / n) * sum over even k of e_k cos(pi j k / n) / (1 - k^2),
        # with e = 1 at the edges 0 and n and 2 elsewhere
        total = cos[0]
        for k in range(2, n + 1, 2):
            total -= _round_div(cos[j * k % two_n] * (1 if k == n else 2),
                                k * k - 1)
        row.append(_round_div(total * (1 if j in edge else 2),
                              n << _BUILD_GUARD))
    return tuple(row)


def _applied(rows, values, prec: int):
    """The integer rows applied to real or complex samples, as mpf or mpc
    values at ``prec`` bits."""
    ctx = mpmath.mp
    values = [ctx.convert(v) for v in values]
    if any(type(v) is ctx.mpc for v in values):
        pairs = [v._mpc_ if type(v) is ctx.mpc else (v._mpf_, fzero)
                 for v in values]
        re, im = (_apply(rows, part, prec) for part in zip(*pairs))
        return [ctx.make_mpc(pair) for pair in zip(re, im)]
    return [ctx.make_mpf(v)
            for v in _apply(rows, [v._mpf_ for v in values], prec)]


def chebyshev_cumulative(values):
    """Cumulative integral of a sampled integrand, at the sample nodes.

    ``values`` are the integrand at ``chebyshev_nodes(n)`` with
    n = len(values) - 1.  Returns the list F(x_j) = integral from -1 to x_j
    of the interpolant, so F[0] = 0 and F[-1] is the full integral.  The
    result is complex when any sample is.
    """
    n = len(values) - 1
    if n < 1:
        raise ValueError("need at least two samples")
    prec = mpmath.mp.prec
    return _applied(_matrix(n, prec), values, prec)


def clenshaw_curtis(values):
    """Integral over [-1, 1] of the interpolant of a sampled integrand.

    ``values`` are the integrand at ``chebyshev_nodes(n)`` with
    n = len(values) - 1; the result equals ``chebyshev_cumulative(values)
    [-1]`` without building or applying the matrix.  It is complex when
    any sample is.
    """
    n = len(values) - 1
    if n < 1:
        raise ValueError("need at least two samples")
    prec = mpmath.mp.prec
    return _applied((_weights(n, prec),), values, prec)[0]


def segment(z0, z1):
    """The straight panel from z0 to z1 as (position, velocity) maps of
    the node variable u in [-1, 1]."""
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    return (lambda u: mid + half * u, lambda u: half)


def iterated_integral(poles, panels, n: int):
    """The iterated integral of dz_k / (a_k - z_k) over z_1 < ... < z_r
    along a path, with a_1 = poles[0] attached to the earliest variable.

    ``panels`` chains the path as (position, velocity) maps of u in
    [-1, 1], in order of travel; each panel is sampled at the n + 1
    Chebyshev-Lobatto nodes, and the velocity multiplies the kernel.  On
    each panel, level k is the cumulative integral of level k - 1 times
    the k-th kernel, offset by level k's value at the end of the previous
    panel, so only one panel's samples are held at a time.  An empty
    stack of poles gives the constant 1.
    """
    nodes = chebyshev_nodes(n)
    depth = len(poles)
    totals = [0] * depth
    for position, velocity in panels:
        zs = [position(u) for u in nodes]
        dzs = [velocity(u) for u in nodes]
        kernels = {}
        level = None
        for k, a in enumerate(poles):
            if a not in kernels:
                kernels[a] = [dz / (a - z) for z, dz in zip(zs, dzs)]
            integrand = (kernels[a] if level is None
                         else [g * w for g, w in zip(level, kernels[a])])
            cumulative = chebyshev_cumulative(integrand)
            if k + 1 < depth:
                level = [totals[k] + f for f in cumulative]
            totals[k] = totals[k] + cumulative[-1]
    return totals[-1] if depth else mpmath.mpf(1)
