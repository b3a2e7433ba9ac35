"""Spectral cumulative integration on [-1, 1] at Chebyshev-Lobatto nodes.

Given samples of an integrand at the nodes x_j = -cos(pi j / n), we
interpolate by the degree-n Chebyshev polynomial, integrate the interpolant
exactly in coefficient space, and evaluate the antiderivative back at the
same nodes.  For integrands analytic in a neighbourhood of [-1, 1] the
error decays geometrically in n, so iterated integrals can be built level
by level: the cumulative values of one level are exact polynomial data for
the next.

The integration matrix.  The three linear maps (type-I cosine transform,
antiderivative, evaluation at the nodes) compose to one (n+1) x (n+1)
matrix, the classic Chebyshev spectral-integration matrix (Clenshaw and
Curtis, Numer. Math. 2, 1960; Greengard, SIAM J. Numer. Anal. 28, 1991).
It is built in O(n^2) from a closed form, as integers scaled by
2^(prec + GUARD), and kept once per (n, precision) in the folded form
below.  With theta_j = pi j / n,
alpha_j = 1 at the edges and 2 inside, and the 2n distinct sums
S(m) = sum_{k=1}^{n+1} sin(pi m k / n) / k, the entry for output node i and
transform sample j is

    alpha_j sin(theta_j) / n * [(S(j+n-i) + S(j-n+i)) / 2 - S(j+n)],

the antiderivative coefficients b_k = (c_{k-1} - c_{k+1}) / (2k) of the
unhalved cosine series, plus the corrections that the halved c_n and the
truncation after c_n make to b_{n-1}, b_n and b_{n+1}, each times
(-1)^k (cos(pi i k / n) - 1).  Everything is integer arithmetic on sines,
cosines and S values rounded with _BUILD_GUARD extra bits, then rounded
once to the stored scale.  The sines and cosines of degree n, at any
scale, are read from one quarter wave, cos(pi k / (2n)) for k = 0 .. n
(:func:`_quarter`): cos(pi m / n) is entry 2m, or minus entry 2n - 2m
past the quarter, and sin(pi m / n) is entry |n - 2m|.  So the cosines
read only the even entries and the sines only those of n's parity, and
each half is built alone: one half serves both tables at even n, and the
nodes and weights, which need only cosines, never build the odd half.
Each entry is libmp's cosine of one rational rounded as specified in
:func:`_quarter`, but a half costs one libmp call, not one per entry: its
entries are the real parts of a :func:`_rotation` by e^(i pi / n) in
integers with _ROTATION_GUARD extra bits, whose proved error radius
shows for nearly every entry that the per-entry rounding lands on the
same integer, and only the rare entry within that radius of a rounding
boundary is computed by libmp.  The folded apply below needs only the
rows i = 1 .. n // 2 and the weights row, so :func:`_matrix` builds only
the rows it is asked for, and :func:`_folded` asks for those.

The folded apply.  Integrating the reversed samples from the other end
gives the reflection M[n-i][j] = W_j - M[i][n-j], where W, the last row,
holds the Clenshaw-Curtis weights.  So only the rows i <= n/2 are applied,
each split into its symmetric and antisymmetric halves: one dot product
with g_j + g_{n-j} and one with g_j - g_{n-j}, both exact in integers.
That halves the multiply-adds of the plain product.  W is symmetric, so
its antisymmetric half vanishes and its folded form is 2 W_j for
j <= n/2; :func:`_weights` builds that folded row directly from the
cosines, in O(n^2), and it is the one source of W.

Block fixed point.  A vector is a list of Python-int mantissas per real
part (the real parts, and for complex data the imaginary parts) sharing
one exponent, taken from the largest component so that it keeps
prec + GUARD bits.  Products of mantissas and the matrix apply are exact;
a shift back to prec + GUARD bits after each step is the only rounding.

:func:`iterated_levels` is the one iterated-integral engine.  It
integrates a stack of kernels dz / (a - z) cumulatively over chained
panels (straight :func:`segment` panels and circular :func:`arc`
panels), from running totals that start at zero or at given values, and
returns every level's total.  It serves both the simplex integrals of
:mod:`resurgence.mzv` and the contour integrals of
:mod:`resurgence.hyperlog`.  Every level
stays in block fixed point from the kernel samples to the running
totals: the only roundings are the shared-exponent shifts with GUARD
bits, the kernel divisions and the final conversion of the totals.
:func:`endpoint_series` gives the start values at a point h near 0: every
prefix of the word summed as a Taylor series, in the same integers, with
a proved bound, and :func:`panel_bound` the degree and a proved bound of
everything in between ("Panel bound" below).
:func:`chebyshev_cumulative` is the same integer apply between one
conversion in and one conversion out; its last value, the full integral,
is the folded weights row applied to the samples' block-fixed-point
vector, bit for bit.

Shared across words.  What one panel and one letter fix is computed once
per process and read by every word that runs on that panel: the kernel
vector (:func:`_kernel`, per panel, letter, n and bits); level 1's
cumulative integral, or only its total when it is the last level
(:func:`_first_level`, the same key), since level 1 integrates the
kernel itself and the start values enter only where the running totals
are added; and the panel bound's data for the letter (:func:`_letter`,
per panel, double letter and precision).  A panel is equal to, and
hashes as, its mpf tuples (mid and half, or centre, radius and angles),
from which it derives its doubles, so two panels are one key exactly
when they are the same panel.  The caches are fixed-size lru_caches of
tuples, which no caller can extend in place, and every read gives what a
fresh computation gives.

Unit points.  An arc samples exp(i phi_j), phi_j = mid + half u_j, each
part libmp's cosine or sine of the angle rounded at bits + 16 bits,
truncated toward zero at the scale 2^bits (:func:`_unit_point`).  The
integer cosine table gives u_(n-j) = -u_j exactly, so with
E = exp(i mid) and T_j = exp(i half c_j 2^-bits) the mirrored pair is
E conj(T_j) and E T_j, and :func:`_unit_points` takes one libmp call for
E, one per pair and one per end, not one per node.  In units 2^-W,
W = bits + _ROTATION_GUARD: E is the per-node value at u = 0 (the middle
node's own for even n), within 2^(G - 16) (|mid| + 2) of exp(i mid),
G = _ROTATION_GUARD, plus half a unit for its rounding to an integer;
T_j, from an exact argument at W + 10 bits, is within one unit.  A part
of the product is a sum of two products x y of parts, each within
|dx| |y| + |x| |dy| of the exact one, and |E| and |T| are at most 1 up to
those errors, so with the final floor the products are within
4 + 2^(G - 16) (1.5 |mid| + 3) units of the exact point.  The per-node
value rounds half u_j and the sum, each within 2^-(bits + 16) of its
modulus, and its cosine and sine within one unit in their last place,
so it is within 2^(G - 16) (2 |half| + |mid| + 3) units of the exact
point.  Truncation toward zero jumps only at the integers, so a part is
kept when no multiple of 2^G lies within the sum r of both radii of it:
every value within r, the per-node one included, truncates to the same
integer.  Any other node, and the two ends, whose angles lie on an axis
(a part at +-1) on every arc of the package, take the per-node formula,
one libmp call each, so every table holds the integers of that formula.

Panel bound.  :func:`panel_bound` proves the error of
:func:`iterated_levels` before it runs and picks the degree it runs at.
On a panel z(u), u in [-1, 1], level k integrates g_k = F_(k-1) K_k with
the kernel K_k = z'(u) / (a_k - z(u)); E_rho is the closed Bernstein
ellipse with foci -1 and 1 and semi-axes (rho +- 1 / rho) / 2, the image
of |w| <= rho under J(w) = (w + 1 / w) / 2.

* rho.  A segment's kernel 1 / (c - u) has its pole at
  c = (a - mid) / half; an arc's kernel i half w / (c - w), with
  w = exp(i (mid + half u)) and c = (a - center) / radius, has its poles
  at u = (arg c + 2 pi j - i log|c| - mid) / half, and the letter at the
  centre gives the constant -i half.  rho_a is the least parameter of the
  ellipses through these poles, and a panel tries rho = 1 + t (top - 1)
  for t = 1 - 2^-k, k = 1 .. 8, with top the least rho_a, at most 64.
* Kernel majorants on E_rho.  With c = J(w_c), |w_c| = rho_c, and
  z = J(w), |w| <= rho, |c - z| = |w_c - w| |1 - 1 / (w_c w)| / 2 is at
  least (rho_c - rho) (1 - 1 / (rho_c rho)) / 2, the clearance: it bounds
  a segment's kernel.  On an arc, |K| = half / |c / w - 1| with
  |Im phi| <= half beta, beta = (rho - 1 / rho) / 2, so |c / w| lies
  within a factor s = e^(half beta) of |c| (the ring bound
  half / (|c| / s - 1) or half / (1 - |c| s)); and with psi the distance
  of phi from a pole, |c / w - 1| = 2 |sin(psi / 2)| e^(Im psi / 2), where
  |sin z| >= sin d when z is at least d <= pi / 2 from every multiple of
  pi, and |psi| >= half times the clearance.  kappa_k is the bound at
  rho = 1, on the panel itself.
* Level majorants.  On the panel, |F_k| <= |F_k(start)| + Phi_(k-1) times
  the integral of |K_k| (in closed form on a segment, 2 kappa_k on an
  arc).  On E_rho, every point is J(r e^(i theta)) for some r <= rho, and
  along the ray from cos theta, |dJ / dr| <= (1 + r^-2) / 2, so
  Phi_k(rho) <= Phi_k(1) plus the integral over r of
  Phi_(k-1)(r) kappa_k(r) (1 + r^-2) / 2, summed at the upper end of each
  step between the rho tried.  M_k(rho) = Phi_(k-1)(rho) kappa_k(rho)
  bounds g_k on E_rho.
* Tails.  The Chebyshev coefficients of g_k obey |a_j| <= 2 M rho^-j
  (Trefethen, *Approximation Theory and Approximation Practice*, Thm
  8.1), and the interpolant at the n + 1 nodes differs from g_k by the sum
  over j > n of a_j (T_j - T_j'), with j' the alias of j in [0, n] (Thm
  4.2, as in the proof of Thm 8.2).  Each integral from -1 of T_j is at
  most 2 j / (j^2 - 1), and over [-1, 1] it is 0 for odd j and
  2 / (j^2 - 1) for even j, whose alias is even too.  So for n >= 4 the
  node values of the integral are within
  (2 M / (rho - 1)) rho^-n (6 / (n - 2) + 3 rho^-(n // 2)), and the
  panel's total, the weights row, within the same with 10 / (n^2 - 4)
  for 6 / (n - 2).
* Carrying.  The samples of g_k err by the error N_(k-1) of level k - 1's
  node values times kappa_k + eta_k (below); the matrix carries them with
  its largest row sum (:func:`_row_sum`, exact for the integer matrix as
  applied, 2 for the weights row).  So on each panel the node values of
  level k are within E_k + |M| N_(k-1) (kappa_k + eta_k) plus the
  cumulative tail, and its total within the same with the quadrature
  tail, E_k being the total's error where the panel starts.  The panel
  term is the sum of weights times E after the last panel.
* Rounding count.  The same recursion carries, as sources: each kernel
  sample within eta of the exact one, from the letter within
  8 (1 + |a|) 2^-p of the letter meant (p the working precision; exact
  letters and roots of unity rounded once are), the ratio c rounded and
  truncated, the nodes and unit points within 2^(2 - bits) and one
  rounding of the quotient; each product and normalisation within
  2^-bits of its vector's largest modulus; each integer matrix entry
  within 2 units 2^-bits of the exact one (built with _BUILD_GUARD extra
  bits and rounded once, 2 units on the rows reflected through the
  weights row), so n + 1 entries add 2 (n + 1) units times the samples'
  bound; the conversion of each total to p bits; and the gaps between
  consecutive panels' ends, whose mid, half and angles are rounded at p
  bits, across which the exact F_k change by at most the gap times
  |F_(k-1)| / |a_k - z|.
* The degree.  The search evaluates only :func:`_forward`, the panel
  term at a degree and a largest row sum, on the ladder of :func:`_rung`,
  so that calls whose least degrees lie close share one matrix.  From the
  rung where the largest level term's rho^-n alone meets the target, it
  steps down while the rung below passes the screen, every row sum at 2
  (no less than the weights row's), which builds no matrix, or, when it
  took no step down, up while the rung fails it, so that each rung is
  screened at most once, refusing a rung past MAX_DEGREE; then up while the
  term with the exact row sums does not meet the target.  The bound is
  evaluated in doubles, every figure rounded up by 2^-30 relative, far
  more than the rounding of its few hundred operations.

The Laplace rays, lateral jumps and Hankel contours of
:mod:`resurgence.laplace` apply the same rows to vectors they build
themselves, never converting a sample to mpmath: :func:`_exponentials`
gives the kernel e^(u x_j) at the nodes, cached per (u, n, bits) so that
every panel of one width, within a sum and across sums with the same
kernel, shares one vector, and the shape's ``panel_sampler`` gives its
samples.  For 1 < |u| <= 2^16 the kernel is the kernel of u / 2 squared
in integers, so the widths of a doubling ladder and the halves of a
bisected panel share one base; the base, and any kernel outside that
range, costs one libmp exponential per node x_j > 0 and its reflection
in integers at the others (:func:`_node_exponentials`), carried with
_KERNEL_GUARD extra bits that the squarings use up.  The Lobatto nodes
of a degree n dividing NEST = 48 are every (48 / n)-th node of degree
48, so the Laplace panels take only such degrees and read their kernels,
node cosines (:func:`_node_cosines`) and unit points
(:func:`_unit_points`) off the vectors of degree 48, the same
integers a table of degree n holds; each panel's total is one integer
dot product with the folded weights row of its degree.  The degree
comes from the quadrature tail of "Panel bound" with one level
(``_TAILS[0]``), on the ladder of :func:`_rung`.
"""

from __future__ import annotations

import cmath
import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, mul, rshift, sub

import mpmath
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpc_div,
                          mpc_sub, mpf_add, mpf_cmp, mpf_cos_pi, mpf_cos_sin,
                          mpf_cos_sin_pi, mpf_div, mpf_exp, mpf_mul, mpf_neg,
                          mpf_shift, mpf_sub, round_ceiling, to_float,
                          to_int)

from . import _work

GUARD = 32
# extra bits carried while building the matrix, dropped by its final rounding
_BUILD_GUARD = 24


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b != 0."""
    return (2 * a + b) // (2 * b)


# guard bits of a rotated table (:func:`_rotation`) beyond its scale
_ROTATION_GUARD = 40


def _rotation(step: Fraction, count: int, bits: int, odd: bool = False):
    """exp(i pi x_m) * 2^bits for m = 0 .. count - 1, with x_m = m step, or
    (m + 1/2) step when odd: a list of (re, im) pairs, each part the
    integer that libmp's cos(pi x) or sin(pi x) gives at x = x_m, both
    rounded to nearest at bits + 16 bits, scaled and rounded to the
    nearest integer, or None where the check below cannot tell it.

    One libmp call gives w = exp(i pi step), or exp(i pi step / 2) when
    odd, each part rounded to an integer at the scale 2^W,
    W = bits + _ROTATION_GUARD, with its argument and its value rounded at
    W + 10 bits: within 1 unit 2^-W per part, 2 in modulus.  The rotation
    z_(m+1) = z_m w floors each part at 2^-W, from z_0 = 2^W, or from
    z_0 = w and the rotation w^2 floored (within 5 units) when odd.  A
    rotation within t units adds at most t + 2 units a step and grows the
    error e_m of z_m by a factor 1 + t 2^-W, so e_m <= 2 (e_0 + m (t + 2))
    <= 4 + 14 m units while m t 2^-W <= ln 2.  The per-entry path rounds
    the argument (at most 2 in modulus) at bits + 16 bits and libmp's
    cosine or sine within one unit in its last place there, which puts it
    within 2^-12 units 2^-bits of the exact value.  A part is kept when no
    rounding boundary, a half-integer at the scale 2^bits, lies within
    both radii of it; both the per-entry value and the exact one then
    round to the same integer as the rotated one."""
    guard = _ROTATION_GUARD
    wide = bits + guard
    wp = wide + 10
    u = step / 2 if odd else step
    c, s = mpf_cos_sin_pi(mpf_div(from_int(u.numerator),
                                  from_int(u.denominator), wp, "n"), wp, "n")
    wr, wi = to_int(mpf_shift(c, wide), "n"), to_int(mpf_shift(s, wide), "n")
    zr, zi = (wr, wi) if odd else (1 << wide, 0)
    if odd:
        wr, wi = (wr * wr - wi * wi) >> wide, (2 * wr * wi) >> wide
    # in doubled units, the cell of v holds the v whose halves round to
    # the same integer: boundaries at the odd multiples of 2^guard
    half, cell = 1 << guard, guard + 1
    slack = 2 << max(guard - 12, 0)
    out = []
    for m in range(count):
        r = 2 * (4 + 14 * m) + slack
        pair = []
        for v in (2 * zr, 2 * zi):
            low = (v - r - 1 + half) >> cell
            pair.append(low if low == (v + r + half) >> cell else None)
        out.append(tuple(pair))
        zr, zi = (zr * wr - zi * wi) >> wide, (zr * wi + zi * wr) >> wide
    return out


@lru_cache(maxsize=64)
def _quarter(n: int, bits: int, parity: int):
    """cos(pi k / (2n)) * 2^bits rounded to integers, for the k = 0 .. n
    with k % 2 == parity, entry k at index k // 2: the half of the quarter
    wave that a cosine (parity 0) or sine (parity n % 2) table of degree n
    reads.

    Each entry is libmp's cos(pi x) at x = k / (2n), both rounded to
    nearest at bits + 16 bits, then scaled and rounded to the nearest
    integer, ties to even.  The entries are the real parts of one
    :func:`_rotation` by exp(i pi / n), from exp(i pi / (2n)) for the odd
    half; the few it cannot tell are computed so, one libmp cosine each."""
    wp = bits + 16
    two_n = from_int(2 * n)
    ks = range(parity, n + 1, 2)
    out, calls = [], 1
    for k, (re, _im) in zip(ks, _rotation(Fraction(1, n), len(ks), bits,
                                          parity)):
        if re is None:
            calls += 1
            re = to_int(mpf_shift(mpf_cos_pi(mpf_div(from_int(k), two_n, wp,
                                                     "n"), wp, "n"), bits),
                        "n")
        out.append(re)
    _work.add(("cos_pi", n, bits), calls)
    return tuple(out)


@lru_cache(maxsize=32)
def _cosines(n: int, bits: int):
    """cos(pi m / n) * 2^bits rounded to integers, for m = 0 .. 2n - 1."""
    # cos(pi m / n) is quarter-wave entry 2m, even
    q = _quarter(n, bits, 0)
    # cos(pi m / n) = -cos(pi (n - m) / n) past the quarter wave
    half = [q[m] if 2 * m <= n else -q[n - m] for m in range(n + 1)]
    # cos(pi m / n) = cos(pi (2n - m) / n)
    return tuple(half + half[n - 1:0:-1])


def _sines(n: int, bits: int):
    """sin(pi m / n) * 2^bits rounded to integers, for m = 0 .. 2n - 1."""
    # sin(pi m / n) = cos(pi (n - 2m) / (2n)), an entry of n's parity
    q = _quarter(n, bits, n % 2)
    half = [q[abs(n - 2 * m) // 2] for m in range(n + 1)]
    # sin(pi (2n - m) / n) = -sin(pi m / n)
    return half + [-s for s in half[n - 1:0:-1]]


@lru_cache(maxsize=32)
def _nodes(n: int, prec: int):
    cos = _cosines(n, prec + GUARD)
    return tuple(mpmath.mp.make_mpf(from_man_exp(-cos[j], -(prec + GUARD),
                                                 prec, "n"))
                 for j in range(n + 1))


def _matrix(n: int, prec: int, rows):
    """The given rows of the cumulative-integration matrix, rows indexed by
    output node and columns by input node, as integers scaled by
    2^(prec + GUARD), built from the closed form of the module docstring.
    Only its folded rows 1 .. n // 2 are kept (:func:`_folded`).

    Each entry is that closed form's integer, computed with two big
    products instead of five: the corrections for k = n - 1 and n + 1
    share one factor, those for k = n are shifts, and the division by
    the scale 4n 2^s is a shift by s + 2 and a division by n.  The S sums
    read the sine table through strided slices of its periodic
    extension, and each row is one chain of builtin maps over the
    column lists."""
    _work.add(("entries", n, prec), len(rows) * (n + 1))
    bits = prec + GUARD + _BUILD_GUARD
    one = 1 << bits
    two_n = 2 * n
    cos = _cosines(n, bits)
    sin = _sines(n, bits)
    # S(m) * 2^bits over the common denominator lcm(1 .. n + 1), and
    # S(2n - m) = -S(m); sin(pi m k / n) for k = 1 .. n + 1 is every m-th
    # entry of the sine table repeated, from entry m
    lcm = math.lcm(*range(1, n + 2))
    inverse = [lcm // k for k in range(1, n + 2)]
    periodic = sin * ((n + 3) // 2)
    S = [0] + [_round_div(sum(map(mul, periodic[m:m * (n + 2):m], inverse)),
                          lcm)
               for m in range(1, n + 1)]
    S += [-v for v in S[n - 1:0:-1]]
    # S(t) at wrap[t + n] for t = -n .. 3n, S having period 2n
    wrap = S[n:] + S + S[:n + 1]
    # every entry x times 2n, at scale 2^(2 bits), rounded once, as
    # _round_div(x, den) = (2 x + den) // (2 den), with
    # x = a_j (S(j + n - i) + S(j - n + i) - c_j) + sum_k w_jk e_ik
    shift = 2 * bits - (prec + GUARD)
    den = two_n << shift
    # per column j, the terms of 2 x + den: 2 a_j, den - 2 a_j c_j and the
    # 2 w_jk, where a_j = alpha_j sin(theta_j), alpha_j = 1 at the edges
    # and 2 inside, c_j = 2 S(j + n), and w_jk = 2n (b_k - uniform b_k) *
    # 2^bits for k = n - 1, n and n + 1, with
    # gamma_m = alpha cos(m theta_j) / n: b_{n-1} gains gamma_n / (4(n-1))
    # (nothing at n = 1), b_n gains gamma_{n+1} / (2n) and b_{n+1} gains
    # (gamma_{n+2} - gamma_n / 2) / (2(n+1)).  Since
    # e_(n-1) = e_(n+1) (below), w_(j,n-1) and w_(j,n+1) are summed, and
    # the products by e_n in {0, -+2^(bits + 1)} are shifts
    a2, c2, c2_odd, w = [], [], [], []
    flip = 1 if n % 2 else -1
    for j in range(n + 1):
        alpha = 1 if j in (0, n) else 2
        a = alpha * sin[j]
        cn = cos[n * j % two_n]
        a2.append(2 * a)
        c2.append(den - 4 * a * wrap[j + 2 * n])
        c2_odd.append(c2[-1] + flip * (2 * _round_div(
            alpha * cos[(n + 1) * j % two_n], n) << (bits + 1)))
        w.append((2 * _round_div(alpha * cn, 2 * (n - 1)) if n > 1 else 0)
                 + 2 * _round_div(alpha * (2 * cos[(n + 2) * j % two_n] - cn),
                                  2 * (n + 1)))
    out = []
    for i in rows:
        # e_ik = (-1)^k (T_k(x_i) - T_k(-1)) on the Lobatto nodes
        # x_i = -cos(pi i / n), for the k whose b_k the uniform formula
        # misses: e_(n-1) = e_(n+1), cos(pi i (n -+ 1) / n) being entries
        # i (n -+ 1) and 2n - i (n -+ 1) (mod 2n) of the symmetric table,
        # and e_n = (-1)^n (cos(pi i) - 1), 0 for even i
        e = (-1) ** (n + 1) * (cos[i * (n + 1) % two_n] - one)
        x = map(add, map(mul, a2, map(add, wrap[2 * n - i:3 * n - i + 1],
                                      wrap[i:i + n + 1])),
                map(add, c2_odd if i % 2 else c2, map(mul, w, repeat(e))))
        # floor(x / (4n 2^shift)), the product x times 2n rounded
        entries = list(map(floordiv, map(rshift, x, repeat(shift + 2)),
                           repeat(n)))
        # the transform reads the samples in decreasing x order: column j
        # of the transform is input node n - j
        entries.reverse()
        out.append(tuple(entries))
    return tuple(out)


@lru_cache(maxsize=16)
def _weights(n: int, prec: int):
    """The Clenshaw-Curtis weights of the n + 1 nodes, the last row W of the
    integration matrix, folded as :func:`_cumulate` applies it: 2 W_j for
    j = 0 .. n // 2, as integers scaled by 2^(prec + GUARD).

    The interpolant integrates to the sum over even k of
    c_k * 2 / (1 - k^2), so the weight of sample j is that combination of
    column j of the cosine transform.  The weights are symmetric,
    W_j = W_{n-j}, so the order in which the transform reads the samples
    does not matter and folding the row only doubles its first half.
    """
    bits = prec + GUARD + _BUILD_GUARD
    cos = _cosines(n, bits)
    two_n = 2 * n
    row = []
    for j in range(n // 2 + 1):
        # W_j = (e_j / n) * sum over even k of e_k cos(pi j k / n) / (1 - k^2),
        # with e = 1 at the edges 0 and n and 2 elsewhere
        total = cos[0]
        for k in range(2, n + 1, 2):
            total -= _round_div(cos[j * k % two_n] * (1 if k == n else 2),
                                k * k - 1)
        row.append(2 * _round_div(total * (1 if j == 0 else 2),
                                  n << _BUILD_GUARD))
    return tuple(row)


@lru_cache(maxsize=16)
def _folded(n: int, prec: int):
    """The matrix as the rows applied by :func:`_cumulate`: the folded
    weights row of :func:`_weights`, and for each row i = 1 .. n // 2 its
    doubled symmetric and antisymmetric halves, (M[i][j] + M[i][n-j],
    M[i][j] - M[i][n-j]) for j < n / 2, with 2 M[i][n/2] for even n."""
    with _work.timing(("matrix_s", n, prec)):
        rows = _matrix(n, prec, range(1, n // 2 + 1))
    half = (n + 1) // 2
    middle = [] if n % 2 else [n // 2]

    def even(row):
        return tuple([row[j] + row[n - j] for j in range(half)]
                     + [2 * row[j] for j in middle])

    def odd(row):
        return tuple(row[j] - row[n - j] for j in range(half))

    return _weights(n, prec), tuple((even(row), odd(row)) for row in rows)


def _fold(g):
    """(g_j + g_{n-j}, g_j - g_{n-j}) for j < n / 2, and g_{n/2} appended to
    the sums for even n."""
    n = len(g) - 1
    half = (n + 1) // 2
    plus = [g[j] + g[n - j] for j in range(half)]
    minus = [g[j] - g[n - j] for j in range(half)]
    if n % 2 == 0:
        plus.append(g[half])
    return plus, minus


def _cumulate(folded, g):
    """Twice the matrix applied to one list of integer mantissas, exactly,
    by the reflection M[n-i][j] = W_j - M[i][n-j]."""
    last, pairs = folded
    n = len(g) - 1
    _work.add(("cumulate", n))
    _work.add(("madds", n), len(last) + len(pairs) * (n + 1))
    plus, minus = _fold(g)
    total = sum(map(mul, last, plus))
    out = [0] * (n + 1)
    out[n] = total
    for i, (even, odd) in enumerate(pairs, 1):
        a = sum(map(mul, even, plus))
        b = sum(map(mul, odd, minus))
        out[i] = a + b
        if 2 * i != n:
            out[n - i] = total - a + b
    return out


def _total(last, g):
    """Twice the weights row applied to one list of integer mantissas: the
    last entry of :func:`_cumulate` without the other rows."""
    _work.add(("total", len(g) - 1))
    _work.add(("madds", len(g) - 1), len(last))
    return sum(map(mul, last, _fold(g)[0]))


# -- block fixed point: (parts, exp), mantissa lists per real part -----------


def _normalized(parts, exp: int, bits: int):
    """The vector rounded so that its largest mantissa has at most
    ``bits`` bits, keeping one shared exponent."""
    top = max(max(map(abs, p)) for p in parts).bit_length()
    shift = top - bits
    if shift <= 0:
        return parts, exp
    half = 1 << (shift - 1)
    return tuple([(m + half) >> shift for m in p] for p in parts), exp + shift


def _plus(vector, scalar, bits: int):
    """Each entry of the vector plus the one-entry vector ``scalar``,
    summed exactly at the smaller exponent and then normalised; complex
    when either is."""
    (parts, exp), (tparts, texp) = vector, scalar
    if len(parts) < len(tparts):
        parts += ([0] * len(parts[0]),)
    tparts += ([0],) * (len(parts) - len(tparts))
    low = min(exp, texp)
    up, tup = exp - low, texp - low
    return _normalized(tuple([(m << up) + (t[0] << tup) for m in p]
                             for p, t in zip(parts, tparts)), low, bits)


def _scaled(vector, scalar, bits: int):
    """Each entry of the vector times the one-entry vector ``scalar``,
    exactly and then normalised; complex when either is."""
    parts, exp = scalar
    count = len(vector[0][0])
    return _product(vector, (tuple([p[0]] * count for p in parts), exp),
                    bits)


def _product(x, y, bits: int):
    """The entrywise product of two vectors, complex when either is."""
    (xp, xe), (yp, ye) = x, y
    if len(xp) < len(yp):
        xp, yp = yp, xp
    if len(yp) == 1:
        parts = tuple([a * b for a, b in zip(p, yp[0])] for p in xp)
    else:
        (ar, ai), (br, bi) = xp, yp
        parts = ([a * c - b * d for a, b, c, d in zip(ar, ai, br, bi)],
                 [a * d + b * c for a, b, c, d in zip(ar, ai, br, bi)])
    return _normalized(parts, xe + ye, bits)


def _quotients(nums, dens, bits: int):
    """The entrywise quotients of integer parts by positive integers,
    rounded at one scale 2^s chosen so that the largest has about ``bits``
    bits; returns (parts, s).  A zero divisor, a sample at a pole, is
    refused."""
    low = min(dens)
    if not low:
        raise ValueError("cannot integrate non-finite samples")
    top = max(max(map(abs, p)) for p in nums).bit_length()
    s = bits + low.bit_length() - top
    # _round_div(m << s, d) or _round_div(m, d << -s), inlined
    up, down = max(s, 0) + 1, max(-s, 0)
    dens = [d << down for d in dens]
    return tuple([((m << up) + d) // (2 * d) for m, d in zip(p, dens)]
                 for p in nums), s


def _top(parts):
    """The largest exp + bc of finite nonzero mpf tuples, None when all are
    zero; raises on a non-finite value."""
    top = None
    for sign, man, exp, bc in parts:
        if man:
            if top is None or exp + bc > top:
                top = exp + bc
        elif bc:
            raise ValueError("cannot integrate non-finite samples")
    return top


def _mantissas(parts, base: int):
    """Signed integer mantissas of mpf tuples at the exponent ``base``,
    truncated toward zero."""
    out = []
    for sign, man, exp, bc in parts:
        shift = exp - base
        m = man << shift if shift >= 0 else man >> -shift
        out.append(-m if sign else m)
    return out


def _parts(values):
    """The real parts of mpmath values as mpf tuples and, when any value is
    complex, their imaginary parts."""
    ctx = mpmath.mp
    values = [ctx.convert(v) for v in values]
    if any(type(v) is ctx.mpc for v in values):
        return list(zip(*(v._mpc_ if type(v) is ctx.mpc else (v._mpf_, fzero)
                          for v in values)))
    return [[v._mpf_ for v in values]]


def _vector(parts, bits: int):
    """Lists of mpf tuples (the real parts, and for complex data the
    imaginary parts) as one vector, at the exponent that gives the largest
    component ``bits`` bits."""
    tops = [t for t in map(_top, parts) if t is not None]
    base = max(tops) - bits if tops else 0
    return tuple(_mantissas(p, base) for p in parts), base


def _fixed(values, bits: int):
    """mpmath values as one vector (see :func:`_vector`)."""
    return _vector(_parts(values), bits)


# the degree of the Laplace panels whose nodes hold those of every other:
# the Lobatto nodes of a degree n dividing it are every (NEST / n)-th node
NEST = 48


def _nested(vector, n: int):
    """A vector at the NEST + 1 nodes cut to the n + 1 nodes of degree n."""
    parts, exp = vector
    return tuple(p[::NEST // n] for p in parts), exp


def _node_cosines(n: int, bits: int):
    """cos(pi j / n) * 2^bits rounded, for j = 0 .. n and n dividing NEST:
    every (NEST / n)-th entry of degree NEST's table, the same integers
    (the quarter-wave entry of each is libmp's cosine of one rational),
    so no table of degree n is built."""
    return _cosines(NEST, bits)[:NEST + 1:NEST // n]


# |u|^2 above which _exponentials computes e^(u x_j) node by node again
_MAX_DOUBLED = from_int(1 << 32)
# extra bits of the ray kernels, more than the 16 squarings of a ladder lose
_KERNEL_GUARD = 20


@lru_cache(maxsize=128)
def _exponentials(u, n: int, bits: int):
    """e^(u x_j) at the nodes x_j = -cos(pi j / n) as one vector of
    mantissa tuples with b = bits + _KERNEL_GUARD bits, for an mpc tuple
    u, once per (u, n, bits): the ray panels of one width share it,
    within a sum (the two halves of a bisected panel) and across sums
    with the same kernel.

    For 1 < |u| <= 2^16 it is the kernel of u / 2 squared in integers, so
    a ladder of widths doubling from one panel to the next, and the halves
    of a bisected panel, share one base and pay one integer square per
    kernel; otherwise it is :func:`_node_exponentials` at b bits.
    Measured against the largest modulus, a square doubles the error of
    its base and adds one rounding, 2^(1/2 - b): k squarings of a base
    within eps give a vector within 2^k (eps + 2^(1/2 - b)) to first
    order.  The base is within 2^(3 - b) (its argument, its exponential
    and its cosine and sine each rounded once, and the shared exponent),
    so after the k <= 16 squarings of the range the kernel is within
    2^-bits of the exact e^(u x_j) at its nodes, against the largest
    modulus.  The degree n divides NEST, and reads its nodes off the
    kernel of degree NEST, whose largest modulus, at an end, it shares."""
    if n != NEST:
        return _nested(_exponentials(u, NEST, bits), n)
    ur, ui = u
    size = mpf_add(mpf_mul(ur, ur), mpf_mul(ui, ui))
    if mpf_cmp(size, fone) <= 0 or mpf_cmp(size, _MAX_DOUBLED) > 0:
        return _node_exponentials(u, n, bits + _KERNEL_GUARD)
    _work.add("squared")
    base = _exponentials((mpf_shift(ur, -1), mpf_shift(ui, -1)), n, bits)
    parts, exp = _product(base, base, bits + _KERNEL_GUARD)
    return tuple(map(tuple, parts)), exp


def _node_exponentials(u, n: int, bits: int):
    """e^(u x_j) at the nodes, node by node: each node x_j > 0 costs one
    ``mpf_exp`` when u has a real part, and one ``mpf_cos_sin`` when it
    has an imaginary part; its mirror -x_j takes the reflection
    e^(-u x) = conj(e^(u x)) / |e^(u x)|^2, one integer division, and the
    middle node of an even n is 1.  Every entry is rounded once, relative
    to itself, before the vector shares one exponent."""
    ur, ui = u
    cos = _cosines(n, bits)
    real = ui == fzero
    re = [fone] * (n + 1)
    im = [fzero] * (n + 1)
    if ur != fzero:
        _work.add("exp", n - n // 2)
    if not real:
        _work.add("cos_sin", n - n // 2)
    for j in range(n // 2 + 1, n + 1):
        x = from_man_exp(-cos[j], -bits)
        e = mpf_exp(mpf_mul(ur, x, bits), bits)
        _sign, man, exp, bc = e
        # 1 / e = 2^shift / man * 2^(-exp - shift), rounded to bits bits
        shift = bc + bits
        inv = ((2 << shift) + man) // (2 * man)
        inverse = (0, inv, -exp - shift, inv.bit_length())
        if real:
            re[j], re[n - j] = e, inverse
            continue
        c, s = mpf_cos_sin(mpf_mul(ui, x, bits), bits)
        re[j], im[j] = mpf_mul(e, c), mpf_mul(e, s)
        re[n - j] = mpf_mul(inverse, c)
        im[n - j] = mpf_neg(mpf_mul(inverse, s))
    parts, exp = _vector((re,) if real else (re, im), bits)
    return tuple(map(tuple, parts)), exp


def _values(parts, exp: int, prec: int):
    """A vector back as mpf values rounded to ``prec`` bits, or as mpc
    values for two parts."""
    ctx = mpmath.mp
    values = [[from_man_exp(m, exp, prec, "n") for m in p] for p in parts]
    if len(values) == 1:
        return [ctx.make_mpf(v) for v in values[0]]
    return [ctx.make_mpc(pair) for pair in zip(*values)]


def chebyshev_cumulative(values):
    """Cumulative integral of a sampled integrand, at the sample nodes.

    ``values`` are the integrand at the n + 1 Chebyshev-Lobatto nodes
    x_j = -cos(pi j / n) of [-1, 1], increasing, with n = len(values) - 1
    (``_nodes(n, prec)`` at the working precision).  Returns the list
    F(x_j) = integral from -1 to x_j of the interpolant, so F[0] = 0 and
    F[-1] is the full integral.  The result is complex when any sample
    is.
    """
    n = len(values) - 1
    if n < 1:
        raise ValueError("need at least two samples")
    prec = mpmath.mp.prec
    bits = prec + GUARD
    parts, exp = _fixed(values, bits)
    folded = _folded(n, prec)
    return _values([_cumulate(folded, p) for p in parts], exp - bits - 1,
                   prec)


# -- panels ------------------------------------------------------------------


def _complex_tuple(z):
    """A number as an mpc tuple (real part, imaginary part)."""
    z = mpmath.mpmathify(z)
    return z._mpc_ if type(z) is mpmath.mpc else (z._mpf_, fzero)


def _ratio(a, b, c, bits: int):
    """(a - b) / c for mpc tuples, as its real and imaginary parts times
    2^bits, truncated to integers."""
    if a[1] == b[1] == c[1] == fzero:
        ratio = (mpf_div(mpf_sub(a[0], b[0], bits, "n"), c[0], bits, "n"),
                 fzero)
    else:
        ratio = mpc_div(mpc_sub(a, b, bits, "n"), c, bits, "n")
    return _mantissas(ratio, -bits)


def _bernstein(c: complex) -> float:
    """The parameter rho >= 1 of the Bernstein ellipse through the point c:
    c = (w + 1 / w) / 2 with |w| = rho."""
    root = cmath.sqrt(c - 1) * cmath.sqrt(c + 1)
    return max(abs(c + root), abs(c - root))


def _clearance(rho_c: float, rho: float) -> float:
    """A lower bound of the distance from a point on the ellipse of
    parameter rho_c to the closed ellipse E_rho, rho < rho_c: with
    c = (w_c + 1 / w_c) / 2 and z = (w + 1 / w) / 2,
    |c - z| = |w_c - w| |1 - 1 / (w_c w)| / 2.  A pole on the panel,
    rho_c = 1, is refused."""
    if not rho < rho_c:
        raise ValueError("a letter lies on the path")
    return (rho_c - rho) * (1 - 1 / (rho_c * rho)) / 2


def _letter_error(a: complex) -> float:
    """How far a letter given at the working precision p may lie from the
    letter meant, in units 2^-p: 8 (1 + |a|), for an exact letter or a
    root of unity whose angle and exponential are each rounded once."""
    return 8 * (1 + abs(a))


def _sample_error(kappa_d: float, scale: float, d_num: float, sigma: float,
                  p: int) -> float:
    """A bound, in units 2^-p, of the error of a kernel sample N / D
    computed from inputs with |N| <= scale, |N~ - N| <= d_num 2^-p,
    |D~ - D| <= sigma 2^-p and 1 / |D| <= kappa_d, and rounded once within
    2^(2 - p - GUARD) of the largest modulus; refused unless
    sigma 2^-p kappa_d <= 1 / 2."""
    moved = math.ldexp(sigma * kappa_d, -p)
    if moved > 0.5:
        raise ValueError("a letter lies too close to the path for the "
                         "working precision")
    return ((d_num + scale * sigma * kappa_d) * kappa_d / (1 - moved)
            + 2.0 ** (3 - GUARD) * scale * kappa_d)


class _Panel:
    """A panel is equal to, and hashes as, its ``key``: the mpf tuples
    that fix it, never its doubles, so the caches of
    :func:`_kernel`, :func:`_first_level` and :func:`_letter` serve every
    word that runs on the same panel."""

    def __eq__(self, other):
        return type(other) is type(self) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


def _double(t) -> complex:
    """An mpc tuple as a complex double, each part rounded to nearest."""
    return complex(to_float(t[0], rnd="n"), to_float(t[1], rnd="n"))


class _Segment(_Panel):
    """The straight panel z = mid + half * u."""

    def __init__(self, z0, z1):
        self.mid = (z0 + z1) / 2
        self.half = (z1 - z0) / 2
        self._mid = _complex_tuple(self.mid)
        self._half = _complex_tuple(self.half)
        self.key = self._mid, self._half
        # as complex doubles, for the panel bound
        self._doubles = _double(self._mid), _double(self._half)

    def position(self, u):
        return self.mid + self.half * u

    def velocity(self, u):
        return self.half

    def kernel(self, a, n: int, bits: int):
        """dz / (a - z) at the nodes, (parts, exp): 1 / (c - u_j) with the
        one constant c = (a - mid) / half, divided in integers."""
        cr, ci = _ratio(a, self._mid, self._half, bits)
        # c - u_j = c + cos(pi j / n), at scale 2^bits
        ds = [cr + x for x in _cosines(n, bits)[:n + 1]]
        if ci:
            parts, s = _quotients((ds, [-ci] * len(ds)),
                                  [d * d + ci * ci for d in ds], bits)
            return parts, bits - s
        # 2^t / d_j, with t chosen to give the largest about ``bits`` bits
        t = bits + min(map(abs, ds)).bit_length()
        two = 2 << t
        # _round_div(1 << t, d), inlined
        return ([(two + d) // (2 * d) for d in ds],), bits - t

    def ends(self):
        """The panel's first and last points, as complex doubles."""
        mid, half = self._doubles
        return mid - half, mid + half

    def slack(self) -> float:
        """How far the panel's ends may lie from the points its caller
        means, in units 2^-p at the working precision p: mid and half are
        each rounded once from ends given exactly or rounded once."""
        return 4 * sum(map(abs, self._doubles))

    def letter(self, a: complex, p: int):
        """(rho_a, kappa, mass, eta, sizes) for the letter a (see "Panel
        bound" in the module docstring): the kernel is 1 / (c - u) with
        c = (a - mid) / half, its one pole."""
        mid, half = self._doubles
        c = (a - mid) / half
        x, y = c.real, abs(c.imag)
        if not y and abs(x) <= 1:
            raise ValueError("a letter lies on the path")
        rho_c = _bernstein(c)

        def sizes(rhos):
            return [1 / _clearance(rho_c, rho) for rho in rhos]

        kappa = sizes([1.0])[0]
        # the integral of |1 / (c - u)| over [-1, 1]
        mass = (math.asinh((1 - x) / y) + math.asinh((1 + x) / y) if y
                else math.log((abs(x) + 1) / (abs(x) - 1)))
        # c moves by the letter's error over |half| and by the rounding
        # and truncation of the ratio, a node by half a unit
        sigma = (_letter_error(a) / abs(half)
                 + 2.0 ** (2 - GUARD) * (2 + abs(c)))
        return (rho_c, kappa, mass * _FLOAT_MARGIN,
                _sample_error(kappa, 1.0, 0.0, sigma, p), sizes)


class _Arc(_Panel):
    """The circular panel z = center + radius * exp(i phi), with
    phi = mid + half * u running from t0 to t1."""

    def __init__(self, center, radius, t0, t1):
        self.center = center
        self.radius = radius
        self.mid = (t0 + t1) / 2
        self.half = (t1 - t0) / 2
        self._center = _complex_tuple(center)
        self._radius = _complex_tuple(radius)
        angles = _complex_tuple(self.mid), _complex_tuple(self.half)
        self.key = (self._center, self._radius) + angles
        # as doubles, for the panel bound
        self._doubles = (_double(self._center), _double(self._radius),
                         *(_double(t).real for t in angles))

    def position(self, u):
        return (self.center
                + self.radius * mpmath.expj(self.mid + self.half * u))

    def velocity(self, u):
        return (mpmath.mpc(0, 1) * self.radius * self.half
                * mpmath.expj(self.mid + self.half * u))

    def kernel(self, a, n: int, bits: int):
        """dz / (a - z) at the nodes, (parts, exp): i half w_j / (c - w_j)
        with w_j = exp(i phi_j) and c = (a - center) / radius, in
        integers."""
        cr, ci = _ratio(a, self._center, self._radius, bits)
        wr, wi, half = _unit_points(self.mid, self.half, n, bits)
        dr = [cr - x for x in wr]
        di = [ci - y for y in wi]
        # i w conj(d) times half, at scale 2^(3 bits), over |d|^2 at 2^(2 bits)
        parts, s = _quotients(
            ([half * (x * q - y * p) for x, y, p, q in zip(wr, wi, dr, di)],
             [half * (x * p + y * q) for x, y, p, q in zip(wr, wi, dr, di)]),
            [p * p + q * q for p, q in zip(dr, di)], bits)
        return parts, -s - bits

    def ends(self):
        """The panel's first and last points, as complex doubles."""
        center, radius, mid, half = self._doubles
        return tuple(center + radius * cmath.exp(1j * t)
                     for t in (mid - half, mid + half))

    def slack(self) -> float:
        """How far the panel's ends may lie from the points its caller
        means, in units 2^-p at the working precision p: the angles t0
        and t1 rounded once, mid and half rounded once from them, and the
        centre and radius given exactly or rounded once."""
        center, radius, mid, half = self._doubles
        return 4 * (abs(radius) * (abs(mid) + abs(half) + 1) + abs(center))

    def letter(self, a: complex, p: int):
        """(rho_a, kappa, mass, eta, sizes) for the letter a (see "Panel
        bound" in the module docstring): the kernel is i half w / (c - w)
        with w = exp(i phi), phi = mid + half u and
        c = (a - center) / radius; its poles are the phi with
        exp(i phi) = c."""
        center, radius, mid, signed = self._doubles
        half = abs(signed)
        c = (a - center) / radius
        size = abs(c)
        if not size:
            # the letter at the centre: the kernel is the constant -i half
            rho_c = math.inf

            def sizes(rhos):
                return [half] * len(rhos)
        else:
            # the poles nearest mid; the clearance grows with rho_c, so
            # the least rho_c gives the bound
            rho_c = min(_bernstein((phi - mid) / signed)
                        for phi in _angle_poles(c, 1.0, mid))

            def sizes(rhos):
                out = []
                for rho in rhos:
                    # |Im phi| <= half beta on E_rho, so |c / w| lies within
                    # a factor spread = e^(half beta) of |c|
                    spread = math.exp(half * (rho - 1 / rho) / 2)
                    ring = max(size / spread - 1, 1 - size * spread)
                    gap = min(half * _clearance(rho_c, rho) / 2, math.pi / 2)
                    near = (half * math.sqrt(spread / size)
                            / (2 * math.sin(gap)))
                    out.append(min(near, half / ring) if ring > 0 else near)
                return out

        kappa = sizes([1.0])[0]
        # c moves by the letter's error over the radius and by the rounding
        # and truncation of the ratio, w by the rounding of the unit points
        sigma = (_letter_error(a) / abs(radius)
                 + 2.0 ** (2 - GUARD) * (2 + size))
        return rho_c, kappa, 2 * kappa, _sample_error(
            kappa / half, half, 2.0 ** (2 - GUARD) * (1 + half), sigma,
            p), sizes


def _angle_poles(v: complex, r: float, mid: float):
    """The angles phi with r exp(i phi) = v nearest mid:
    arg v - i log(|v| / r) + 2 pi j for the three j nearest."""
    arg = cmath.phase(v)
    k = round((mid - arg) / math.tau)
    return [complex(arg + j * math.tau, -math.log(abs(v) / r))
            for j in (k - 1, k, k + 1)]


def _unit_point(m, h, c: int, bits: int):
    """exp(i (m + h u)) at the node u = -c 2^-bits, for mpf tuples m and h,
    as mpf tuples (cos, sin): the angle and its cosine and sine each
    rounded to nearest at bits + 16 bits, one libmp call."""
    wp = bits + 16
    return mpf_cos_sin(mpf_add(m, mpf_mul(h, from_man_exp(-c, -bits), wp,
                                          "n"), wp, "n"), wp, "n")


def _truncated(v: int, r: int, guard: int):
    """trunc(x 2^-guard) for every x within r of v, or None when a rounding
    boundary, an integer at that scale, lies within r of v."""
    top = (v + r) >> guard
    if top != (v - r - 1) >> guard:
        return None
    # no multiple of 2^guard in [v - r, v + r], 0 included: one sign
    return top if v > 0 else top + 1


@lru_cache(maxsize=16)
def _unit_points(mid, half, n: int, bits: int):
    """exp(i (mid + half u_j)) at the nodes as real and imaginary parts,
    and half, all times 2^bits: the integers of :func:`_unit_point` node
    by node, shared by every arc with the same angles.  They come from
    one libmp call for exp(i mid), one per mirrored pair of nodes and one
    per end, with the entries that the proved radius cannot tell, and
    those ends, computed by :func:`_unit_point` ("Unit points" in the
    module docstring)."""
    m, h = (mpmath.mpmathify(v)._mpf_ for v in (mid, half))
    cos = _cosines(n, bits)
    guard = _ROTATION_GUARD
    wide = bits + guard
    middle = _unit_point(m, h, 0, bits)
    # the nodes that take their own values: the ends, the middle of an
    # even n, and the nodes sent back
    own = {0: _unit_point(m, h, cos[0], bits),
           n: _unit_point(m, h, cos[n], bits)}
    if n % 2 == 0:
        own[n // 2] = middle
    # exp(i mid), the two ends and one call per pair between them
    calls = 3 + (n + 1) // 2 - 1
    er, ei = (to_int(mpf_shift(v, wide), "n") for v in middle)
    # the sum of both radii in units 2^-W,
    # 4 + 2^(guard - 16) (2 |half| + 2.5 |mid| + 6), |half| and |mid|
    # rounded up at the scale 2^bits
    hb, mb = (abs(v) + 1 for v in _mantissas([h, m], -bits))
    drop = bits + 16 - guard
    far = 2 * hb + 3 * mb + (6 << bits)
    r = 4 + (-(-far >> drop) if drop > 0 else far << -drop)
    re, im = [0] * (n + 1), [0] * (n + 1)
    for j in range(1, (n + 1) // 2):
        # T_j = exp(i t_j), t_j = half c_j 2^-bits exactly
        t = mpf_mul(h, from_man_exp(cos[j], -bits))
        tr, ti = (to_int(mpf_shift(v, wide), "n")
                  for v in mpf_cos_sin(t, wide + 10, "n"))
        a, b, x, y = er * tr, ei * ti, ei * tr, er * ti
        # node j at mid - t_j, node n - j at mid + t_j
        for k, pr, pi in ((j, a + b, x - y), (n - j, a - b, x + y)):
            kr = _truncated(pr >> wide, r, guard)
            ki = _truncated(pi >> wide, r, guard)
            if kr is None or ki is None:
                calls += 1
                own[k] = _unit_point(m, h, cos[k], bits)
            else:
                re[k], im[k] = kr, ki
    for k, point in own.items():
        re[k], im[k] = _mantissas(point, -bits)
    _work.add("cos_sin", calls)
    return tuple(re), tuple(im), _mantissas([h], -bits)[0]


def segment(z0, z1):
    """The straight panel from z0 to z1."""
    return _Segment(z0, z1)


def arc(center, radius, t0, t1):
    """The circular panel of the given radius about ``center``, from angle
    t0 to angle t1."""
    return _Arc(center, radius, t0, t1)


# -- shared across words: what one panel and one letter fix -------------------


@lru_cache(maxsize=128)
def _kernel(panel, a, n: int, bits: int):
    """``panel.kernel(a, n, bits)`` for an mpc tuple a, once per (panel,
    letter, n, bits) and shared by every word on that panel, as tuples
    that no caller can extend in place."""
    parts, exp = panel.kernel(a, n, bits)
    return tuple(map(tuple, parts)), exp


@lru_cache(maxsize=128)
def _first_level(panel, a, n: int, bits: int, full: bool):
    """Level 1 of :func:`iterated_levels` on one panel, before the running
    total is added: the kernel's cumulative integral at the nodes (full),
    or one-entry parts holding only its total, as (parts, exp).  Its
    integrand is the kernel itself, so it depends on nothing else, and
    the start values enter only where the running totals are added."""
    parts, exp = _kernel(panel, a, n, bits)
    folded = _folded(n, bits - GUARD)
    if full:
        parts = tuple(tuple(_cumulate(folded, p)) for p in parts)
    else:
        parts = tuple((_total(folded[0], p),) for p in parts)
    return parts, exp - bits - 1


def iterated_levels(poles, panels, n: int, start=()):
    """Every level's iterated integral at the end of a path: F_k, the
    integral of dz_1 / (a_1 - z_1) ... dz_k / (a_k - z_k) over
    z_1 < ... < z_k, for k = 1 .. r, with a_1 = poles[0].

    ``panels`` chains the path as :func:`segment` and :func:`arc` panels
    in order of travel; each is sampled at the n + 1 Chebyshev-Lobatto
    nodes.  On each panel, level k is the cumulative integral of level
    k - 1 times the k-th kernel, offset by the running total of level k
    over the previous panels, so only one panel's samples are held at a
    time; the last level needs only its total, the Clenshaw-Curtis row.
    The running totals start at zero, or at ``start``: the values F_k at
    the path's start for k = 1 .. len(start), one-entry vectors as
    :func:`endpoint_series` gives them, so that the levels continue
    integrals begun before the path (Chen's identity).

    Everything between the kernels and the result is block fixed point
    (see the module docstring): each kernel dz / (a - z) is formed once
    per panel and distinct letter (:func:`_kernel`), by integer divisions
    at the nodes, and level 1 integrated once per panel and letter too
    (:func:`_first_level`); the level products, the folded matrix apply
    and the running totals are exact integer arithmetic followed by a
    shift back to prec + GUARD bits at one shared exponent per vector.
    Those shifts, the kernel divisions and the final conversion of the
    totals to the working precision are the only roundings.  The results
    are real when every panel, letter and start value is.
    """
    depth = len(poles)
    _work.add(("iterated_levels", len(panels), n))
    prec = mpmath.mp.prec
    bits = prec + GUARD
    folded = _folded(n, prec)
    letters = list(map(_complex_tuple, poles))
    totals = list(start) + [(([0],), 0)] * (depth - len(start))
    for panel in panels:
        for k, a in enumerate(letters):
            full = k + 1 < depth
            if k == 0:
                cumulative, exp = _first_level(panel, a, n, bits, full)
            else:
                parts, exp = _product(level, _kernel(panel, a, n, bits),
                                      bits)
                exp -= bits + 1
                cumulative = [_cumulate(folded, p) if full
                              else [_total(folded[0], p)] for p in parts]
            if full:
                level = _plus((cumulative, exp), totals[k], bits)
            # the last entry of each part is the panel's total
            totals[k] = _plus((tuple([p[-1]] for p in cumulative), exp),
                              totals[k], bits)
    return [_values(parts, exp, prec)[0] for parts, exp in totals]


# -- the panel bound ---------------------------------------------------------

# the Bernstein parameters a panel's bound tries, 1 + t (top - 1) for each t,
# where top is the least parameter of a kernel pole, at most _RHO_CAP
_RHO_STEPS = tuple(1 - 2.0 ** -k for k in range(1, 9))
_RHO_CAP = 64.0
# the largest degree panel_bound tries
MAX_DEGREE = 4096
# the relative margin of the bound's double-precision arithmetic
_FLOAT_MARGIN = 1 + 2.0 ** -30


@lru_cache(maxsize=16)
def _row_sum(n: int, prec: int) -> float:
    """The largest row sum of |M|, M the integration matrix as
    :func:`_cumulate` applies it (folded rows, reflected rows and the
    weights row), rounded up to a double.

    One pass over the folded rows: with (e, o) a folded pair of entries of
    row i, |M[i][j]| + |M[i][n-j]| = max(|e|, |o|), and row n - i folds to
    (W'_j - e, o), W' the folded weights row; the middle entry of an even
    n is 2 M[i][n/2] in e and has no o.  The sums below are twice the row
    sums."""
    last, pairs = _folded(n, prec)
    middle = None if n % 2 else n // 2
    weights = list(map(abs, last))
    top = 2 * sum(weights) - (0 if middle is None else weights[middle])
    for even, odd in pairs:
        y = list(map(abs, odd))
        row = 2 * sum(map(max, map(abs, even), y))
        mirror = 2 * sum(map(max, map(abs, map(sub, last, even)), y))
        if middle is not None:
            row += abs(even[middle])
            mirror += abs(last[middle] - even[middle])
        top = max(top, row, mirror)
    drop = max(0, top.bit_length() - 60)
    return math.ldexp((top >> drop) + 1, drop - (prec + GUARD + 1)) \
        * _FLOAT_MARGIN


@lru_cache(maxsize=256)
def _letter(panel, key: bytes, p: int):
    """``panel.letter(a, p)`` once per (panel, letter, precision), shared
    by every word on that panel, for the double letter a packed as its 16
    bytes: a key that tells 0.0 from -0.0, as == does not."""
    return panel.letter(complex(*struct.unpack("<2d", key)), p)


def _magnitude(vector) -> float:
    """An upper bound of the modulus of a one-entry vector, as a double;
    mantissas too long for a double are rounded up to about 60 bits."""
    parts, exp = vector
    try:
        size = math.hypot(*(p[0] for p in parts))
    except OverflowError:
        drop = max(abs(p[0]) for p in parts).bit_length() - 60
        size = math.hypot(*((abs(p[0]) >> drop) + 1 for p in parts))
        exp += drop
    return math.ldexp(size, exp) * _FLOAT_MARGIN


@_work.timing("panel_bound_s")
def panel_bound(poles, panels, weights, prec: int, start=()):
    """(n, panel, rounding): the least rung n of the degree search at
    which the proved panel term of :func:`iterated_levels` over these
    panels, from these start values, at the working precision, is within
    a quarter unit 2^-(prec + 2); that term and the proved rounding term,
    as mpf.

    Both terms bound the sum over the levels k = 1 .. r of weights[k - 1]
    times the distance of the computed F_k from the exact iterated
    integral from the same start values along the path the panels mean,
    so the weights bound what the caller multiplies each level by.  See
    "Panel bound" in the module docstring for the proof and the search.
    """
    depth = len(poles)
    p = mpmath.mp.prec
    # every absolute term is carried in units of the target 2^-(prec + 2),
    # in which 2^-p is ``tiny``, and ``shift`` is the log of 2^(prec + 2)
    tiny = 2.0 ** (prec + 2 - p)
    shift = (prec + 2) * math.log(2)
    letters, slots = [], []
    for a in map(complex, poles):
        if a not in letters:
            letters.append(a)
        slots.append(letters.index(a))
    # majorants of |F_k| at the start of the next panel, F_0 = 1
    start_bound = [1.0] + [_magnitude(v) for v in start] \
        + [0.0] * (depth - len(start))

    def jumps(point, gap):
        """Across a gap of gap 2^-p at ``point``, the exact F_k change by
        at most gap 2^-p |F_(k-1)| / |a_k - z| on the gap, in units of the
        target; the majorants grow by as much."""
        out, below = [0.0] * (depth + 1), 1.0
        width = math.ldexp(gap, -p)
        for k, s in enumerate(slots, 1):
            room = abs(letters[s] - point) / _FLOAT_MARGIN - width
            if not room > 0:
                raise ValueError("a letter lies on the path")
            out[k] = gap * tiny * below / room
            start_bound[k] += math.ldexp(out[k], -prec - 2) * _FLOAT_MARGIN
            below = start_bound[k]
        return out

    shapes, slack, least = [], 0.0, 4
    for panel in panels:
        first, last = panel.ends()
        # the gap between the previous panel's end, or the path's start,
        # and this panel's start, each within its slack of the point meant
        gap, slack = slack + panel.slack(), panel.slack()
        across = jumps(first, gap)
        data = [_letter(panel, struct.pack("<2d", a.real, a.imag), p)
                for a in letters]
        kappa = [data[s][1] for s in slots]
        eta = [data[s][3] for s in slots]
        # majorants of |F_k| on the panel itself
        on_path = [1.0]
        for k, s in enumerate(slots):
            on_path.append(start_bound[k + 1] + on_path[k] * data[s][2])
        top = min(min(d[0] for d in data), _RHO_CAP)
        # per level k, its term's pairs: per Bernstein parameter rho, the
        # log of 2 M_k / (rho - 1) in units of the target, M_k the
        # majorant of the k-th integrand on E_rho, and log rho
        rhos = [1 + (top - 1) * t for t in _RHO_STEPS]
        columns = [d[4](rhos) for d in data]
        # majorants of |F_k| on E_rho, carried out from E_1 = [-1, 1]
        # along the rays J(r e^(i theta)), r = 1 .. rho, with the step
        # from one rho to the next at its upper end
        grid, levels, inner = [[] for _ in slots], on_path, 1.0
        for i, rho in enumerate(rhos):
            stretch = (rho - inner) * (1 + inner ** -2) / 2
            outer, lr = [1.0], math.log(rho)
            for k, s in enumerate(slots):
                m = outer[k] * columns[s][i]
                grid[k].append((math.log(2 * m / (rho - 1)) + shift, lr))
                outer.append(levels[k + 1] + stretch * m)
            levels, inner = outer, rho
        # the least n at which the largest term's rho^-n alone is 1
        least = max([least] + [math.ceil(min(c / lr for c, lr in pairs))
                               for pairs in grid])
        shapes.append((across, kappa, eta, on_path,
                       [(pairs, math.log(rhos[0])) for pairs in grid]))
        start_bound = on_path[:]
    tail = jumps(last, slack)

    def bound(n, kind, norm):
        # a term past the range of a double fails
        _work.add(("bound_passes", kind))
        try:
            return _forward(shapes, tail, n, p, weights, tiny, norm)
        except OverflowError:
            return math.inf, math.inf

    n, down = _rung(least), False
    while n > 4 and bound(_below(n), "screen", 2.0)[0] <= 1:
        n, down = _below(n), True
    # a rung stepped down to has just passed the screen
    while not down and n <= MAX_DEGREE and bound(n, "screen", 2.0)[0] > 1:
        n = _rung(n + 1)
    if n > MAX_DEGREE:
        raise ValueError("no spectral degree up to MAX_DEGREE meets the "
                         "target")
    while True:
        panel, rounding = bound(n, "check", _row_sum(n, p))
        if panel <= 1 or n >= MAX_DEGREE:
            return (n, mpmath.ldexp(panel, -prec - 2),
                    mpmath.ldexp(rounding, -prec - 2))
        n = _rung(n + 1)


def _rung(n: int) -> int:
    """The least degree of the form 2^k or 3 2^(k - 1) at or above n."""
    power = 1 << max(0, (n - 1).bit_length() - 1)
    return power * 3 // 2 if n <= power * 3 // 2 else 2 * power


def _below(n: int) -> int:
    """The rung below the rung n > 4: _rung(_below(n) + 1) == n."""
    power = 1 << (n.bit_length() - 1)
    return power * 3 // 4 if n == power else power


# the factors of the tail bound before rho^-n: a panel's total (the
# quadrature, kind 0) and its node values (the cumulative integral, kind 1)
_TAILS = (lambda n: 10 / (n * n - 4), lambda n: 6 / (n - 2))


def _term(line, kind, n):
    """The tail bound (2 M / (rho - 1)) rho^-n (f(n) + 3 rho^-(n // 2))
    at the best rho of a level's (pairs, least log rho), f of its kind,
    n >= 4."""
    pairs, slowest = line
    return math.exp(min(c - n * lr for c, lr in pairs)) \
        * (_TAILS[kind](n) + 3 * math.exp(-(n // 2) * slowest))


def rounded_up(x, prec: int):
    """x, a sum of a few nonnegative terms formed at the working
    precision p, grown by 2^(4 - p) for the roundings of that sum and
    rounded up to ``prec`` bits."""
    p = mpmath.mp.prec
    grow = mpf_add(fone, mpf_shift(fone, 4 - p), p + 8)
    return mpmath.mpf(mpf_mul(x._mpf_, grow, prec, round_ceiling))


def _forward(shapes, tail, n, p, weights, tiny, norm):
    """The weighted panel and rounding terms of :func:`panel_bound` at
    degree n and largest row sum ``norm``, in units of its target, carried
    panel by panel and level by level: per level, P bounds the panel term
    and R the rounding term of the running total, and on each panel
    ``nodes`` bounds the error of the node values, which feed the next
    level."""
    depth = len(weights)
    relative = 2.0 ** -p
    unit = 2.0 ** -GUARD * tiny
    P = [0.0] * (depth + 1)
    R = [0.0] * (depth + 1)
    for across, kappa, eta, on_path, lines in shapes:
        nodes = [(0.0, 0.0)] * (depth + 1)
        for k in range(1, depth + 1):
            R[k] += across[k]
            K, below = kappa[k - 1], on_path[k - 1]
            e, spread = eta[k - 1] * tiny, K + eta[k - 1] * relative
            size = below * K
            # the integrand's samples, within dp + dr of the exact ones
            if k == 1:
                dp, dr = 0.0, e
            else:
                np_, nr = nodes[k - 1]
                dp = np_ * spread
                dr = nr * spread + below * e
                dr += 2 * unit * size + 2 * relative * (dp + dr)
            # the matrix entries, and one normalisation of the result
            dr = norm * dr + 2 * (n + 1) * unit * size \
                + 2 * unit * on_path[k]
            if k < depth:
                cum = P[k] + norm * dp + _term(lines[k - 1], 1, n)
                nodes[k] = (cum, (R[k] + dr + 2 * relative * cum)
                            / (1 - 2 * relative))
            P[k] += norm * dp + _term(lines[k - 1], 0, n)
            R[k] = (R[k] + dr + 2 * relative * P[k]) / (1 - 2 * relative)
    end = shapes[-1][3]
    for k in range(1, depth + 1):
        R[k] = (R[k] + tail[k] + 2 * tiny * end[k]
                + 2 * relative * (P[k] + R[k])) / (1 - 2 * relative)
    return (sum(w * x for w, x in zip(weights, P[1:])) * _FLOAT_MARGIN,
            sum(w * x for w, x in zip(weights, R[1:])) * _FLOAT_MARGIN)


# -- endpoint series ---------------------------------------------------------


def endpoint_series(poles, h_exp: int):
    """The prefix integrals F_k(h) = integral of dz_1 / (a_1 - z_1) ...
    dz_k / (a_k - z_k) over 0 < z_1 < ... < z_k < h, for k = 0 .. l and
    h = 2^-h_exp, summed as Taylor series at 0 in integer fixed point.

    Returns (values, bound, terms): ``values[k]`` is F_k(h) as a one-entry
    block-fixed-point vector at the exponent -(prec + GUARD) (the form
    :func:`iterated_levels` takes as start values), ``bound`` an mpf
    bounding |values[k] - F_k(h)| for every k, and ``terms`` the N + 1
    coefficients kept per level.  The first letter must be nonzero, and
    h at most r / 4, where r is the least modulus of the nonzero letters.

    The series.  With the first letter nonzero each F_k is a power series
    at 0 without logarithms, F_0 = 1 and F_k(0) = 0 for k >= 1.  From
    F_k' = F_{k-1} / (a_k - z), the coefficients e_n = d_n h^n of
    F_k(z h) follow from those g_n of F_{k-1}(z h) in O(N):
    e_{n+1} = (h / a_k) (g_n + n e_n) / (n + 1) with e_0 = 0 for a_k != 0,
    and e_n = -g_n / n for a_k = 0.  F_k(h) is the sum of the e_n.

    Truncation.  Replacing each a != 0 by r and dropping the signs gives
    a majorant: nonnegative coefficients D_n >= |d_n| of the series Phi_k,
    Phi_0 = 1, where Phi_k(s) is the integral from 0 to s of
    Phi_{k-1}(x) dx / (r - x) for a_k != 0 and of Phi_{k-1}(x) dx / x for
    a_k = 0.  If Phi_{k-1}(s) <= A s^m on [0, rho], then Phi_k(s) is at
    most A s^(m+1) / ((m + 1) (r - rho)) for a_k != 0 and A s^m / m for
    a_k = 0.  At rho = r / 2 the factor rho / (r - rho) is 1, so
    Phi_k(r / 2) is at most 1 over a product of integers, at most 1.
    Then D_n (r / 2)^n <= 1, and with q = 2 h / r <= 1 / 2 the terms past
    N add at most the sum over n > N of q^n, q^(N+1) / (1 - q).  N is the
    least for which that is at most 2^-(prec + GUARD), one unit.  r is
    rounded down to a multiple of 2^-32, so q is rounded up.

    Rounding.  Every step rounds to the nearest unit u = 2^-(prec + GUARD)
    per real part, so within u in modulus, and so does h / a.  Let E_k be
    the sum over n <= N of |computed e_n - exact e_n| at level k, in
    units; the exact e_n for n <= N need only the exact g_n for n < N.
    For a_k = 0, E_k <= E_{k-1} + N.  For a_k != 0, |h / a_k| <= 1 / 4,
    and the error of h / a_k adds at most u |g_n + n e_n| / (n + 1),
    whose sum over n is at most Phi_{k-1}(h) + Phi_k(h) <= 2 (3 with the
    computed values); so E_k <= (E_{k-1} + E_k) / 4 + N + 3, and
    E_k <= E_{k-1} + 2 (N + 3).  Each level k is therefore within
    2 k (N + 3) units of its exact truncated series, and ``bound`` is
    2 l (N + 3) + 1 units, for a word of l letters.
    """
    prec = mpmath.mp.prec
    bits = prec + GUARD
    depth = len(poles)
    nonzero = [a for a in poles if a != 0]
    if not poles or poles[0] == 0:
        raise ValueError("the first letter must be nonzero")
    # r, rounded down to a multiple of 2^-32
    radius = min(int(mpmath.floor(mpmath.ldexp(abs(a), 32)))
                 for a in nonzero) - 1
    if radius << h_exp < 4 << 32:
        raise ValueError("h must be at most a quarter of the least letter")
    # q = num / den; the fewest N with 2^bits q^(N+1) <= 1 - q
    num, den = 2 << 32, radius << h_exp
    terms, top, bottom = 1, num << bits, den - num
    while top > bottom:
        terms += 1
        top *= num
        bottom *= den
    _work.add(("series_terms", terms))
    one = 1 << bits
    real = all(_complex_tuple(a)[1] == fzero for a in poles)
    lanes = ([one] + [0] * (terms - 1),)
    if not real:
        lanes += ([0] * terms,)
    values = [(tuple([sum(p)] for p in lanes), -bits)]
    for a in poles:
        if a == 0:
            # z F_k' = -F_{k-1}
            lanes = tuple([0] + [_round_div(-g, n)
                                 for n, g in enumerate(p[1:], 1)]
                          for p in lanes)
        else:
            # (a - z) F_k' = F_{k-1}, with h / a at scale 2^bits
            with mpmath.workprec(bits + 16):
                ratio = mpmath.ldexp(1, bits - h_exp) / a
                lr, li = (int(mpmath.nint(x)) for x in (mpmath.re(ratio),
                                                        mpmath.im(ratio)))
            if real:
                (g,) = lanes
                e, out = 0, [0]
                for n in range(terms - 1):
                    e = _round_div(lr * (g[n] + n * e), (n + 1) << bits)
                    out.append(e)
                lanes = (out,)
            else:
                gr, gi = lanes
                er = ei = 0
                re, im = [0], [0]
                for n in range(terms - 1):
                    sr, si = gr[n] + n * er, gi[n] + n * ei
                    scale = (n + 1) << bits
                    er = _round_div(lr * sr - li * si, scale)
                    ei = _round_div(lr * si + li * sr, scale)
                    re.append(er)
                    im.append(ei)
                lanes = (re, im)
        values.append((tuple([sum(p)] for p in lanes), -bits))
    return values, mpmath.ldexp(2 * depth * (terms + 2) + 1, -bits), terms
