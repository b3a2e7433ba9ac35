"""Reference values computed apart from the package.

Closed forms are evaluated with mpmath at ``PREC`` bits, at least twice
the largest working precision the workloads use (80 bits), and the
stuffle and shuffle expansions are enumerated here from their
definitions.  Nothing here imports ``resurgence``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath

PREC = 192


def tau():
    return mpmath.mpc(0, 2) * mpmath.pi


# -- multiple zeta values ---------------------------------------------------------


def zeta_closed(s):
    """A closed form of the real multiple zeta value at index ``s``
    (outermost exponent first), or None when none is known here."""
    s = tuple(s)
    with mpmath.workprec(PREC):
        pi = +mpmath.pi
        if len(s) == 1:
            return +mpmath.zeta(s[0])
        if all(x == 2 for x in s):
            k = len(s)
            return pi ** (2 * k) / math.factorial(2 * k + 1)
        if all(x == 4 for x in s):
            n = len(s)
            return 2 ** (2 * n + 1) * pi ** (4 * n) / math.factorial(4 * n + 2)
        if len(s) % 2 == 0 and s == (3, 1) * (len(s) // 2):
            n = len(s) // 2
            return 2 * pi ** (4 * n) / math.factorial(4 * n + 2)
        if s[0] == 2 and all(x == 1 for x in s[1:]):
            return +mpmath.zeta(len(s) + 1)
    return None


def polylog_root(s: int, q: Fraction):
    """Li_s(exp(2 pi i q)) for rational q, the depth-1 coloured sum.

    s = 1 is -log(1 - e^(2 pi i q)); s >= 2 splits the sum over residues
    mod the denominator d into Hurwitz zeta values:
    d^-s * sum_{k=1..d} e^(2 pi i q k) zeta(s, k/d).
    """
    q = Fraction(q) % 1
    with mpmath.workprec(PREC):
        root = mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
        if s == 1:
            return -mpmath.log(1 - root)
        d = q.denominator
        total = mpmath.mpc(0)
        for k in range(1, d + 1):
            phase = mpmath.expjpi(2 * mpmath.mpf(q.numerator * k) / d)
            total += phase * mpmath.zeta(s, mpmath.mpf(k) / d)
        total = total / mpmath.mpf(d) ** s
        if q == 0 or 2 * q == 1:
            return total.real
        return total


def zeta_value(s, eps=None):
    """The value of an index when this module knows it, else None."""
    s = tuple(s)
    eps = tuple(Fraction(e) % 1 for e in eps) if eps else (Fraction(0),) * len(s)
    if all(e == 0 for e in eps):
        return zeta_closed(s)
    if len(s) == 1:
        return polylog_root(s[0], eps[0])
    return None


def _norm_index(s, eps):
    eps = tuple(Fraction(e) % 1 for e in eps) if eps else (Fraction(0),) * len(s)
    return tuple(int(x) for x in s), eps


def stuffle_terms(a, b) -> Counter:
    """Quasi-shuffle of the (s, eps) letter sequences: aligned letters may
    merge by adding exponents and colours."""
    la = list(zip(*_norm_index(*a)))
    lb = list(zip(*_norm_index(*b)))

    def rec(u, v):
        if not u:
            return Counter({tuple(v): 1})
        if not v:
            return Counter({tuple(u): 1})
        out = Counter()
        for rest, mult in rec(u[1:], v).items():
            out[(u[0],) + rest] += mult
        for rest, mult in rec(u, v[1:]).items():
            out[(v[0],) + rest] += mult
        merged = (u[0][0] + v[0][0], (u[0][1] + v[0][1]) % 1)
        for rest, mult in rec(u[1:], v[1:]).items():
            out[(merged,) + rest] += mult
        return out

    return Counter({(tuple(x[0] for x in w), tuple(x[1] for x in w)): m
                    for w, m in rec(la, lb).items()})


def _encode(s, eps):
    """Integral word of an index: innermost block first, each block a
    cumulative colour followed by s_j - 1 zeros (None)."""
    cumulative, running = [], Fraction(0)
    for e in eps:
        running = (running + e) % 1
        cumulative.append(running)
    word = []
    for j in range(len(s) - 1, -1, -1):
        word.append(cumulative[j])
        word.extend([None] * (s[j] - 1))
    return tuple(word)


def _decode(word):
    blocks = []
    for letter in word:
        if letter is not None:
            blocks.append([letter, 1])
        else:
            blocks[-1][1] += 1
    blocks.reverse()
    s = tuple(count for _, count in blocks)
    eps, previous = [], Fraction(0)
    for phase, _ in blocks:
        eps.append((phase - previous) % 1)
        previous = phase
    return s, tuple(eps)


def shuffle_terms(a, b) -> Counter:
    """Interleavings of the two integral words, decoded back to indices.

    The decoded indices do not depend on the sign convention of the
    colours, since encoding and decoding use the same one."""
    wa, wb = _encode(*_norm_index(*a)), _encode(*_norm_index(*b))

    def rec(u, v):
        if not u:
            return Counter({v: 1})
        if not v:
            return Counter({u: 1})
        out = Counter()
        for rest, mult in rec(u[1:], v).items():
            out[(u[0],) + rest] += mult
        for rest, mult in rec(u, v[1:]).items():
            out[(v[0],) + rest] += mult
        return out

    out = Counter()
    for word, mult in rec(wa, wb).items():
        out[_decode(word)] += mult
    return out


# -- one-sided mould values as contour integrals ------------------------------------


def L_closed(word):
    """L of a depth-2 integer word (a, b): 2 pi i times the integral of
    1/(zeta - a) from 0 to a + b, which picks up i*pi when the path
    detours around a; and (1, 1, 1) = (2 pi i)^3 / 6."""
    word = tuple(word)
    with mpmath.workprec(PREC):
        t = tau()
        if len(word) == 1:
            return t
        if len(word) == 2:
            a, b = word
            end = a + b
            detour = min(0, end) < a < max(0, end)
            inner = mpmath.log(mpmath.mpf(abs(b)) / abs(a))
            if detour:
                inner = inner + mpmath.mpc(0, 1) * mpmath.pi
            return t * inner
        if word == (1, 1, 1) or word == (2, 2, 2):
            return t ** 3 / 6
    raise KeyError(f"no closed form for L{word}")


# -- Laplace sums ---------------------------------------------------------------------


def mp_point(z):
    if isinstance(z, Fraction):
        return mpmath.mpf(z.numerator) / z.denominator
    return mpmath.mpmathify(z)


def stirling_sum(z):
    """loggamma(z) - (z - 1/2) log z + z - log(2 pi)/2."""
    with mpmath.workprec(PREC):
        z = mp_point(z)
        return (mpmath.loggamma(z) - (z - mpmath.mpf(1) / 2) * mpmath.log(z)
                + z - mpmath.log(2 * mpmath.pi) / 2)


def euler_sum(z):
    """e^z E_1(z), the Laplace sum of 1/(1 + zeta)."""
    with mpmath.workprec(PREC):
        z = mp_point(z)
        return mpmath.exp(z) * mpmath.e1(z)


def euler_jump(z):
    """2 pi i e^z: the residue at zeta = -1 swept by the two rays."""
    with mpmath.workprec(PREC):
        return tau() * mpmath.exp(mp_point(z))


def hankel_power(sigma, z):
    """z^(-sigma), the Hankel sum of the power kernel; 1 for the pole
    1/(2 pi i zeta)."""
    with mpmath.workprec(PREC):
        if sigma == "pole":
            return mpmath.mpf(1)
        s = mpmath.mpf(sigma.numerator) / sigma.denominator
        return mp_point(z) ** (-s)


# -- exact series and moulds ------------------------------------------------------


def euler_coefficients(n_max):
    """Euler's series sum (-1)^(n-1) (n-1)! z^-n: coefficient of z^-n."""
    return [Fraction(0)] + [Fraction((-1) ** (n - 1) * math.factorial(n - 1))
                            for n in range(1, n_max + 1)]


def bernoulli(n):
    """B_n as a Fraction (B_1 = -1/2), by the standard recurrence."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m))
                 / Fraction(m + 1))
    return b[n]


def stirling_coefficient(n):
    """Coefficient of z^-n in log Gamma(z) - (z - 1/2) log z + z
    - log(2 pi)/2: B_(n+1) / (n (n+1)) for odd n, 0 for even n."""
    if n % 2 == 0:
        return Fraction(0)
    return bernoulli(n + 1) / (n * (n + 1))


def depth_two_monomial(a, b, order):
    """Series coefficients (z^-n, n <= order) of the monomial whose Borel
    transform is log(1 - zeta/a) / (zeta - a - b): the Taylor coefficient
    t_k of zeta^k gives c_(k+1) = k! t_k."""
    a, s = Fraction(a), Fraction(a + b)
    log_part = [Fraction(0)] + [-1 / (k * a ** k) for k in range(1, order)]
    pole = [-1 / s ** (j + 1) for j in range(order)]
    taylor = [sum(log_part[i] * pole[k - i] for i in range(k + 1))
              for k in range(order)]
    return [Fraction(0)] + [math.factorial(k) * taylor[k]
                            for k in range(order)]


def exp_scale_entries(w, max_length):
    """exp_scale_mould(w) on the one-letter alphabet: w^r / r! on 1^r."""
    return {(1,) * r: Fraction(w) ** r / math.factorial(r)
            for r in range(max_length + 1)}


def evaluate_exact(terms):
    """Numeric value of an exact scalar given as {(tau, logs): (re, im)}:
    T -> 2 pi i and ln p -> log p."""
    with mpmath.workprec(PREC):
        total = mpmath.mpc(0)
        for (t, logs), (re, im) in terms.items():
            c = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                           mpmath.mpf(im.numerator) / im.denominator)
            c = c * tau() ** t
            for p, e in logs:
                c = c * mpmath.log(p) ** e
            total += c
        return total
