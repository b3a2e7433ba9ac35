"""Work counts of the numeric layer, added where the work is done.

    with _work.counting() as counts:
        ze_eval(MzvIndex((2, 1)))
    counts["tail_levels"]

:func:`counting` opens a scope and yields its :class:`collections.Counter`,
which gets every count added in its thread or task until it closes.  A
nested scope starts empty, and the enclosing one resumes when it closes.
With no scope open, :func:`add` costs one context-variable lookup and
:func:`timing` reads no clock.  Cached functions count only on a miss.

A key is a string, or a tuple of a name and the integers it is counted
per.  In ``_chebyshev``: ``("cumulate", n)`` and ``("total", n)``, the
applications of the folded integration matrix (``_cumulate``) and of its
weights row alone (``_total``) to one real part of n + 1 samples, and
``("madds", n)`` their integer multiply-adds; ``("cos_pi", n, bits)``,
the libmp cosines of ``_quarter``; ``("entries", n, prec)``, the matrix
entries ``_matrix`` builds, and ``("matrix_s", n, prec)`` the seconds of
those builds; ``("iterated_levels", panels, n)``, the runs of
``iterated_levels``; ``("series_terms", terms)``, the calls of
``endpoint_series`` that keep that many terms per level.  In ``mzv`` and
``hyperlog``: ``("terms", n, panels, panel, series, rounding, unit)``,
per ``wa_eval`` and ``L_numeric`` call that integrates, the degree
``panel_bound`` picked, the panels, and the four terms of the reported
error as doubles (``series`` is 0 for ``L_numeric``).

``"exp"``, ``"cos_sin"`` and ``"log"``: libmp calls, counted per vector
by the ray kernel at its nodes ``_chebyshev._node_exponentials``, the
unit points ``_chebyshev._unit_points``, the circle kernel
``laplace._circle_kernel``, the power lanes ``borelfun._log_nodes`` and
``borelfun._power_nodes``, the ``StirlingBF`` panel sampler and
``Contour.points``, and per panel by the ``PowerBF`` panel sampler, for
its scalar mid^(sigma - 1) or e^(i (sigma - 1) mid); ``"squared"``, the
ray kernels ``_chebyshev._exponentials`` builds by squaring the kernel
of half the width.

``"tail_bounds"``: tail bounds evaluated by ``laplace._choose_truncation``,
and ``"truncation_s"`` the seconds of its walks; ``"gammainc"``:
``mpmath.gammainc`` calls of ``borelfun._moment_integral``, at integer
orders, ``"gammainc_s"`` their seconds, and ``"closed_form"`` the moments
it bounds in closed form.  In ``mzv``: ``("cutoff", N)``, the prefix sums
(``_prefix_sums``) up to N, one per ``ze_eval`` call, at the cutoff its
ladder chose, and ``"prefix_terms"`` their terms, depth times N;
``("remainder", N, P, predicted, reported)``, per ``ze_eval`` call, that
cutoff and the tails' remainder there in units 2^-P, predicted before
the prefix sums (``_choose_cutoff``) and reported after them;
``"tail_levels"``, the levels whose coefficients the tail engine built
(``_sum_level``), once per number of tail terms a call tried.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

_scope: ContextVar[Counter | None] = ContextVar("resurgence_work",
                                                default=None)


def add(key, k=1):
    """Add k to ``key`` in the open scope; nothing when none is open."""
    counts = _scope.get()
    if counts is not None:
        counts[key] += k


@contextmanager
def counting():
    """A scope of its own: yields the Counter that every count added until
    it closes goes to."""
    counts = Counter()
    token = _scope.set(counts)
    try:
        yield counts
    finally:
        _scope.reset(token)


@contextmanager
def timing(key):
    """Add the seconds of the block, or of each call of the function it
    decorates, to ``key`` in the open scope."""
    counts = _scope.get()
    if counts is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        counts[key] += time.perf_counter() - start
