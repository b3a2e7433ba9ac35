"""Error taxonomy shared across the package.

Every error that reflects a mathematical obstruction (rather than a plain
usage mistake) derives from :class:`ResurgenceError` and carries a short
machine-readable ``code`` plus a ``details`` dict, so the command line tool
can emit structured error objects and map them to exit status 2.

It also holds the precision floor MIN_PREC and its check, and the default
node cap MAX_NODES of the Laplace sums, which the numeric layer and the
command line share: the command line reads them here without loading a
numeric layer.
"""

from __future__ import annotations

# The precision floor, in bits, of every numeric evaluator that reports a
# certified error: the default error targets (1e-12 for ray sums, 1e-10
# for nested sums) need double precision, and below it the reported
# errors would describe meaningless values.
MIN_PREC = 53

# The default cap on the integrand evaluations of one Laplace sum (ray,
# lateral jump, Hankel contour, asymptotics check) and of ``sum
# --max-nodes``: past it panels stop bisecting.
MAX_NODES = 4000


def check_prec(prec) -> None:
    """Refuse a working precision below MIN_PREC with a ValueError."""
    if prec < MIN_PREC:
        raise ValueError(f"precision {prec} is below the floor of "
                         f"{MIN_PREC} bits")


class ResurgenceError(Exception):
    """Base class for domain errors raised by this package."""

    code = "domain-error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self), "details": self.details}


class TruncationError(ResurgenceError):
    """A mould entry beyond the stored truncation length was requested."""

    code = "truncation"


class CarrierEscapeError(ResurgenceError):
    """A composition needs a letter (a sum of letters) outside the alphabet."""

    code = "carrier-escape"


class UnsupportedDivisionError(ResurgenceError):
    """Exact division was requested by a scalar that is not a monomial."""

    code = "unsupported-division"


class NotSimpleError(ResurgenceError):
    """A singularity turned out not to be simple (pole of order > 1, or a
    log-coefficient that is itself singular at the point)."""

    code = "not-simple"


class ResonanceError(ResurgenceError):
    """An accumulated letter sum vanished where an invertible one is needed."""

    code = "resonance"


class DivergentIndexError(ResurgenceError):
    """A nested sum or iterated integral was requested at a divergent index."""

    code = "divergent-index"


class UnreachableBranchError(ResurgenceError):
    """A continuation path is inconsistent with the function's singularities."""

    code = "unreachable-branch"


class RayBlockedError(ResurgenceError):
    """A Laplace ray passes too close to a singular point of the integrand."""

    code = "ray-blocked"


class DecayMarginError(ResurgenceError):
    """A Laplace integral was requested where the exponential kernel does
    not dominate the integrand's growth (non-positive decay margin)."""

    code = "decay-margin"
