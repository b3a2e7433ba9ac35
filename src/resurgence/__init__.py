"""Symbolic and numeric tools for simple resurgent series.

The package has two layers that check each other:

* an exact layer (moulds over finite alphabets, a free algebra of alien
  operators, truncated inverse-power series, representable Borel transforms
  with branch tracking, hyperlogarithmic monomials, multizeta moulds), built
  on the coefficient ring Q(i)[2*pi*i, (2*pi*i)^-1][ln 2, ln 3, ...];
* a numeric layer (Borel-Laplace summation along rays, lateral jumps, Hankel
  contours, iterated-integral evaluation) built on mpmath, used to verify the
  exact layer's predictions at tight tolerances.

The flat namespace re-exports the working vocabulary; each submodule's
docstring explains its corner of the theory.  It is lazy (PEP 562): a
name is imported from its submodule the first time it is read, so
``import resurgence`` loads no submodule, and mpmath only comes in with
the numeric layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the names the flat namespace takes from it
_EXPORTS = {
    "alien": """ResurgentSeries Transseries alien_derivation alien_exp
        alien_minus alien_plus euler_resurgent lateral_operator
        stirling_resurgent""",
    "borelfun": """BorelFunction DilogBF LogPoleBF PathSpec PowerBF
        RationalBF RationalFunction SingularityData StirlingBF continue_eval
        convolve dilog_minor euler_minor extract_singularity power_minor
        stirling_minor""",
    "errors": """CarrierEscapeError DecayMarginError DivergentIndexError
        NotSimpleError RayBlockedError ResonanceError ResurgenceError
        TruncationError UnreachableBranchError UnsupportedDivisionError""",
    "freealg": """Derivation FreeElement Polynomial apply_element lie_expand
        mould_expand stokes_components""",
    "hyperlog": """IteratedIntegral L_numeric MonomialFamily build_U default_U
        extract_L extract_V gu_mould gu_resurgent v_borel v_mould
        v_resurgent v_series""",
    "laplace": """AsymptoticsReport LateralPair PadeApproximant RaySpec
        SummationResult hankel_laplace laplace_ray lateral_jump pade_minor
        verify_asymptotics""",
    "moulds": """Mould comp_inverse exp_scale_mould identity_mould
        is_alternal is_alternel is_symmetral is_symmetrel mould_exp
        mould_from_json mould_log mould_to_json passage_mould unit_mould""",
    "mzv": """Evaluation MzvIndex RelationReport WaWord stuffle_product
        verify_relation wa_eval ze_eval ze_to_wa""",
    "scalars": "ExactScalar GaussianRational parse_scalar",
    "series": """BorelSeries FormalSeries borel cauchy_product euler_series
        gevrey_bound group_inverse inverse_borel predict_coefficients
        stirling_series substitute""",
    "words": "Alphabet Word shuffle stuffle",
}
# name -> the submodule it is read from
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    # bound once, so later reads skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
