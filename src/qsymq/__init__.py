"""Exact computer algebra for the quotient of Q[x1..xn] by the ideal of
constant-free quasi-symmetric polynomials: Dyck monomial basis, G-family
reductions with certificates, and independent Hilbert-series verification.
"""

_EXPORTS = {
    "combinat": ("ResourceLimitError", "ballot", "catalan", "composition_from_subset",
                 "descent_set", "dn_k", "enumerate_dyck", "is_dyck", "path_statistics",
                 "refinements", "shuffles", "vector_to_dyck_word"),
    "poly": ("Polynomial", "diff_pairing"),
    "qsym": ("f_product", "fundamental_qsym", "monomial_qsym"),
    "quotient": ("GBasis", "ReductionResult", "coordinates", "enumerate_transdiagonal",
                 "g_element", "is_member", "normal_form"),
    "oracle": ("HilbertSeries", "generating_function_check", "hilbert_series",
               "ideal_degree_rank", "quotient_dims", "row_space_member"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    """Import a public name from its submodule on first use (PEP 562), so that
    ``import qsymq`` loads no submodule."""
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # also binds it in this namespace
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
