"""Exact computer algebra for the quotient of Q[x1..xn] by the ideal of
constant-free quasi-symmetric polynomials: Dyck monomial basis, G-family
reductions with certificates, and independent Hilbert-series verification.
"""

from .combinat import (
    ResourceLimitError,
    ballot,
    catalan,
    composition_from_subset,
    descent_set,
    dn_k,
    enumerate_dyck,
    is_dyck,
    path_statistics,
    refinements,
    shuffles,
    vector_to_dyck_word,
)
from .poly import Polynomial, diff_pairing
from .qsym import (
    f_product,
    fundamental_qsym,
    monomial_qsym,
)
from .quotient import (
    GBasis,
    ReductionResult,
    coordinates,
    enumerate_transdiagonal,
    g_element,
    is_member,
    normal_form,
)
from .oracle import (
    HilbertSeries,
    generating_function_check,
    hilbert_series,
    ideal_degree_rank,
    quotient_dims,
    row_space_member,
)

__all__ = [name for name in dir() if not name.startswith("_")]
