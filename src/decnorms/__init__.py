"""Norms of maps between finite-dimensional C*-algebras.

The package computes decomposable norms, completely bounded norms and the
min/max tensor norms they control, all through explicit semidefinite
programming with verifiable certificates.  See ``decnorms.cli`` for the
command-line entry point and ``decnorms.suite`` for the self-check corpus.
"""

__version__ = "0.1.0"

from decnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    abelian_algebra,
    element,
    element_norm,
    is_positive,
    matrix_algebra,
    unit,
    zero,
)
from decnorms.maps import (
    LinearMapRep,
    apply_map,
    choi,
    compose,
    identity_map,
    is_cp,
    tensor,
)
from decnorms.decomposable import (
    DecCertificate,
    dec_norm_linf,
    dec_norms,
    dec_upper_bound_factored,
    selfadjoint_dec_norms,
)
from decnorms.cbnorm import (
    CbAgreement,
    SeeSawResult,
    cb_norm_linf,
    evaluate_tensor_norm,
    seesaw_min_norm,
)
from decnorms.freetensor import (
    check_finite_rank_contractions,
    min_norm,
)
from decnorms.multdomain import (
    SubalgebraBasis,
    multiplicative_domain,
    verify_bimodularity,
)

__all__ = [
    "AlgebraShape",
    "AlgebraElement",
    "abelian_algebra",
    "element",
    "matrix_algebra",
    "unit",
    "zero",
    "element_norm",
    "is_positive",
    "LinearMapRep",
    "choi",
    "is_cp",
    "compose",
    "tensor",
    "apply_map",
    "identity_map",
    "DecCertificate",
    "dec_norm_linf",
    "dec_norms",
    "selfadjoint_dec_norms",
    "dec_upper_bound_factored",
    "SeeSawResult",
    "CbAgreement",
    "evaluate_tensor_norm",
    "seesaw_min_norm",
    "cb_norm_linf",
    "min_norm",
    "check_finite_rank_contractions",
    "SubalgebraBasis",
    "multiplicative_domain",
    "verify_bimodularity",
    "__version__",
]
