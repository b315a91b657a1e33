"""Norms of maps between finite-dimensional C*-algebras.

The package computes decomposable norms, completely bounded norms and the
min/max tensor norms they control, all through explicit semidefinite
programming with verifiable certificates.  See ``decnorms.cli`` for the
command-line entry point and ``decnorms.suite`` for the self-check corpus.
"""

import os as _os

__version__ = "0.1.0"

# Thread count for the underlying BLAS, read before numpy loads it.
_threads = _os.environ.get("DECNORMS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

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
    star_map,
    tensor,
)
from decnorms.decomposable import (
    DecCertificate,
    dec_norm_direct_sum,
    dec_norm_linf,
    dec_norm_matrix_domain,
    dec_upper_bound_factored,
    selfadjoint_dec_norm,
)
from decnorms.cbnorm import (
    CbAgreement,
    SeeSawResult,
    cb_norm_linf,
    evaluate_tensor_norm,
    seesaw_min_norm,
)
from decnorms.freetensor import (
    FreeTensor,
    check_finite_rank_contraction,
    free_tensor,
    max_norm,
    min_norm,
    nuclearity_gap,
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
    "star_map",
    "compose",
    "tensor",
    "apply_map",
    "identity_map",
    "DecCertificate",
    "dec_norm_linf",
    "dec_norm_matrix_domain",
    "dec_norm_direct_sum",
    "selfadjoint_dec_norm",
    "dec_upper_bound_factored",
    "SeeSawResult",
    "CbAgreement",
    "evaluate_tensor_norm",
    "seesaw_min_norm",
    "cb_norm_linf",
    "FreeTensor",
    "free_tensor",
    "max_norm",
    "min_norm",
    "nuclearity_gap",
    "check_finite_rank_contraction",
    "SubalgebraBasis",
    "multiplicative_domain",
    "verify_bimodularity",
    "__version__",
]
