"""hallforge: exact cohomological Hall algebra/module computations for quivers
with duality, and the resulting (orientifold) Donaldson-Thomas invariants.

Everything is computed in exact rational arithmetic: sparse multivariate
polynomials carry int/Fraction coefficients, and series live in truncated
Laurent rings in q^(1/2) with per-class validity windows.  Bases are Schur
labels, and every product is pushed by straightening (no rational
function); polynomials exist only for element products, expanded from
their labels, and JSON.
"""

from .coha import (
    CohaElement,
    dt_invariants,
    equivariant_dt,
    primitive_dims,
    s_involution,
    shuffle_mul,
)
from .cohm import (
    CohmElement,
    check_disjoint_union,
    check_freeness,
    check_module_relation,
    cohm_action,
    general_factorization_check,
    loop_factorization,
    ori_dt_invariants,
    witt_decompose,
)
from .errors import HallforgeError
from .finite_type import (
    build_typeA,
    dilog_identity_check,
    pbw_check_coha,
    pbw_check_cohm,
    thom_polynomial,
)
from .quiver import QuiverWithDuality, a1_tilde, a2_quiver, disjoint_double, loop_quiver, parse_quiver
from .series import (
    InvariantTable,
    QSeries,
    dt_series,
    invert_pochhammer_factorization,
    ori_dt_series,
    pochhammer_q2_product,
    qdilog,
    qpochhammer_inf,
    quantum_integer,
)

__version__ = "0.1.0"

__all__ = [
    "CohaElement",
    "CohmElement",
    "HallforgeError",
    "InvariantTable",
    "QSeries",
    "QuiverWithDuality",
    "a1_tilde",
    "a2_quiver",
    "build_typeA",
    "check_disjoint_union",
    "check_freeness",
    "check_module_relation",
    "cohm_action",
    "dilog_identity_check",
    "disjoint_double",
    "dt_invariants",
    "dt_series",
    "equivariant_dt",
    "general_factorization_check",
    "invert_pochhammer_factorization",
    "loop_factorization",
    "loop_quiver",
    "ori_dt_invariants",
    "ori_dt_series",
    "parse_quiver",
    "pbw_check_coha",
    "pbw_check_cohm",
    "pochhammer_q2_product",
    "primitive_dims",
    "qdilog",
    "qpochhammer_inf",
    "quantum_integer",
    "s_involution",
    "shuffle_mul",
    "thom_polynomial",
    "witt_decompose",
]
