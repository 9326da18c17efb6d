"""Lie 2-algebras by structure constants.

Finite-dimensional semistrict Lie 2-algebras over the rationals:
axiom validation, derivation Lie 2-algebras, automorphism 2-groups,
and the exponential maps connecting them.  All algebraic identities
are checked with exact rational arithmetic; truncated floating-point
series are used only for non-terminating exponentials.
"""

from .linalg import Mat, AltTensor, ModeError, rat, rref, kernel_basis, mat_inverse, truncated_exp
from .core import (
    Lie2Algebra,
    Lie2Hom,
    ResidualReport,
    validate_lie2,
    validate_hom,
    compose_hom,
    hom_identity,
    make_string,
    make_skeletal,
    make_endo,
    killing_form,
    ce_coboundary,
)
from .derivations import (
    Derivation0,
    DerM1,
    DerLie2,
    is_derivation0,
    compute_der0_basis,
    dbar,
    graded_bracket,
    lie_cochain_action,
    build_der_lie2,
    adbar,
    inn0_basis,
    classify_derivation,
)
from .automorphisms import (
    Tau,
    Aut0,
    certify_aut0,
    star,
    tau_inverse,
    twist_hom,
    partial,
    act,
    check_crossed_module,
    semidirect_multiply,
    classify_automorphism,
    ad_conjugate,
)
from .integration import (
    ExpConfig,
    exp_der0,
    exp_derM1,
    check_one_parameter,
    check_commuting_square,
    recover_bracket,
    check_conjugation_identities,
)

__version__ = "0.1.0"
