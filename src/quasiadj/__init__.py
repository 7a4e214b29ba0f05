"""Exact invariants of isolated non-normal-crossing hypersurface singularities.

Everything is computed over exact rational and cyclotomic arithmetic from an
embedded-resolution description: faces of quasiadjunction and ideal
membership, principal components of the character torus, homology ranks of
abelian covers, Milnor fiber monodromy, and an independent chain-complex
oracle used to cross-validate the component predictions.
"""

from .charvariety import (
    CharacterPoint,
    EssentialityReport,
    PrincipalComponent,
    TranslatedSubtorus,
    classify_essential,
    exp_face,
    make_subtorus,
    polynomial_invariant,
    principal_components,
    principal_f,
    project_subtorus,
    subtorus_contains,
    torsion_characters,
)
from .covers import (
    ORACLE,
    PRINCIPAL,
    BettiTable,
    MilnorTable,
    betti_tables,
    milnor_fiber,
)
from .cyclotomic import CyclotomicField, LaurentPoly, cyclotomic_polynomial, matrix_rank
from .koszul import (
    ComplexSpec,
    composition_is_zero,
    cone_support,
    homology_ranks_at,
    on_support,
    oracle_f,
    truncated_koszul,
)
from .quasiadjunction import (
    FaceOfQuasiadjunction,
    LogCanonicalBoundary,
    MembershipVerdict,
    faces_of_quasiadjunction,
    lct_face,
    membership,
    multiplier_ideal_membership,
)
from .resolution import (
    ConeFamily,
    ExceptionalComponent,
    GermBasisElement,
    QuasiArray,
    ResolutionData,
    ResolutionError,
    cone_over,
    generic_arrangement,
    load_resolution,
    serialize_resolution,
    validate_resolution,
)

__all__ = [
    "BettiTable",
    "CharacterPoint",
    "ComplexSpec",
    "ConeFamily",
    "CyclotomicField",
    "EssentialityReport",
    "ExceptionalComponent",
    "FaceOfQuasiadjunction",
    "GermBasisElement",
    "LaurentPoly",
    "LogCanonicalBoundary",
    "MembershipVerdict",
    "MilnorTable",
    "ORACLE",
    "PRINCIPAL",
    "PrincipalComponent",
    "QuasiArray",
    "ResolutionData",
    "ResolutionError",
    "TranslatedSubtorus",
    "betti_tables",
    "classify_essential",
    "composition_is_zero",
    "cone_over",
    "cone_support",
    "cyclotomic_polynomial",
    "exp_face",
    "faces_of_quasiadjunction",
    "generic_arrangement",
    "homology_ranks_at",
    "lct_face",
    "load_resolution",
    "make_subtorus",
    "matrix_rank",
    "membership",
    "milnor_fiber",
    "multiplier_ideal_membership",
    "on_support",
    "oracle_f",
    "polynomial_invariant",
    "principal_components",
    "principal_f",
    "project_subtorus",
    "serialize_resolution",
    "subtorus_contains",
    "torsion_characters",
    "truncated_koszul",
    "validate_resolution",
]
