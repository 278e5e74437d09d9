"""Exact enumeration of lattice-path classes constrained by the maximal
height of a pattern, with cross-verified generating functions."""

from .paths import (
    DYCK,
    MOTZKIN,
    SKEW_DYCK,
    SKEW_MOTZKIN,
    FAMILIES,
    Family,
    Path,
    Pattern,
    FirstReturn,
    first_return_decompose,
    height,
    pattern_height,
    reversed_complement,
    validate,
)
from .series import (
    DivisionByNonUnit,
    NonSquareConstantTerm,
    Series,
    SeriesError,
    div,
    moebius,
    rational,
    sqrt,
)
from .grammar import base_series, precompute_base
from .enumerate import (
    BudgetExceeded,
    ClassCountTable,
    count_class,
    generate_paths,
    is_member,
    member_paths,
)
from .gf import (
    ClassGF,
    ConsistencyFailure,
    MoebiusCoeffs,
    NoConvergence,
    NonUnitLinearCoefficient,
    SystemSpec,
    class_gf,
    dyck_closed_form,
    iterate_system,
    residual,
    skew_closed_form,
    solve_quadratic,
    system_for,
    moebius_coeffs,
)
from .bijection import DomainError, phi, verify_reversed_complement_symmetry

__version__ = "0.1.0"
