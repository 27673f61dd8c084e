"""Exact-arithmetic toolkit for graded Lie algebras of polynomial vector
fields, their tensor modules, spanning certificates, Hilbert series, and
Chevalley-Eilenberg homology.

Everything is computed over Q with fractions.Fraction; no floating point is
used anywhere, so every certificate, rank, and dimension in this package is
exact.
"""

from .exact import Echelon, SparseMat, format_rat, parse_rat
from .liealg import (
    AlgebraDescriptor,
    VFBasis,
    basis_of_weight,
    basis_up_to_weight,
    bracket_basis,
    coordinate_e,
)
from .tensormod import (
    ModuleDescriptor,
    ModuleElement,
    WeightVector,
    act_e,
    decompose_coinduced,
    graded_dimension,
    weight_support,
    word_vectors,
)
from .spanning import (
    GeneratorSet,
    ResourceLimitError,
    SearchExhaustedError,
    dilated_generators,
    find_good_shift,
    graded_basis_certificate,
    shift_determinant,
    shift_determinant_value,
    spanning_certificate,
    spanning_generators,
)
from .pbw_hilbert import (
    PolyModulePresentation,
    RationalSeries,
    associated_graded_presentation,
    groebner_self_test,
    hilbert_series,
    module_groebner,
    partial_sum_polynomial,
)
from .homology import (
    ChainBasisElement,
    TensorCoefficients,
    TrivialCoefficients,
    boundary_matrix,
    chain_basis,
    homology_dim,
    homology_table,
    table_to_csv,
    table_to_json,
)
from .specht import (
    TSpace,
    closure_basis,
    tspace_series,
)

__version__ = "0.1.0"
