"""freeprob: Brown measures, free multiplicative transforms, and
transitivity diagnostics for matrix algebras, cross-checked against a
seeded random-matrix oracle."""

from .errors import (
    DimensionMismatchError,
    DiracInputError,
    DomainError,
    EigensolveError,
    FreeprobError,
    InternalInconsistencyError,
    MeasureFormatError,
    SentinelError,
    WordSpecError,
)
from .measures import (
    ScalarMeasure,
    chi_inverse,
    chi_vector,
    moment,
    psi_transform,
    s_transform,
)
from .rdiagonal import (
    OperatorTag,
    RadialPlanarMeasure,
    brown_rdiagonal,
    catalog_brown,
    pullback_radii,
)
from .matmodel import (
    FreeGroupModel,
    MatrixModel,
    build_free_group,
    build_m2_free_m2,
    exact_identity_residuals,
    ks_distance,
    realize,
    spectrum,
)
from .brownfield import (
    BrownField,
    GridSpec,
    brown_laplacian,
    default_epsilon,
    logdet_field,
    mass_in_region,
)
from .algstruct import (
    SubspaceReport,
    close_algebra,
    commutant,
    find_invariant_subspace,
    kfold_transitive,
    radical,
)
from .matio import load_matrix, save_matrix

__version__ = "0.1.0"
