"""Array codes over finite fields built from families of subspaces.

Columns of a codeword are vectors of width b; each column is governed by a
b-dim (or smaller) subspace of GF(q)^M, and a codeword is the evaluation of
one message vector against every column's subspace basis. The package
builds the standard families (all width-b subspaces, spreads, transversal
design blocks and their parallel classes), measures their distance,
locality, and availability exactly, and re-verifies every structural claim
from first principles.

All enumeration orders are deterministic: subspaces are kept in reduced
row echelon form and listed in ascending basis order, so runs are
reproducible byte for byte.
"""

from .errors import (
    AmbientMismatch,
    BadParams,
    DimensionMismatch,
    DimensionTooLarge,
    DivisionByZero,
    DuplicateBlock,
    Inconsistent,
    MixedDimensions,
    NoRecovery,
    NotDivisible,
    NotPrime,
    OrderTooLarge,
    OutOfRange,
    SubspaceCodeError,
    TooLarge,
)
from .gf import (
    ExtensionContext,
    FieldContext,
    extension_new,
    field_from_order,
    field_new,
    parse_field,
)
from .linalg import (
    Mat,
    Subspace,
    format_matrix,
    null_space,
    parse_matrix,
    solve,
    subspace_sum,
)
from .designs import (
    SpreadDesign,
    TransversalDesign,
    build_spread,
    build_std,
    enumerate_grassmannian,
    gaussian,
    gaussian_or_zero,
    steiner_parameters,
    verify_spread,
    verify_std,
)
from .arraycode import (
    ArrayCode,
    CodeReport,
    analyze_code,
    code_from_subspaces,
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    dual,
    dual_distance_by_supports,
    encode,
    format_bundle,
    is_mds,
    min_distance,
    parse_bundle,
    perfectness,
    read_bundle,
    weight,
    weight_distribution,
    write_bundle,
)
from .locality import (
    AvailabilityResult,
    LocalityProfile,
    PairingResult,
    RecoverySet,
    RepairResult,
    evaluate_recovery,
    grassmann_pairing,
    locality_profile,
    max_disjoint_packing,
    min_node_recovery,
    repair,
)
from .verification import (
    Check,
    VerificationSuite,
    run_verification,
    verify_all_subspaces,
    verify_blocks,
    verify_spread_code,
    verify_std_full,
    verify_std_par,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
