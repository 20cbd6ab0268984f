"""Hermitian self-orthogonal MDS codes, hull dialing, and EAQEC parameters.

The package builds Hermitian self-orthogonal (generalized) Reed-Solomon
codes over GF(q^2), rescales coordinates to set the Hermitian hull
dimension of an equivalent code to any target in [0, k], and derives and
verifies the entanglement-assisted quantum code parameters that follow.
"""

from .errors import (
    BadDimensionError,
    BadFamilyParamsError,
    BadFieldError,
    BadGaloisIndexError,
    BadPermutationError,
    BadTargetError,
    CapExceededError,
    DuplicateEvalPointsError,
    HulldialError,
    MalformedCodeError,
    NoSuchElementError,
    NotADivisorError,
    NotPrimeError,
    NotSelfOrthogonalError,
    OddExtensionError,
    RankDeficientError,
    ShapeMismatchError,
    SmallFieldError,
    SpecMismatchError,
    TooLargeToEnumerateError,
    VerificationFailedError,
    ZeroMultiplierError,
)
from .field import Field, make_quadratic_field
from .matrix import (
    FieldMatrix,
    conj_transpose,
    matmul,
    null_space,
    rank,
    rref,
    standard_form,
)
from .code import (
    HullReport,
    LinearCode,
    dual_min_distance,
    hermitian_dual,
    hull,
    is_hermitian_self_orthogonal,
    is_mds,
    min_distance,
    permute,
    scale,
)
from .dial import (
    DialResult,
    arrange_p1_nonsingular,
    dial_galois_hull,
    dial_hull,
    reduce_hull,
)
from .grs import (
    GrsSpec,
    MultiplierProblem,
    MultiplierSearch,
    construct_family,
    full_field_rs,
    grs_generator,
    solve_multipliers,
    subgroup_eval_set,
    subgroup_union_eval_set,
    trace_nonzero_eval_set,
)
from .eaqec import (
    EaqecParams,
    Verdict,
    claim,
    eaqec_from_code,
    eaqec_from_dial,
    eaqec_sweep,
    enumerate_table1,
    verify_claim,
)

__version__ = "0.1.0"
