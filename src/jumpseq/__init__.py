"""jumpseq: exact generating sequences of rational valuations on
2-dimensional regular local rings, with blow-up simulation and
machine-checkable toroidal-structure certificates."""

from .errors import (
    DivisibilityError,
    InsufficientDepthError,
    InvalidSpecError,
    JumpseqError,
    ResourceLimitError,
)
from .fields import Fp, GroundField, QQ, prime_field
from .poly import BivarPoly, RatExpr, divmod_in_v, exact_divide
from .euclid import EuclidData, bezout, euclid_data
from .engine import (
    IndependentData,
    JumpingSequence,
    TExpansion,
    ValuationSpec,
    build_jumping_sequence,
    expand,
    extract_independent,
    residue,
    value,
    verify_generating_sequence,
    verify_minimality,
)
from .blowup import (
    Chart,
    initial_chart,
    monoidal_sequence,
    single_quadratic_transform,
    strict_transform,
)
from .extension import (
    DualSequences,
    LadderCertificate,
    MonomialExtension,
    ToroidalForm,
    build_dual_sequences,
    classify_toroidal_form,
    ladder,
)

__version__ = "0.1.0"
