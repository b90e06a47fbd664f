"""Exact classification of focal locally compact groups.

Descriptors name groups from four symbolic families; the library computes
their classification invariants exactly, decides commability and
quasi-isometry with certified verdicts and witness chains, and verifies the
polyfinite-radical counterexample by exact function-field arithmetic.
"""

from .exactnum import (
    EQUAL,
    NOT_EQUAL,
    LogRatio,
    Undecided,
    canonical_value,
    common_power,
    compare_values,
    logratio_add_one,
    logratio_chain_mul,
    maxroot,
)
from .matexact import (
    MatQ,
    NonRationalSpectrumError,
    SpectralData,
    conjugate,
    is_contracting,
    mat_power,
    power_conjugacy,
    spectral_data,
)
from .focalmodel import (
    FT,
    Cantor,
    Composite,
    GAk,
    GroupType,
    HullNotImplementedError,
    INFINITE,
    Millefeuille,
    Sphere,
    Xi,
    boundary,
    canonical_form,
    classify_type,
    compute_invariants,
    focal_universal_hull,
    invariant_p0,
    invariant_q,
    invariant_s,
    invariant_varpi,
    is_special,
)
from .commengine import (
    No,
    UndecidedComparisonError,
    UndecidedVerdict,
    WitnessChain,
    Yes,
    commable,
    commable_within_focal,
    ft_index_oracle,
    pattern_catalog,
    quasi_isometric,
    validate_chain,
)

__version__ = "0.1.0"
