"""Exact computations around discriminating homomorphisms of free-group extensions.

Four layers: free-group word arithmetic (:mod:`~discrimlab.freewords`),
minimal discriminating complexity for Z^n (:mod:`~discrimlab.zdiscrim`),
extensions of centralizers with a decidable word problem
(:mod:`~discrimlab.eocgroup`) plus certified big-powers thresholds
(:mod:`~discrimlab.bigpowers`), and retraction complexity curves
(:mod:`~discrimlab.retraction`).  ``discrimlab`` on the command line
drives batch runs.
"""

__version__ = "0.1.0"

from .bigpowers import PaddedWordSpec, build_padded, certify, threshold
from .eocgroup import EocElement, EocGroup, load_group_spec
from .errors import (
    AscentExhausted,
    BudgetExceeded,
    CertificationError,
    DiscrimError,
    GroupSpecError,
    WordFormatError,
)
from .freewords import (
    Alphabet,
    Word,
    coset_strip,
    parse_word,
    power_membership,
)
from .retraction import (
    ChainResult,
    ComplexityRecord,
    ThetaSpec,
    apply_chain,
    apply_theta,
    complexity_curve,
    complexity_record,
    compose_chain,
    hom_complexity,
    minimal_discriminating_p,
    subtower,
)
from .zdiscrim import (
    BallSpec,
    ZnHom,
    lower_bound_value,
    minimal_complexity,
    theta,
)

__all__ = [
    "__version__",
    "Alphabet",
    "AscentExhausted",
    "BallSpec",
    "BudgetExceeded",
    "CertificationError",
    "ChainResult",
    "ComplexityRecord",
    "DiscrimError",
    "EocElement",
    "EocGroup",
    "GroupSpecError",
    "PaddedWordSpec",
    "ThetaSpec",
    "Word",
    "WordFormatError",
    "ZnHom",
    "apply_chain",
    "apply_theta",
    "build_padded",
    "certify",
    "complexity_curve",
    "complexity_record",
    "compose_chain",
    "coset_strip",
    "hom_complexity",
    "load_group_spec",
    "lower_bound_value",
    "minimal_complexity",
    "minimal_discriminating_p",
    "parse_word",
    "power_membership",
    "subtower",
    "theta",
    "threshold",
]
