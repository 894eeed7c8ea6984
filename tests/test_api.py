"""The package's public names: the exact list, and that each resolves."""

import discrimlab

PUBLIC_API = [
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
    "__version__",
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


def test_public_names_pinned():
    assert sorted(discrimlab.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in discrimlab.__all__:
        assert hasattr(discrimlab, name), name
