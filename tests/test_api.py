"""The public API is pinned: a name leaves or joins hnnlab.__all__ only
together with this list."""

import hnnlab

PUBLIC_NAMES = [
    "AbelianStructure",
    "BallOracle",
    "BrittonForm",
    "CapExceeded",
    "CosetTable",
    "Dependent",
    "EllipticFinite",
    "EllipticInfinite",
    "Fsa",
    "GroupModel",
    "HnnGroup",
    "Hyperbolic",
    "Identity",
    "IndependentCertified",
    "IndependentUpTo",
    "Mat2",
    "MismatchedField",
    "NotHyperbolic",
    "NotInSubgroup",
    "NotUnimodular",
    "OracleDisagreement",
    "OutOfWindow",
    "Parabolic",
    "Presentation",
    "ProjMat",
    "QuadExt",
    "Quaternion",
    "StructureReport",
    "TransLength",
    "UnknownLetter",
    "VerificationReport",
    "WindowedLanguage",
    "abelianization",
    "classify",
    "dehn_reduce",
    "genus_from_index",
    "length_ratio_independent",
    "load_builtin_group",
    "parse_word",
    "phi",
    "phi_inverse",
    "render_word",
    "replay_fellow_witness",
    "ring_closure",
    "schreier_graph_arith",
    "smith_invariants",
    "standard_generators",
    "standard_oracles",
    "standard_order",
    "todd_coxeter",
    "translation_length",
]


def test_public_names_are_pinned():
    assert hnnlab.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(hnnlab, name) is not None
