"""The public API is pinned: a name leaves or joins hnnlab.__all__ only
together with this list, and the public record types keep their value
semantics (the records of comb, hnn and biauto also their namedtuple
interface)."""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import hnnlab
from hnnlab.biauto import (
    FellowReport,
    FellowWitness,
    FiniteToOneReport,
    QuasiGeodesicReport,
    StructureReport,
    TauEstimate,
)
from hnnlab.comb import AbelianStructure, CosetTable, SchreierGraph
from hnnlab.hnn import BrittonForm, RelationCheck, VerificationReport
from hnnlab.isom import (
    Dependent,
    EllipticFinite,
    EllipticInfinite,
    Hyperbolic,
    Identity,
    IndependentCertified,
    IndependentUpTo,
    Parabolic,
    TransLength,
)

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


WITNESS = FellowWitness(u=(1,), v=(1, 2), shift="x", time=1, separation=2)
FINITE_TO_ONE = FiniteToOneReport(
    bound=1, witness_element=(0, 0), witness_words=((),), surjective=True,
    missing=(), window=3,
)
LENGTH = TransLength(
    rational_part=Fraction(3, 2), surd_coeff=Fraction(1, 2), field_param=5
)

RECORDS = [
    (BrittonForm, {"segments": ((1,), (-2,)), "exponents": (-5,)}),
    (RelationCheck, {"index": 1, "relator": "AdcbCaBD", "holds": False}),
    (
        VerificationReport,
        {
            "relations": (RelationCheck(index=0, relator="AdcbCaBD", holds=True),),
            "pair_memberships_ok": True,
            "source_index": 12,
            "target_index": 12,
            "mutants_detected": 27,
            "mutants_total": 27,
        },
    ),
    (
        CosetTable,
        {
            "generators": ("a",),
            "subgroup_names": ("h1",),
            "subgroup_words": ((1, 1),),
            "table": ((1, 1), (0, 0)),
            "decorations": (((), ()), ((1,), (-1,))),
            "representatives": ((), (1,)),
        },
    ),
    (SchreierGraph, {"table": ((1, 1), (0, 0)), "representatives": ((), (1,))}),
    (AbelianStructure, {"betti": 4, "torsion": (2,)}),
    (FellowWitness, WITNESS._asdict()),
    (
        FellowReport,
        {
            "pair_rule": "classical",
            "zeta": 2,
            "pairs_checked": 20,
            "witness": WITNESS,
            "window": 3,
            "cap": None,
        },
    ),
    (
        StructureReport,
        {
            "radius": 3,
            "finite_to_one": FINITE_TO_ONE,
            "fellow": FellowReport("classical", 2, 20, WITNESS, 3, 2),
            "quasigeodesic": QuasiGeodesicReport(Fraction(1), 0, 3),
        },
    ),
    (FiniteToOneReport, FINITE_TO_ONE._asdict()),
    (
        QuasiGeodesicReport,
        {"multiplicative": Fraction(3, 2), "additive": 2, "window": 4},
    ),
    (TauEstimate, {"value": Fraction(2), "stabilized": True, "norms": (2, 4, 6, 8)}),
    (
        TransLength,
        {
            "rational_part": Fraction(3, 2),
            "surd_coeff": Fraction(1, 2),
            "field_param": 5,
        },
    ),
    (EllipticFinite, {"order": 3}),
    (Hyperbolic, {"length": LENGTH}),
    (Dependent, {"p": 2, "q": 3}),
    (IndependentUpTo, {"bound": 8}),
    (IndependentCertified, {"bound": 8}),
]


@pytest.mark.parametrize(
    "cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS]
)
def test_records_are_immutable_values(cls, values):
    record = cls(**values)
    assert cls(*values.values()) == record
    for name, value in values.items():
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        setattr(record, next(iter(values)), None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    twin = cls(**values)
    assert twin == record and hash(twin) == hash(record)
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__name__}({fields})"
    if cls.__module__ in ("hnnlab.comb", "hnnlab.hnn", "hnnlab.biauto"):
        # a namedtuple, keeping its own docstring
        assert isinstance(record, tuple) and cls.__doc__
        assert cls._fields == cls.__match_args__ == tuple(values)
        assert record._asdict() == values and list(record._asdict()) == list(values)
        first, *_ = values
        changed = record._replace(**{first: None})
        assert type(changed) is cls and changed == (None, *record[1:])
        match record:
            case cls(value):
                assert value == values[first]
            case _:
                pytest.fail(f"{cls.__name__} matches no positional pattern")
        if cls in (CosetTable, SchreierGraph):
            # the subgroup index shadows tuple.index
            assert record.index == len(values["table"])


def test_readme_library_block_runs_as_shown():
    # each line of README's Library block that ends in "# value" must give
    # a value with that repr; the value is read with the public names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    public = {name: getattr(hnnlab, name) for name in hnnlab.__all__}
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, shown = line.partition("# ")
        if not shown:
            exec(code, namespace)
            continue
        expected = eval(shown, {"Fraction": Fraction, **public})
        assert repr(eval(code, namespace)) == repr(expected), line
        checked += 1
    assert checked == 5


def test_readme_library_comments_are_the_reprs_shown():
    # README's Library block, run line by line: each trailing "# value"
    # comment is, as text, the repr of its line's result
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown_lines = 0
    for line in block.splitlines():
        code, _, shown = line.partition("# ")
        if not shown:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == shown.strip(), line
        shown_lines += 1
    assert shown_lines == 5


def test_isometry_records_are_told_apart_and_copied():
    empty = [Identity, EllipticInfinite, Parabolic]
    for cls in empty:
        assert repr(cls()) == f"{cls.__name__}()"
        assert [other() == cls() for other in empty] == [
            other is cls for other in empty
        ]
    assert IndependentUpTo(8) != IndependentCertified(8)
    records = [cls() for cls in empty] + [
        cls(*values.values()) for cls, values in RECORDS[-6:]
    ]
    for record in records:
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(clone) is type(record) and clone == record
