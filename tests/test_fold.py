"""The built-in group is built from its generator quaternions and its
verdicts read the folded quaternion; only HnnGroup.evaluate embeds it into
PSL2 over Q(sqrt(2)).  Whole-word verdicts fold primitive integer vectors,
which must agree projectively with the Fraction fold that membership uses.

The lattice must load with the embedding and ProjMat patched to raise, and
the group's own queries (word problem, Britton reduction, tree distance,
membership, presentation checks, arithmetic Schreier graphs) must give the
same answers with the embedding and its inverse patched to raise.  Edge
group membership goes through the SubgroupOracles methods, whose verdicts
on a pulled-back matrix must agree with the group's.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab import exact, hnn, quat
from hnnlab.hnn import STABLE_PAIRS, load_builtin_group
from hnnlab.quat import Quaternion

G = load_builtin_group()
VERTEX_LETTERS = [g for x in range(1, 5) for g in (x, -x)]
WORDS = ("tDaacBCTD", "AdcbCaBD", "atbTc", "tat", "TdtaTdt", "tDaacBCT")


class Embedded(AssertionError):
    """Raised by the patched embedding functions."""


def _refuse(name):
    def call(*args):
        raise Embedded(name)

    return call


QUERIES = {
    "is_trivial": lambda: [G.is_trivial(w) for w in WORDS],
    "tree_distance": lambda: [G.tree_distance(w) for w in WORDS]
    + [G.tree_distance("t", "ta")],
    "britton_reduce": lambda: [G.britton_reduce(w) for w in WORDS],
    "in_source_subgroup": lambda: [
        G.in_source_subgroup(w) for w in ("d", "a", STABLE_PAIRS[0][0])
    ],
    "in_target_subgroup": lambda: [
        G.in_target_subgroup(w) for w in ("d", "a", STABLE_PAIRS[1][1])
    ],
    "verify_presentation": G.verify_presentation,
    "schreier_graph": lambda: [G.schreier_graph(s) for s in ("source", "target")],
}


def test_verdicts_do_not_embed_the_fold(monkeypatch):
    want = {name: query() for name, query in QUERIES.items()}
    assert want["tree_distance"][2] == 2 and want["is_trivial"][0]
    assert want["in_source_subgroup"] == [False, False, True]
    assert want["in_target_subgroup"] == [True, False, True]
    assert want["verify_presentation"].all_hold
    for owner, name in (
        (hnn, "phi"),
        (quat, "phi_inverse"),
        (exact, "_sign_normalize"),
    ):
        monkeypatch.setattr(owner, name, _refuse(name))
    for name, query in QUERIES.items():
        assert query() == want[name], name
    # evaluate() is the one place a fold becomes a ProjMat
    with pytest.raises(Embedded, match="^phi$"):
        G.evaluate("a")


def test_the_lattice_loads_without_building_a_matrix(monkeypatch):
    monkeypatch.setattr(hnn, "phi", _refuse("phi"))
    monkeypatch.setattr(exact, "ProjMat", _refuse("ProjMat"))
    group = hnn.load_builtin_group.__wrapped__()
    assert group.generators == G.generators
    assert group.verify_presentation().all_hold


def test_edge_membership_asks_the_oracle_methods(monkeypatch):
    asked = []
    for side in ("source", "target"):
        name = f"in_{side}_subgroup"
        method = getattr(quat.SubgroupOracles, name)

        def spy(self, q, side=side, method=method):
            assert isinstance(q, Quaternion)
            asked.append(side)
            return method(self, q)

        monkeypatch.setattr(quat.SubgroupOracles, name, spy)
    assert G.in_source_subgroup("DaacBC") and asked == ["source"]
    asked.clear()
    # t u1 t^-1 pinches: one query of H, answered yes
    assert G.britton_reduce("tDaacBCT").exponents == ()
    assert asked == ["source"]
    asked.clear()
    G.schreier_graph("target")
    assert asked and set(asked) == {"target"}


@st.composite
def vertex_words(draw):
    """Random t-free words, or products of the u_i or of the v_i (members
    of H or K), sometimes with one letter inserted."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.sampled_from(VERTEX_LETTERS), max_size=40)))
    side = draw(st.sampled_from((0, 1)))
    word: tuple[int, ...] = ()
    for i in draw(st.lists(st.integers(0, len(STABLE_PAIRS) - 1), max_size=4)):
        word += G.vertex.parse(STABLE_PAIRS[i][side])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(word)))
        word = word[:i] + (draw(st.sampled_from(VERTEX_LETTERS)),) + word[i:]
    return word


def test_quaternion_and_matrix_verdicts_agree():
    memberships = set()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(vertex_words())
    def check(word):
        m = G.evaluate(word)
        source, target = G.in_source_subgroup(word), G.in_target_subgroup(word)
        q = quat.phi_inverse(m.rep)
        assert G.oracles.in_source_subgroup(q) == source
        assert G.oracles.in_target_subgroup(q) == target
        assert m.is_identity() == hnn._is_one(hnn._fold(word, G._units))
        memberships.update((source, target))

    check()
    assert memberships == {True, False}


AMBIENT_LETTERS = [g for x in range(1, 6) for g in (x, -x)]


def _primitive(q: Quaternion) -> tuple[int, ...]:
    """The integer 4-vector on the line through q, up to sign."""
    den = math.lcm(*(x.denominator for x in q.coords()))
    x = [int(c * den) for c in q.coords()]
    g = math.gcd(*x)
    x = [c // g for c in x]
    return tuple(x if next(c for c in x if c) > 0 else [-c for c in x])


def test_vector_fold_agrees_with_the_fraction_fold():
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(AMBIENT_LETTERS), max_size=200))
    def check(word):
        q = hnn._fold(word, G._units)
        v = hnn._vector_fold(word, G._vectors)
        assert all(isinstance(x, int) for x in v.coords())
        assert math.gcd(*v.coords()) == 1
        assert _primitive(v) == _primitive(q)
        assert hnn._is_one(v) == hnn._is_one(q)
        seen.add(any(abs(g) == 5 for g in word))

    check()
    assert seen == {True, False}
    # words in the kernel of G -> PSL(2, R) fold to +-1 by both
    for w in ("aaBCtbAtD", "aTCtDbCtD"):
        word = G.as_word(w)
        assert hnn._is_one(hnn._fold(word, G._units))
        v = hnn._vector_fold(word, G._vectors)
        assert v.coords() in ((1, 0, 0, 0), (-1, 0, 0, 0))


def test_evaluate_refuses_a_fold_whose_norm_is_no_square(monkeypatch):
    # 1 + i has reduced norm 1 - 2 = -1: no multiple of a norm-one element
    vectors = list(G._vectors)
    vectors[1] = (-1, 1, 1, 0, 0, 2, 0, 0, 0, 0)
    monkeypatch.setattr(G, "_vectors", vectors)
    with pytest.raises(RuntimeError, match="reduced norm -1, not a square"):
        G.evaluate("a")


def test_whole_word_verdicts_fold_integer_vectors(monkeypatch):
    folded = []
    fold = hnn._fold

    def spy(w, units):
        folded.append(tuple(w))
        return fold(w, units)

    monkeypatch.setattr(hnn, "_fold", spy)
    hnn.load_builtin_group.__wrapped__()
    assert G.is_trivial("AdcbCaBD") and G.is_trivial("aDaBdA") is False
    assert folded == []
    # verify_presentation folds Fractions only to ask the membership
    # oracles about the 26 u_i and the 26 v_i
    assert G.verify_presentation().all_hold
    pair_words = [G.vertex.parse(w) for pair in STABLE_PAIRS for w in pair]
    assert sorted(folded) == sorted(pair_words)
    folded.clear()
    assert G.in_source_subgroup("DaacBC") and len(folded) == 1


COORDS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(COORDS, COORDS, COORDS, COORDS))
def test_inverse_is_a_two_sided_inverse(coords):
    q = Quaternion(*coords)
    if not q:
        with pytest.raises(ZeroDivisionError):
            q.inverse()
        return
    assert q * q.inverse() == 1
    assert q.inverse() * q == Quaternion(Fraction(1))
