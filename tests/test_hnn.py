"""End-to-end checks of the built-in HNN extension.

Every assertion that can be made along two routes is: exact matrices over
Q(sqrt(2)) against decorated coset tables.  The membership and word
problem helpers raise OracleDisagreement themselves if the routes ever
split, so simply exercising them on random inputs is part of the test.
"""

import copy
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hnnlab import hnn
from hnnlab.comb import (
    AbelianStructure,
    Presentation,
    abelianization,
    evaluate_word,
    free_reduce,
    invert_word,
    render_word,
)
from hnnlab.exact import ProjMat, phi
from hnnlab.hnn import (
    STABLE_PAIRS,
    HnnGroup,
    OracleDisagreement,
    load_builtin_group,
)
from hnnlab.quat import (
    QUAT_ONE,
    OrderLattice,
    Quaternion,
    SubgroupOracles,
    lipschitz_like_order,
    standard_generators,
    standard_order,
)

G = load_builtin_group()
T = standard_generators()["t"]


def random_vertex_word(rng, max_len=12):
    return free_reduce(
        tuple(
            rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
            for _ in range(rng.randrange(1, max_len + 1))
        )
    )


def random_ambient_word(rng, max_len=20):
    return free_reduce(
        tuple(
            rng.choice([1, -1, 2, -2, 3, -3, 4, -4, 5, -5])
            for _ in range(rng.randrange(1, max_len + 1))
        )
    )


def test_presentation_verifies():
    report = G.verify_presentation()
    assert len(report.relations) == 27
    assert all(r.holds for r in report.relations)
    assert report.pair_memberships_ok
    assert report.source_index == 12 and report.target_index == 12
    assert report.mutants_detected == report.mutants_total == 27
    assert report.all_hold


def test_subgroup_tables_match_arithmetic_schreier_graphs():
    for side, table in (("source", G.source_table), ("target", G.target_table)):
        sg = G.schreier_graph(side)
        assert sg.index == 12
        assert sg.table == table.table
        assert sg.representatives == table.representatives


def test_membership_facts():
    assert G.in_target_subgroup("d")
    assert not G.in_source_subgroup("d")
    assert not G.in_source_subgroup("a")
    for u, v in STABLE_PAIRS:
        assert G.in_source_subgroup(G.vertex.parse(u))
        assert G.in_target_subgroup(G.vertex.parse(v))


def test_membership_rejects_stable_letter():
    # the four edge-group methods share one intake over a, b, c, d: a stable
    # letter is refused up front, not read past the coset tables' columns
    for method in (
        G.in_source_subgroup,
        G.in_target_subgroup,
        G.conjugate_into_target,
        G.conjugate_into_source,
    ):
        for word in ("t", "T", "at", "a*t^-1", (5,), (-5,), (1, 5)):
            with pytest.raises(ValueError, match="generator 't'|letter -?5 outside"):
                method(word)


@pytest.mark.parametrize("word", [(0,), (6,), (2.0,)])
def test_bad_tuple_letters_are_rejected(word):
    # unchecked, letter 0 would evaluate as t^-1 but read as a vertex letter
    for method in (
        G.evaluate,
        G.britton_reduce,
        G.is_trivial,
        G.tree_distance,
        G.in_source_subgroup,
        G.conjugate_into_target,
    ):
        with pytest.raises(ValueError):
            method(word)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((0, 1)),
    st.lists(
        st.tuples(st.integers(0, len(STABLE_PAIRS) - 1), st.booleans()),
        max_size=4,
    ),
)
def test_rewriting_expands_back_to_the_same_element(side, factors):
    """For w a product of u_i (or v_i), expanding rewrite(w) gives the same
    matrix as w and a word that the table follows back to coset 0."""
    table = (G.source_table, G.target_table)[side]
    gens = [G.vertex.parse(pair[side]) for pair in STABLE_PAIRS]
    w = free_reduce(
        [
            x
            for i, inverse in factors
            for x in (invert_word(gens[i]) if inverse else gens[i])
        ]
    )
    expanded = table.expand_subgroup_word(table.rewrite(w))
    assert table.follow(0, expanded) == 0
    assert G.evaluate(expanded) == G.evaluate(w)


# (reader of letters, its alphabet's size): letter 0 once read as column -1,
# as the last subgroup word or as the last image, a letter past the alphabet
# as a bare IndexError, and a float or Fraction equal to 1 as letter a
LETTER_READERS = [
    (lambda t, w: t.follow(0, w), 4),
    (lambda t, w: t.rewrite(w), 4),
    (lambda t, w: t.expand_subgroup_word(w), 26),
    (lambda t, w: render_word(w, t.generators), 4),
    (lambda t, w: render_word(w, t.subgroup_names, "verbose"), 26),
    (lambda t, w: evaluate_word(w, G.generators[:4], QUAT_ONE), 4),
]
READER_IDS = ["follow", "rewrite", "expand", "render", "render-verbose", "evaluate"]


@pytest.mark.parametrize("call, size", LETTER_READERS, ids=READER_IDS)
@pytest.mark.parametrize(
    "bad",
    [0, "past", "-past", 1.0, Fraction(1), "a"],
    ids=["0", "past", "-past", "float", "fraction", "str"],
)
def test_coset_table_entry_points_refuse_letters_outside_their_alphabet(call, size, bad):
    bad = {"past": size + 1, "-past": -size - 1}.get(bad, bad)
    for table in (G.source_table, G.target_table):
        # after a valid letter too, so the letter is not the first one read
        for word in ((bad,), (1, bad)):
            with pytest.raises(ValueError) as raised:
                call(table, word)
            assert str(raised.value) == f"letter {bad!r} outside alphabet of size {size}"


@pytest.mark.parametrize("call, size", LETTER_READERS, ids=READER_IDS)
def test_letter_readers_read_bools_as_their_values(call, size):
    for table in (G.source_table, G.target_table):
        # a word in the table's subgroup, with letter a in it
        word = (1, -2) if size == 26 else table.subgroup_words[0] + (1, -1)
        bools = tuple(True if g == 1 else g for g in word)
        assert call(table, bools) == call(table, word)


def test_conjugation_matches_matrices():
    t_mat = G.images[4]
    rng = random.Random(23)
    for _ in range(60):
        letters = [rng.randrange(1, 27) * rng.choice([1, -1]) for _ in range(3)]
        g = G.source_table.expand_subgroup_word(letters)
        assert G.in_source_subgroup(g)
        image = G.conjugate_into_target(g)
        assert t_mat * G.evaluate(g) * t_mat.inverse() == G.evaluate(image)
        # and back again
        back = G.conjugate_into_source(image)
        assert G.evaluate(back) == G.evaluate(g)


def test_britton_frozen_cases():
    f = G.britton_reduce("tDaacBCT")
    assert f.t_count == 0 and f.to_word() == G.ambient.parse("d")
    f = G.britton_reduce("Tdt")
    assert f.t_count == 0 and f.to_word() == G.ambient.parse("DaacBC")
    assert G.britton_reduce("tT").to_word() == ()
    # a is not in H, so t a t^-1 does not pinch
    f = G.britton_reduce("taT")
    assert f.t_count == 2 and f.exponents == (1, -1)
    # same-sign stable letters never pinch
    assert G.britton_reduce("tat").exponents == (1, 1)


def test_britton_preserves_matrices():
    rng = random.Random(31)
    for _ in range(200):
        w = random_ambient_word(rng)
        form = G.britton_reduce(w)
        assert G.evaluate(form.to_word()) == G.evaluate(w)
        for e in form.exponents:
            assert e in (1, -1)
        for seg in form.segments:
            assert all(abs(x) != 5 for x in seg)


def test_britton_pinch_round_trips():
    rng = random.Random(37)
    for _ in range(100):
        letters = [rng.randrange(1, 27) * rng.choice([1, -1]) for _ in range(2)]
        v = G.target_table.expand_subgroup_word(letters)
        w = (-5,) + tuple(v) + (5,)  # t^-1 v t pinches to a word in H
        form = G.britton_reduce(w)
        assert form.t_count == 0
        assert G.in_source_subgroup(form.segments[0])
        assert G.evaluate(form.to_word()) == G.evaluate(w)


def test_word_problem_agreement():
    rng = random.Random(41)
    relator = G.ambient.relators[0]
    for _ in range(40):
        g = random_ambient_word(rng, 6)
        w = free_reduce(g + relator + invert_word(g))
        assert G.is_trivial(w)
    for i, r in enumerate(G.ambient.relators):
        assert G.is_trivial(r)
    nontrivial = 0
    for _ in range(120):
        w = random_ambient_word(rng)
        if not G.is_trivial(w):  # raises OracleDisagreement if routes split
            nontrivial += 1
    assert nontrivial > 100


def test_word_problem_evaluates_the_free_reduction(monkeypatch):
    rng = random.Random(43)
    relator = G.ambient.relators[0]
    evaluated = []
    fold = hnn._vector_fold

    def spy(w, vectors):
        evaluated.append(tuple(w))
        return fold(w, vectors)

    monkeypatch.setattr(hnn, "_vector_fold", spy)
    for w in (relator, random_ambient_word(rng), random_ambient_word(rng)):
        padded = list(w)
        for _ in range(6):
            x = rng.choice([1, -1, 2, -2, 3, -3, 4, -4, 5, -5])
            i = rng.randrange(len(padded) + 1)
            padded[i:i] = [x, -x]
        padded = tuple(padded)
        evaluated.clear()
        assert G.is_trivial(padded) == G.is_trivial(w)
        # the whole word is folded once, after free reduction
        assert evaluated[0] == free_reduce(padded)
        assert len(evaluated[0]) < len(padded)


# words whose quaternion folds to +-1 although they are not trivial in G:
# the map G -> PSL(2, R) has a kernel.  The last is the commutator of the
# first with t, with t-exponent sum 0.
KERNEL_WORDS = ("aaBCtbAtD", "aTCtDbCtD", "tCbtBAabDadcBBBC", "aaBCtbAtDtdTaBTcbAAT")


def t_exponent_sum(word: str) -> int:
    return word.count("t") - word.count("T")


def test_kernel_words_are_nontrivial():
    for w in KERNEL_WORDS:
        word = G.as_word(w)
        assert hnn._is_one(hnn._fold(word, G._units))
        # Britton's lemma: surviving stable letters mean not trivial
        assert G.britton_reduce(word).exponents
        assert G.is_trivial(w) is False
    assert [t_exponent_sum(w) for w in KERNEL_WORDS] == [2, 1, 2, 0]
    assert G.britton_reduce(KERNEL_WORDS[-1]).t_count == 6


def _primitive(q):
    g = math.gcd(*q)
    q = tuple(x // g for x in q)
    return q if next(x for x in q if x) > 0 else tuple(-x for x in q)


def _times(x, y):
    """The product of two integer quaternions of the algebra (2, 13), as a
    primitive integer 4-vector up to sign: one key per element of PSL2."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return _primitive(
        (
            x0 * y0 + 2 * x1 * y1 + 13 * x2 * y2 - 26 * x3 * y3,
            x0 * y1 + x1 * y0 - 13 * x2 * y3 + 13 * x3 * y2,
            x0 * y2 + x2 * y0 + 2 * x1 * y3 - 2 * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )
    )


def quaternion_ball_collisions():
    """Word pairs (u, v) of length <= 5 with equal quaternions and
    different t-exponent sums, from a breadth-first ball over a, b, c, d, t
    keyed by primitive integer 4-vector up to sign (73,461 elements)."""
    images = {}
    for name, q in standard_generators().items():
        den = math.lcm(*(x.denominator for x in q.coords()))
        key = _primitive(tuple(int(x * den) for x in q.coords()))
        images[name] = key
        images[name.upper()] = _primitive((key[0], -key[1], -key[2], -key[3]))
    one = (1, 0, 0, 0)
    ball = {one: ""}
    frontier = [one]
    collisions = []
    for _ in range(5):
        nxt = []
        for g in frontier:
            w = ball[g]
            for letter, image in images.items():
                h = _times(g, image)
                other = ball.get(h)
                if other is None:
                    ball[h] = w + letter
                    nxt.append(h)
                elif t_exponent_sum(other) != t_exponent_sum(w + letter):
                    collisions.append((w + letter, other))
        frontier = nxt
    assert len(ball) == 73461
    return collisions


def test_kernel_words_from_the_quaternion_ball_are_nontrivial():
    pairs = quaternion_ball_collisions()
    assert len(pairs) > 90

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(pairs))
    def check(pair):
        u, v = pair
        word = G.as_word(u) + invert_word(G.as_word(v))
        # a kernel word: it folds to +-1, and no trivial word has a
        # nonzero t-exponent sum
        assert hnn._is_one(hnn._fold(word, G._units))
        assert t_exponent_sum(u) != t_exponent_sum(v)
        assert G.is_trivial(word) is False

    check()


def test_tree_geometry():
    nbrs = G.tree_neighbors()
    assert len(nbrs) == 24
    for w in nbrs:
        assert G.tree_distance(w) == 1
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            assert not G.same_vertex(nbrs[i], nbrs[j])


def test_tree_distances():
    assert G.tree_distance("") == 0
    assert G.tree_distance("a") == 0  # vertex group fixes the base vertex
    assert G.tree_distance("tT") == 0
    assert G.tree_distance("tt") == 2
    assert G.tree_distance("tat") == 2
    assert G.tree_distance("t", "t") == 0
    assert G.tree_distance("t", "ta") == 0  # same coset of the vertex group
    assert G.tree_distance("t", "at") == 2
    assert G.same_vertex("tDaacBCT", "d")


def test_tree_distance_triangle_inequality():
    rng = random.Random(43)
    words = [random_ambient_word(rng, 8) for _ in range(12)]
    dist = {}
    for i, w1 in enumerate(words):
        for j, w2 in enumerate(words):
            if i < j:
                dist[i, j] = G.tree_distance(w1, w2)
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            for k in range(len(words)):
                if k in (i, j):
                    continue
                a, b = min(i, k), max(i, k)
                c, d = min(j, k), max(j, k)
                assert dist[i, j] <= dist[a, b] + dist[c, d]


def test_ambient_abelianization():
    ab = abelianization(G.ambient)
    assert ab.betti == 1
    assert ab == AbelianStructure(1, (21,))
    # cross-check the invariant factors with an external implementation
    rows = []
    for r in G.ambient.relators:
        row = [0] * 5
        for g in r:
            row[abs(g) - 1] += 1 if g > 0 else -1
        rows.append(row)
    s = sympy_snf(sympy.Matrix(rows))
    diag = [abs(s[i, i]) for i in range(5) if s[i, i] != 0]
    assert [d for d in diag if d != 1] == [21]
    assert 5 - len(diag) == 1


def test_vertex_abelianization():
    assert abelianization(G.vertex) == AbelianStructure(4, ())


def _with(**parts):
    """G with some of its parts replaced: a new group is built from G's
    defining data with any of vertex, pairs, generators and oracles
    replaced, then derived parts (ambient, source_table, target_table) are
    assigned on it, past the constructor."""
    defining = {
        name: parts.pop(name, getattr(G, name))
        for name in ("vertex", "pairs", "generators", "oracles")
    }
    group = HnnGroup(**defining)
    for name, value in parts.items():
        setattr(group, name, value)
    return group


def test_tampered_group_raises_disagreement():
    broken = copy.copy(G)
    # deliberately swapped
    broken.source_table, broken.target_table = G.target_table, G.source_table
    with pytest.raises(OracleDisagreement):
        # d lies in K but not in H; the swapped tables must get caught
        broken.in_source_subgroup("d")


def test_inverted_conjugator_is_caught_by_coset_tables():
    # t^-1 as conjugator swaps the two Eichler orders: d lies in K, not H
    broken = _with(oracles=SubgroupOracles(standard_order(), T.conj()))
    with pytest.raises(OracleDisagreement):
        broken.in_source_subgroup("d")
    with pytest.raises(OracleDisagreement):
        broken.in_target_subgroup("d")


def test_wrong_order_is_caught_by_coset_tables():
    # d is not integral in Z<i, j, k>, so the oracles built on it reject d
    broken = _with(oracles=SubgroupOracles(lipschitz_like_order(), T))
    with pytest.raises(OracleDisagreement):
        broken.in_target_subgroup("d")


def _column(letter):
    return 2 * (abs(letter) - 1) + (letter < 0)


def test_flipped_table_entry_is_caught_by_matrices():
    # u1 = DaacBC lies in H; its trace leaves coset 0 through the d^-1 entry
    u1 = STABLE_PAIRS[0][0]
    col = _column(G.vertex.parse(u1)[0])
    rows = [list(row) for row in G.source_table.table]
    rows[0][col] = (rows[0][col] + 1) % G.source_table.index
    broken = _with(
        source_table=G.source_table._replace(table=tuple(map(tuple, rows)))
    )
    assert G.in_source_subgroup(u1)
    with pytest.raises(OracleDisagreement, match="coset table says False"):
        broken.in_source_subgroup(u1)


def test_corrupted_decoration_is_caught_by_the_word_problem():
    # t u1 t^-1 v1^-1 is a defining relator; the pinch t u1 t^-1 is rewritten
    # through the decoration of u1's first edge, here with an extra u1
    relator = G.ambient.relators[1]
    col = _column(relator[1])
    decorations = [list(row) for row in G.source_table.decorations]
    decorations[0][col] += (1,)
    broken = _with(
        source_table=G.source_table._replace(
            decorations=tuple(map(tuple, decorations))
        )
    )
    assert G.is_trivial(relator)
    assert broken.britton_reduce(relator).exponents == ()
    with pytest.raises(
        OracleDisagreement, match="matrices say True, Dehn says False"
    ):
        broken.is_trivial(relator)


@pytest.mark.parametrize("row", range(4))
def test_perturbed_order_row_is_refused_or_caught(row):
    # doubling a basis row of the maximal order gives a proper sublattice:
    # rows 1..3 break the order axioms when the Eichler orders are built,
    # row 0 leaves an order whose units miss u1, which the tables hold
    rows = [list(r) for r in standard_order().basis]
    rows[row] = [2 * x for x in rows[row]]
    order = OrderLattice(rows, validate=False)
    if row:
        with pytest.raises(ValueError, match="lattice"):
            SubgroupOracles(order, T)
        return
    broken = _with(oracles=SubgroupOracles(order, T))
    with pytest.raises(OracleDisagreement, match="matrices say False"):
        broken.verify_presentation()


@pytest.mark.parametrize("side", ["source", "target"])
def test_perturbed_eichler_order_row_is_caught_by_coset_tables(side):
    # the same fault injected past validation, into a built Eichler order
    oracles = copy.copy(G.oracles)
    rows = [list(r) for r in getattr(oracles, f"{side}_order").basis]
    rows[3] = [2 * x for x in rows[3]]
    setattr(oracles, f"{side}_order", OrderLattice(rows, validate=False))
    with pytest.raises(OracleDisagreement, match="matrices say False"):
        _with(oracles=oracles).verify_presentation()


SWAPPED = ((STABLE_PAIRS[0][0], STABLE_PAIRS[1][1]),
           (STABLE_PAIRS[1][0], STABLE_PAIRS[0][1])) + STABLE_PAIRS[2:]


def test_swapped_stable_pairs_fail_the_load(monkeypatch):
    # t u1 t^-1 = v2 is false in the matrix model
    monkeypatch.setattr(hnn, "STABLE_PAIRS", SWAPPED)
    with pytest.raises(RuntimeError, match="defining relation fails"):
        hnn.load_builtin_group.__wrapped__()


def test_swapped_stable_pairs_are_caught_by_both_routes():
    # the group assembled without the load's checks: verify reports the two
    # false relations, and Britton's rewriting through the swapped table
    # contradicts the matrices on a true relation of G
    broken = _with(pairs=SWAPPED)
    report = broken.verify_presentation()
    assert [r.index for r in report.relations if not r.holds] == [2, 3]
    assert not report.all_hold
    relator = G.ambient.relators[1]  # t u1 t^-1 v1^-1
    with pytest.raises(OracleDisagreement, match="matrices say True, Dehn says False"):
        broken.is_trivial(relator)


def test_swapped_generator_images_are_caught_by_both_routes():
    # a and b exchange their quaternions: the surface relator no longer
    # holds in the model and u1 = DaacBC leaves the source subgroup, while
    # Dehn and the coset tables still read the presentation
    broken = _with(generators=(G.generators[1], G.generators[0]) + G.generators[2:])
    with pytest.raises(
        OracleDisagreement, match="matrices say False, Dehn says True"
    ):
        broken.is_trivial("AdcbCaBD")
    with pytest.raises(
        OracleDisagreement, match="matrices say False, coset table says True"
    ):
        broken.in_source_subgroup("DaacBC")


@pytest.mark.parametrize(
    "outside",
    [
        Quaternion(1, 1),  # reduced norm 1 - 2 = -1: its image has det -1
        ProjMat(phi(G.generators[4])),  # t, but as its matrix image
    ],
)
def test_image_outside_the_embedding_is_refused_at_construction(outside):
    with pytest.raises(ValueError, match="not a norm-one Quaternion"):
        _with(generators=G.generators[:4] + (outside,))


def test_defining_data_off_the_alphabet_is_refused_at_construction():
    # four quaternions would leave t reading d^-1 from the fold table
    with pytest.raises(ValueError, match="4 generators for a, b, c, d, t"):
        _with(generators=G.generators[:4])
    with pytest.raises(ValueError, match="is not a, b, c, d"):
        _with(vertex=Presentation("abce", ["AecbCaBE"]))


@pytest.mark.parametrize(
    "pairs, side",
    [
        # no pairs: H and K are trivial, of infinite index in the vertex group
        ((), "H"),
        # the u-words keep H of index 12, but K = <a> has infinite index
        (tuple((u, "a") for u, _ in STABLE_PAIRS), "K"),
    ],
)
def test_pairs_of_infinite_index_are_refused_quickly(pairs, side):
    # the enumeration stops at hnn.EDGE_COSET_CAP cosets, not at
    # Todd-Coxeter's default of 10^6 (4.5 s and 308 MB for no pairs)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"the {side} enumeration defined more"):
        _with(pairs=pairs)
    assert time.perf_counter() - start < 1.0


def test_evaluate_respects_identities():
    rng = random.Random(47)
    for _ in range(50):
        w = random_ambient_word(rng, 10)
        m = G.evaluate(w)
        assert m * G.evaluate(invert_word(w)) == ProjMat.identity(2)
