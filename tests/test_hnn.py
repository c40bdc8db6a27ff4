"""End-to-end checks of the built-in HNN extension.

Every assertion that can be made along two routes is: exact matrices over
Q(sqrt(2)) against decorated coset tables.  The membership and word
problem helpers raise OracleDisagreement themselves if the routes ever
split, so simply exercising them on random inputs is part of the test.
"""

import copy
import random

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
    todd_coxeter,
)
from hnnlab.exact import Mat2, ProjMat
from hnnlab.hnn import (
    STABLE_PAIRS,
    HnnGroup,
    OracleDisagreement,
    load_builtin_group,
)
from hnnlab.quat import (
    NotInImage,
    OrderLattice,
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
    with pytest.raises(ValueError):
        G.in_source_subgroup("t")


@pytest.mark.parametrize("word", [(0,), (6,), (2.0,)])
def test_bad_tuple_letters_are_rejected(word):
    # unchecked, letter 0 would evaluate as t^-1 but read as a vertex letter
    for method in (
        G.evaluate,
        G.britton_reduce,
        G.is_trivial,
        G.tree_distance,
        G.in_source_subgroup,
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
    fold = hnn._fold

    def spy(w, units):
        evaluated.append(tuple(w))
        return fold(w, units)

    monkeypatch.setattr(hnn, "_fold", spy)
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


def test_tampered_group_raises_disagreement():
    broken = HnnGroup(
        vertex=G.vertex,
        ambient=G.ambient,
        pairs=G.pairs,
        images=G.images,
        oracles=G.oracles,
        source_table=G.target_table,  # deliberately swapped
        target_table=G.source_table,
    )
    with pytest.raises(OracleDisagreement):
        # d lies in K but not in H; the swapped tables must get caught
        broken.in_source_subgroup("d")


def _with(**parts):
    """G with some of its parts replaced."""
    kwargs = dict(
        vertex=G.vertex,
        ambient=G.ambient,
        pairs=G.pairs,
        images=G.images,
        oracles=G.oracles,
        source_table=G.source_table,
        target_table=G.target_table,
    )
    return HnnGroup(**{**kwargs, **parts})


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
    ambient = Presentation(
        "abcdt",
        [G.ambient.relators[0]]
        + [(5,) + G.vertex.parse(u) + (-5,) + invert_word(G.vertex.parse(v))
           for u, v in SWAPPED],
    )
    target = todd_coxeter(
        G.vertex, [v for _, v in SWAPPED],
        subgroup_names=[f"v{i + 1}" for i in range(len(SWAPPED))],
    )
    broken = _with(ambient=ambient, pairs=SWAPPED, target_table=target)
    report = broken.verify_presentation()
    assert [r.index for r in report.relations if not r.holds] == [2, 3]
    assert not report.all_hold
    relator = G.ambient.relators[1]  # t u1 t^-1 v1^-1
    with pytest.raises(OracleDisagreement, match="matrices say True, Dehn says False"):
        broken.is_trivial(relator)


def test_swapped_generator_images_are_caught_by_both_routes():
    # a and b exchange their matrices: the surface relator no longer holds
    # in the model and u1 = DaacBC leaves the source subgroup, while Dehn
    # and the coset tables still read the presentation
    broken = _with(images=(G.images[1], G.images[0]) + G.images[2:])
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
        Mat2(2, 1, 1, 0, 1),  # m21 = 0, not 13 * conj(m12)
        Mat2(3, 1, 1, 0, 1),  # over Q(sqrt(3))
    ],
)
def test_image_outside_the_embedding_is_refused_at_construction(outside):
    with pytest.raises(NotInImage):
        _with(images=G.images[:4] + (ProjMat(outside),))


def test_evaluate_respects_identities():
    rng = random.Random(47)
    for _ in range(50):
        w = random_ambient_word(rng, 10)
        m = G.evaluate(w)
        assert m * G.evaluate(invert_word(w)) == ProjMat.identity(2)
