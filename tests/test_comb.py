"""Word handling, Dehn reduction, coset enumeration, and abelianization.

Decoration soundness is checked against concrete group models (integer
translations, permutations): for every table edge alpha -> beta under x
the identity rep(alpha)*x = deco*rep(beta) must hold in the model.
"""

import hashlib
import json
import random
from dataclasses import dataclass

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hnnlab.comb import (
    WORD_LETTER_LIMIT,
    _join,
    AbelianStructure,
    CapExceeded,
    NotDehnPresentation,
    NotInSubgroup,
    Presentation,
    abelianization,
    cyclic_reduce,
    dehn_reduce,
    evaluate_word,
    free_reduce,
    genus_from_index,
    invert_word,
    is_metric_sixth,
    max_piece_length,
    parse_word,
    render_word,
    schreier_graph_arith,
    smith_invariants,
    symmetrized_relators,
    todd_coxeter,
)

SURFACE = Presentation("abcd", ["AdcbCaBD"])


@dataclass(frozen=True)
class Vec:
    """Translation model of Z^2 for decoration checks."""

    x: int
    y: int

    def __mul__(self, other):
        return Vec(self.x + other.x, self.y + other.y)

    def inverse(self):
        return Vec(-self.x, -self.y)


@dataclass(frozen=True)
class Perm:
    images: tuple

    def __mul__(self, other):
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))


VEC_ONE = Vec(0, 0)
PERM_ONE = Perm((0, 1, 2))


def check_decorations(table, images, identity):
    """Every edge of the table must satisfy its decoration equation."""
    reps = [
        evaluate_word(w, images, identity) for w in table.representatives
    ]
    for a, row in enumerate(table.table):
        for col, b in enumerate(row):
            g = col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)
            step = evaluate_word((g,), images, identity)
            deco = evaluate_word(
                table.expand_subgroup_word(table.decorations[a][col]),
                images,
                identity,
            )
            assert reps[a] * step == deco * reps[b]


def test_word_grammars_agree():
    alph = ("a", "b", "c", "d", "t")
    compact = parse_word("tDaacBCT", alph)
    verbose = parse_word("t*d^-1*a^2*c*b^-1*c^-1*t^-1", alph)
    assert compact == verbose == (5, -4, 1, 1, 3, -2, -3, -5)
    assert render_word(compact, alph, "compact") == "tDaacBCT"
    assert render_word(compact, alph, "verbose") == "t*d^-1*a^2*c*b^-1*c^-1*t^-1"
    assert parse_word("1", alph) == () and parse_word("", alph) == ()
    assert render_word((), alph) == "1"


def test_word_grammar_multicharacter_names():
    alph = ("u1", "u13")
    assert parse_word("u13*u1^-2", alph) == (2, -1, -1)
    assert render_word((2, -1, -1), alph, "verbose") == "u13*u1^-2"
    with pytest.raises(ValueError):
        render_word((1,), alph, "compact")
    # the names are checked before the empty-word shortcut
    with pytest.raises(ValueError, match="compact rendering needs single-character"):
        render_word((), alph, "compact")
    # the style is checked before the empty-word shortcut
    for word in ((), (1,)):
        with pytest.raises(ValueError, match="unknown style 'bogus'"):
            render_word(word, alph, "bogus")
    with pytest.raises(ValueError):
        parse_word("u7", alph)
    with pytest.raises(ValueError):
        parse_word("q", ("a", "b"))


def test_exponent_is_a_signed_ascii_integer():
    alph = ("a", "b")
    assert parse_word("a^+2*b^-1*a^03", alph) == (1, 1, -2, 1, 1, 1)
    # spaces are stripped from the whole word
    assert parse_word("a^ 2", alph) == (1, 1)
    # an empty exponent, an underscore, Arabic-Indic and full-width digits
    for text in ("a^", "a^-", "a^1_0", "a^\u0663", "a^\uff11", "a^2^3", "a^0x2"):
        with pytest.raises(ValueError, match="bad exponent"):
            parse_word(text, alph)


ROUND_TRIP = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
SHORT_NAMES = ("a", "b", "c", "d", "t")
LONG_NAMES = ("u1", "u13", "v2", "x", "gen_7")


def words_over(alphabet):
    gen = st.integers(1, len(alphabet))
    letter = st.tuples(gen, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return st.lists(letter, max_size=30).map(tuple)


@ROUND_TRIP
@given(words_over(SHORT_NAMES))
def test_both_grammars_round_trip(word):
    for style in ("compact", "verbose"):
        text = render_word(word, SHORT_NAMES, style)
        assert parse_word(text, SHORT_NAMES) == word


@ROUND_TRIP
@given(words_over(LONG_NAMES))
def test_verbose_grammar_round_trips_multicharacter_names(word):
    text = render_word(word, LONG_NAMES, "verbose")
    assert parse_word(text, LONG_NAMES) == word


@ROUND_TRIP
@given(
    st.sampled_from((SHORT_NAMES, LONG_NAMES)).flatmap(
        lambda alph: st.tuples(
            st.just(alph),
            st.lists(
                st.tuples(st.integers(1, len(alph)), st.integers(-6, 6)),
                min_size=1,
                max_size=8,
            ),
        )
    )
)
def test_verbose_exponents_expand(case):
    """Tokens name^e, unmerged and possibly cancelling, expand letter by
    letter, and the verbose rendering of the result reads back the same."""
    alph, tokens = case
    text = "*".join(
        alph[g - 1] if e == 1 else f"{alph[g - 1]}^{e}" for g, e in tokens
    )
    word = tuple(g if e > 0 else -g for g, e in tokens for _ in range(abs(e)))
    assert parse_word(text, alph) == word
    assert parse_word(render_word(word, alph, "verbose"), alph) == word


def test_parse_word_refuses_words_over_the_limit():
    # exponents far beyond memory: nothing may be expanded before the check
    alph = ("a", "b")
    for text in ("a^1000000000000", "a^-1000000000000", "b*a^" + "9" * 30):
        with pytest.raises(ValueError, match="longer than"):
            parse_word(text, alph)
    with pytest.raises(ValueError, match="longer than"):
        parse_word("a" * (WORD_LETTER_LIMIT + 1), alph)


def test_reduction_and_inversion():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((2, 1, -1, -2, 3)) == (3,)
    assert cyclic_reduce((-1, 2, 1)) == (2,)
    assert invert_word((1, -2, 3)) == (-3, 2, -1)
    w = (1, 2, -1)
    assert free_reduce(w + invert_word(w)) == ()


def cyclic_reduce_by_definition(word):
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


@ROUND_TRIP
@given(words_over(SHORT_NAMES), words_over(SHORT_NAMES))
def test_cyclic_reduce_strips_cancelling_ends(core, conjugator):
    for word in (core, conjugator + core + invert_word(conjugator)):
        assert cyclic_reduce(word) == cyclic_reduce_by_definition(word)


def test_cyclic_reduce_of_a_long_conjugate():
    # 8000 letters, 3999 cancelling end pairs
    g = (1, 4) * 1999 + (1,)
    word = g + (2, 3) + invert_word(g)
    assert len(word) == 8000 and free_reduce(word) == word
    assert cyclic_reduce(word) == (2, 3)


def test_evaluate_word_in_translation_model():
    images = [Vec(1, 0), Vec(0, 1)]
    assert evaluate_word((1, 2, -1), images, VEC_ONE) == Vec(0, 1)
    assert evaluate_word((), images, VEC_ONE) == VEC_ONE
    assert evaluate_word((1, 1, 2, 2, 2), images, VEC_ONE) == Vec(2, 3)


def test_surface_relator_is_sixth_metric():
    sym = symmetrized_relators(SURFACE)
    assert len(sym) == 16
    assert max_piece_length(sym) == 1
    assert is_metric_sixth(sym)


def test_dehn_reduce_frozen_case():
    assert dehn_reduce(SURFACE.parse("AdcbC"), SURFACE) == SURFACE.parse("dbA")


def test_dehn_reduce_kills_trivial_words():
    r = SURFACE.parse("AdcbCaBD")
    assert dehn_reduce(r, SURFACE) == ()
    assert dehn_reduce(r + r, SURFACE) == ()
    rng = random.Random(11)
    for _ in range(50):
        g = tuple(
            rng.choice([1, -1, 2, -2, 3, -3, 4, -4]) for _ in range(rng.randrange(5))
        )
        w = free_reduce(g + r + invert_word(g))
        assert dehn_reduce(w, SURFACE) == ()


def test_dehn_reduce_keeps_short_nontrivial_words():
    for text in ("ab", "aBab", "dc", "AdcB"):
        w = SURFACE.parse(text)
        assert dehn_reduce(w, SURFACE) == w


def test_dehn_requires_sixth_condition():
    z2 = Presentation("xy", ["xyXY"])
    assert not is_metric_sixth(symmetrized_relators(z2))
    with pytest.raises(NotDehnPresentation):
        dehn_reduce((1,), z2)


def test_enumeration_cyclic_groups():
    c5 = Presentation("x", ["xxxxx"])
    t = todd_coxeter(c5, [])
    assert t.index == 5
    assert t.follow(0, c5.parse("xxxxx")) == 0
    assert sorted(row[0] for row in t.table) == [0, 1, 2, 3, 4]
    # gcd(2, 5) = 1: the square generates everything
    assert todd_coxeter(c5, ["xx"]).index == 1

    c6 = Presentation("x", ["x^6"])
    t2 = todd_coxeter(c6, ["xx"])
    assert t2.index == 2
    assert t2.rewrite(c6.parse("x^4")) == (1, 1)
    with pytest.raises(NotInSubgroup):
        t2.rewrite(c6.parse("x^3"))


def test_enumeration_cap():
    z2 = Presentation("xy", ["xyXY"])
    with pytest.raises(CapExceeded):
        todd_coxeter(z2, ["x"], cap=40)


@pytest.mark.parametrize("cap", [0, -3, 2.5, 10.0, "40", None])
def test_enumeration_refuses_a_cap_that_is_not_a_positive_int(cap):
    s4 = Presentation("ab", ["aa", "bbb", "abababab"])
    with pytest.raises(ValueError, match="cap must be an int >= 1"):
        todd_coxeter(s4, ["a", "b"], cap=cap)
    assert todd_coxeter(s4, ["a", "b"], cap=1).index == 1


def test_enumeration_refuses_duplicate_subgroup_names():
    s4 = Presentation("ab", ["aa", "bbb", "abababab"])
    with pytest.raises(ValueError, match="duplicate subgroup generator names"):
        todd_coxeter(s4, ["a", "b"], subgroup_names=["h", "h"])
    table = todd_coxeter(s4, ["a", "b"], subgroup_names=["h", "k"])
    assert table.to_json()["subgroup_generators"] == {"h": "a", "k": "b"}


REDUCED_WORDS = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(
    free_reduce
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(REDUCED_WORDS, max_size=6))
def test_enumerator_join_is_free_reduce_on_reduced_words(words):
    assert _join(*words) == free_reduce(*words)
    # each junction of a word and its inverse cancels all the way through
    assert _join(*words, *map(invert_word, reversed(words))) == ()


SMALL_ENUMERATIONS = [
    (Presentation("x", ["xxxxx"]), []),
    (Presentation("x", ["xxxxx"]), ["xx"]),
    (Presentation("x", ["x^6"]), ["xx"]),
    (Presentation("xy", ["xyXY"]), ["xx", "y"]),
    (Presentation("xy", ["xx", "yyy", "xyxy"]), ["y"]),
    (Presentation("ab", ["AAbaa", "abAaa"]), []),
    (Presentation("ab", ["bAABa", "AAbab"]), []),
    (Presentation("ab", ["bAABa", "AAbab"]), ["Ab"]),
    (SURFACE, ["a", "b", "c", "d"]),
]


# two enumerations with many coincidences, over the trivial subgroup:
# <a, b | a^2, b^3, (ab)^7, (abab^-1)^4>, PSL(2, 7) of order 168, and
# <a, b | a^-1 b^2 a b^3, b^-1 a^2 b a^3>, of order 125
COINCIDENCE_ENUMERATIONS = [
    (Presentation("ab", ["aa", "bbb", "ab" * 7, "abaB" * 4]), []),
    (Presentation("ab", ["Abbabbb", "Baabaaa"]), []),
]

# SHA-256 of each table's to_json() (sort_keys), in the order of
# SMALL_ENUMERATIONS then COINCIDENCE_ENUMERATIONS: the coset numbering and
# every decoration, byte for byte
PINNED_TABLES = [
    "788edf20136d743cea79d0003e2dbd72bcc26904d329d12ad94b8683aab117b5",
    "1b7a824ac762faa0f8875b6a5db470fac7f1c0ab8c1fb7ef0c1921de2f1f1e34",
    "89ea016f27b3f83301030f1173049a5f7fd9a734fadf09af14620416b7ad2f31",
    "523cfbecb7ceeed262b6d7942f6f886f1abccff04af1634453f731a121e5a894",
    "286da299da1512e6300400714a98881ce1452eb3f0c36289412466022ee8deae",
    "0a6847b317a316df409ca96edf03a6e80df5d31304aa67b645ecc50f2812bca8",
    "3853da005bd4956d977818bf69ccf6cedb3de62e83906b7be1cf01a5bbaf733e",
    "f065d319284d8b42ceb2b5a513c060963a1b4cbd38b27fffa838df26c164bece",
    "aa1d2f87b589f7af2f0f7fee49a45f219c744acf85258b31f681b13b51677f44",
    "3199c1880adf9bfbb2ca2f7404172e61e55a4611d43040d843cff6c0128857c1",
    "408652ae1dd346f2ce0139efb5584445e2e3c4497ef33db1d85a0182dea259f0",
]


@pytest.mark.parametrize(
    "case, digest", zip(SMALL_ENUMERATIONS + COINCIDENCE_ENUMERATIONS, PINNED_TABLES)
)
def test_enumerated_tables_are_pinned(case, digest):
    table = todd_coxeter(*case)
    text = json.dumps(table.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("presentation, subgroup", SMALL_ENUMERATIONS)
def test_enumerated_decorations_are_freely_reduced(presentation, subgroup):
    # the enumerator joins words only at their junctions, which is the
    # free reduction only while every word it holds is freely reduced
    table = todd_coxeter(presentation, subgroup)
    for row in table.decorations:
        for deco in row:
            assert free_reduce(deco) == deco


def test_decorated_rewriting_z2():
    z2 = Presentation("xy", ["xyXY"])
    t = todd_coxeter(z2, ["xx", "y"], subgroup_names=("p", "q"))
    assert t.index == 2
    images = [Vec(1, 0), Vec(0, 1)]
    check_decorations(t, images, VEC_ONE)
    rng = random.Random(5)
    hits = 0
    for _ in range(200):
        w = free_reduce(
            tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 13)))
        )
        if t.follow(0, w) == 0:
            hits += 1
            expanded = t.expand_subgroup_word(t.rewrite(w))
            assert evaluate_word(expanded, images, VEC_ONE) == evaluate_word(
                w, images, VEC_ONE
            )
        else:
            with pytest.raises(NotInSubgroup):
                t.rewrite(w)
    assert hits > 20


def test_decorated_rewriting_s3():
    s3 = Presentation("xy", ["xx", "yyy", "xyxy"])
    t = todd_coxeter(s3, ["y"])
    assert t.index == 2
    x = Perm((1, 0, 2))
    y = Perm((1, 2, 0))
    check_decorations(t, [x, y], PERM_ONE)
    # x*y*x = y^-1 in this group, so the word lies in <y>
    got = t.rewrite(s3.parse("xyx"))
    assert evaluate_word(
        t.expand_subgroup_word(got), [x, y], PERM_ONE
    ) == y.inverse()


def check_merged_decorations(table, images, identity):
    """Every edge satisfies rep(a) * x = deco * rep(b) for representatives
    rep(a) in the cosets H * representatives[a].  After a coincidence
    rep(a) may differ from the word representatives[a] by an element of H,
    so rep(b) is read off the breadth-first tree: rep(0) = 1 and rep(b) =
    deco^-1 * rep(a) * x along the edge that first reached b."""

    def value(word):
        return evaluate_word(word, images, identity)

    subgroup, frontier = {identity}, [identity]
    gens = [value(h) for h in table.subgroup_words]
    gens += [g.inverse() for g in gens]
    while frontier:
        frontier = [h * g for h in frontier for g in gens if h * g not in subgroup]
        subgroup.update(frontier)

    reps = {0: identity}
    for a in range(table.index):
        for col, b in enumerate(table.table[a]):
            g = col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)
            deco = value(table.expand_subgroup_word(table.decorations[a][col]))
            if b not in reps:
                reps[b] = deco.inverse() * reps[a] * value((g,))
            assert reps[a] * value((g,)) == deco * reps[b]
    for rep, word in zip(reps.values(), table.representatives):
        assert rep * value(word).inverse() in subgroup


def test_enumeration_merges_cosets_through_known_edges():
    # both enumerations merge two cosets while an edge of the kept coset's
    # neighbour is already set: a line trace shows the coincidence branch
    # that queues (keep, back) run twice for the first and once for the
    # second.  The tables are checked in S3, where both presentations hold
    z2 = Presentation("ab", ["AAbaa", "abAaa"])  # b = 1 and a^2 = 1
    t = todd_coxeter(z2, [])
    assert t.index == 2
    a, b = Perm((1, 0, 2)), PERM_ONE
    check_decorations(t, [a, b], PERM_ONE)
    values = [evaluate_word(w, [a, b], PERM_ONE) for w in t.representatives]
    assert values == [PERM_ONE, a]

    s3 = Presentation("ab", ["bAABa", "AAbab"])
    assert todd_coxeter(s3, []).index == 6  # so S3 is a faithful model
    t = todd_coxeter(s3, ["Ab"])
    assert t.index == 3
    # a 3-cycle and a transposition satisfy both relators
    check_merged_decorations(t, [Perm((1, 2, 0)), Perm((1, 0, 2))], PERM_ONE)
    assert t.decorations[0][0] == (-1,)  # the tree edge 0 -a-> 1 carries h^-1


def test_schreier_graph_matches_enumeration():
    s3 = Presentation("xy", ["xx", "yyy", "xyxy"])
    t = todd_coxeter(s3, ["y"])
    x = Perm((1, 0, 2))
    y = Perm((1, 2, 0))
    subgroup = {PERM_ONE, y, y * y}
    sg = schreier_graph_arith(lambda p: p in subgroup, [x, y], PERM_ONE)
    assert sg.table == t.table
    assert sg.representatives == t.representatives


def test_schreier_graph_cap():
    with pytest.raises(CapExceeded):
        schreier_graph_arith(
            lambda v: v == VEC_ONE, [Vec(1, 0), Vec(0, 1)], VEC_ONE, cap=30
        )


def test_surface_identity_subgroup():
    t = todd_coxeter(SURFACE, ["a", "b", "c", "d"])
    assert t.index == 1
    assert t.rewrite(SURFACE.parse("a")) == (1,)
    # the relator rewrites to a subgroup word that is a relation there
    assert t.follow(0, SURFACE.parse("AdcbCaBD")) == 0


def test_smith_invariants_frozen():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[1, 2, 3]]) == [1]


# the larger matrices make the row and column reductions alternate for
# several rounds
@pytest.mark.parametrize(
    "max_rows, max_cols, entry", [(4, 5, 6), (7, 7, 40)], ids=["4x5-6", "7x7-40"]
)
def test_smith_invariants_against_sympy(max_rows, max_cols, entry):
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randrange(1, max_rows + 1)
        n = rng.randrange(1, max_cols + 1)
        rows = [[rng.randrange(-entry, entry + 1) for _ in range(n)] for _ in range(m)]
        mine = smith_invariants(rows)
        s = sympy_snf(sympy.Matrix(rows))
        theirs = [abs(s[i, i]) for i in range(min(m, n)) if s[i, i] != 0]
        assert mine == theirs, rows
        for d1, d2 in zip(mine, mine[1:]):
            assert d2 % d1 == 0


def test_smith_invariants_scramble_invariance():
    rng = random.Random(9)
    base = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    expected = smith_invariants(base)
    for _ in range(20):
        rows = [list(r) for r in base]
        for _ in range(6):
            op = rng.randrange(4)
            i, j = rng.randrange(3), rng.randrange(3)
            if op == 0:
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 1:
                for r in rows:
                    r[i], r[j] = r[j], r[i]
            elif op == 2 and i != j:
                k = rng.randrange(-3, 4)
                rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
            else:
                rows[i] = [-x for x in rows[i]]
        assert smith_invariants(rows) == expected


def test_abelianization_cases():
    assert abelianization(SURFACE) == AbelianStructure(4, ())
    assert abelianization(Presentation("x", ["xx"])) == AbelianStructure(0, (2,))
    assert abelianization(Presentation("xy", ["xx", "yyy"])) == AbelianStructure(
        0, (6,)
    )
    # trefoil knot group abelianizes to Z
    assert abelianization(Presentation("xy", ["xxYYY"])) == AbelianStructure(1, ())
    assert abelianization(Presentation("xy", [])) == AbelianStructure(2, ())
    assert str(AbelianStructure(1, (2,))) == "Z x Z/2"
    assert str(AbelianStructure(0, ())) == "trivial"


def test_genus_from_index():
    assert genus_from_index(2, 12) == 13
    assert genus_from_index(2, 1) == 2
    assert genus_from_index(3, 2) == 5
    # Euler characteristic multiplicativity
    for g in range(2, 5):
        for n in range(1, 8):
            g2 = genus_from_index(g, n)
            assert 2 - 2 * g2 == n * (2 - 2 * g)
    with pytest.raises(ValueError):
        genus_from_index(1, 3)
