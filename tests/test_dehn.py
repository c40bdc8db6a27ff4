"""Dehn reduction against a reference route and against the matrices.

The reference is the restart-from-zero loop: scan the freely reduced word
from the left for a subword matching more than half of a symmetrized
relator, replace the leftmost-longest match (first relator in sorted order
on a tie) by the shorter complement, and rescan from the start.
``dehn_reduce`` instead makes one left-to-right scan, finding each match
with one compiled pattern over the word's column bytes and editing them
in place, and steps back only as far as a new match can start.  Both make
the same replacements in the same order, so they must return the same
word.
"""

import hashlib
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab.comb import (
    NotDehnPresentation,
    Presentation,
    _col,
    _common_prefix_len,
    _dehn_rules,
    _encode,
    _free_reduce_columns,
    _validate_word,
    dehn_reduce,
    free_reduce,
    invert_word,
    is_metric_sixth,
    symmetrized_relators,
)
from hnnlab.hnn import load_builtin_group

G = load_builtin_group()
SURFACE = G.vertex
# genus 2 on a..d and genus 3 on e..j: relators of lengths 8 and 12
TWO_RELATORS = Presentation("abcdefghij", ["AdcbCaBD", "efEFghGHijIJ"])
# genus 10 on a..t: one relator of length 40, the product of the ten
# commutators [a, b] [c, d] ... [s, t]
GENUS10 = Presentation(
    "abcdefghijklmnopqrst",
    ["".join(x + y + x.upper() + y.upper() for x, y in zip("acegikmoqs", "bdfhjlnprt"))],
)
PRESENTATIONS = [SURFACE, TWO_RELATORS, GENUS10]
IDS = ["genus2", "genus2+3", "genus10"]
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def reference_dehn_reduce(word, presentation):
    sym = symmetrized_relators(presentation)
    if not sym or not is_metric_sixth(sym):
        raise NotDehnPresentation("relators do not satisfy C'(1/6)")
    w = free_reduce(word)
    while True:
        replaced = False
        for i in range(len(w)):
            best_k, best_r = 0, None
            for r in sym:
                k = _common_prefix_len(w[i:], r)
                if 2 * k > len(r) and k > best_k:
                    best_k, best_r = k, r
            if best_r is not None:
                w = free_reduce(w[:i], invert_word(best_r[best_k:]), w[i + best_k :])
                replaced = True
                break
        if not replaced:
            return w


def letters(p):
    return [g for x in range(1, p.ngens + 1) for g in (x, -x)]


def random_words(p, max_size=60):
    return st.lists(st.sampled_from(letters(p)), max_size=max_size).map(tuple)


def h1_nonzero(p):
    """Words with a nonzero exponent sum in some generator: nontrivial in a
    surface group, whose relators have every exponent sum zero."""
    return random_words(p, 6).filter(
        lambda w: any(sum(g == x for g in w) != sum(g == -x for g in w)
                      for x in range(1, p.ngens + 1))
    )


@st.composite
def relator_products(draw, p, insert):
    """(word, trivial): a product of rotated, conjugated relators and their
    inverses, with a nonzero-H1 word inserted when ``insert`` is set."""
    word = ()
    for r in draw(st.lists(st.sampled_from(p.relators), min_size=1, max_size=6)):
        r = draw(st.sampled_from((r, invert_word(r))))
        cut = draw(st.integers(0, len(r) - 1))
        x = draw(random_words(p, 4))
        word += x + r[cut:] + r[:cut] + invert_word(x)
    if insert:
        at = draw(st.integers(0, len(word)))
        word = word[:at] + draw(h1_nonzero(p)) + word[at:]
    return word, not insert


def long_pieces(p):
    """Concatenations, without free reduction, of single letters and of
    subwords holding at least half of a symmetrized relator.  A piece
    replaced next to another can complete a match that starts up to
    |r| // 2 letters to its left, which is what the scan's step back is for."""
    pieces = [
        r[:k] for r in symmetrized_relators(p) for k in range(len(r) // 2, len(r) + 1)
    ]
    single = st.sampled_from(letters(p)).map(lambda g: (g,))
    piece = st.one_of(st.sampled_from(pieces), single)
    return st.lists(piece, min_size=1, max_size=12).map(lambda ps: sum(ps, ()))


@st.composite
def cancelling_words(draw, p):
    """Words u1 v1 u2 v2 ... with each v a prefix of the inverse of its u, so
    that free reduction cancels nested runs of up to the whole u."""
    word = ()
    for u in draw(st.lists(random_words(p, 10), max_size=8)):
        word += u + invert_word(u)[: draw(st.integers(0, len(u)))]
    return word


def check_against_reference(p, words):
    shortened = 0

    @SETTINGS
    @given(words)
    def check(word):
        nonlocal shortened
        reduced = dehn_reduce(word, p)
        assert reduced == reference_dehn_reduce(word, p), p.render(word)
        shortened += len(reduced) < len(free_reduce(word))

    check()
    return shortened


def test_encode_takes_exactly_the_letters_of_the_alphabet():
    # ints around each byte boundary of a 4-byte int, and past 32 bits
    values = list(range(-600, 600)) + [
        s * (x << k) + d
        for s in (1, -1) for x in (1, 255) for k in (8, 16, 24, 31) for d in (-1, 0, 1, 2)
    ] + [2**63, 10**30]
    for g in values:
        expected = bytes([_col(g)]) if 0 < abs(g) <= 4 else None
        assert _encode((g,), 4) == expected, g
        assert _encode((1, g, -2), 4) == (expected and b"\x00" + expected + b"\x03"), g


@pytest.mark.parametrize("p", [SURFACE, GENUS10], ids=["genus2", "genus10"])
def test_column_bytes_free_reduce_like_letters(p):
    @SETTINGS
    @given(st.one_of(random_words(p), cancelling_words(p)))
    def check(word):
        columns = _free_reduce_columns(_encode(word, p.ngens))
        assert columns == bytes(map(_col, free_reduce(word))), p.render(word)

    check()


def test_second_presentation_is_sixth_metric():
    sym = symmetrized_relators(TWO_RELATORS)
    assert len(sym) == 16 + 24
    assert is_metric_sixth(sym)


def test_genus10_presentation_has_1600_rules():
    sym = symmetrized_relators(GENUS10)
    assert len(sym) == 80 and {len(r) for r in sym} == {40}
    assert is_metric_sixth(sym)
    # prefixes of 21..40 letters of each relator, none shared
    rules = _dehn_rules(GENUS10.relators, GENUS10.ngens)[1]
    assert len(rules) == 80 * 20


class Index:
    """Not an int, though struct would pack it as one."""

    def __index__(self):
        return 1


class L(IntEnum):
    A = 1


class IntLike:
    """An index, equal to its int and hashed as it, yet no int: a set of
    the letters would merge it with an equal int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __eq__(self, other):
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"IntLike({self.value})"


class BytesInt(bytes):
    """An index that is also a buffer, as numpy's integer scalars are:
    marshal writes it as bytes, and struct packs it as its index."""

    def __index__(self):
        return len(self)


BAD_WORDS = [
    (0, 0), (0,), (9,), (-5, 5), (2.0,), (1, 2.0, -2.0), ("a",),
    # bool 0, past a signed byte, past any machine int, not a number
    (False,), (128,), (-129,), (10**30,), (None,),
]


# the generator is read once: a second read would see the empty word
@pytest.mark.parametrize("word", BAD_WORDS + [iter((1, 0))])
def test_letters_outside_the_alphabet_raise(word):
    # (0, 0) and (-5, 5) cancel freely: letters are checked before that
    with pytest.raises(ValueError, match="outside alphabet"):
        dehn_reduce(word, SURFACE)


# indexes that are no int, alone and after an int of the same value
INT_LIKE_WORDS = [
    (Index(),), (IntLike(1),), (1, IntLike(1)), (BytesInt(b"x"),), (1, BytesInt(b"x")),
]


@pytest.mark.parametrize("word", [w for w in BAD_WORDS if w != (-5, 5)] + INT_LIKE_WORDS)
def test_word_entry_points_name_the_first_bad_letter(word):
    # none of these words holds t = 5, so they are bad in G's alphabet too
    bad = next(g for g in word if type(g) is not int or not 0 < abs(g) <= 4)
    calls = [
        (SURFACE.ngens, lambda: dehn_reduce(word, SURFACE)),
        (G.ambient.ngens, lambda: G.is_trivial(word)),
        (G.ambient.ngens, lambda: G.tree_distance(word)),
    ]
    for ngens, call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"letter {bad!r} outside alphabet of size {ngens}"


def test_numpy_integer_letters_are_refused():
    np = pytest.importorskip("numpy")
    for word in ((np.int64(1),), (1, np.int8(-2))):
        with pytest.raises(ValueError, match="outside alphabet of size 4"):
            dehn_reduce(word, SURFACE)


def test_letters_that_are_ints_are_read_as_ints():
    assert dehn_reduce(iter((1, -1, 2)), SURFACE) == (2,)
    for word, plain in (((True,), (1,)), ((L.A, 2), (1, 2)), ((True, -L.A), ())):
        reduced = dehn_reduce(word, SURFACE)
        assert reduced == dehn_reduce(plain, SURFACE) == plain
        assert all(type(g) is int for g in reduced)
    # so are the letters of relators, which the rules encode
    relator = SURFACE.relators[0]
    mixed = Presentation("abcd", [tuple(L.A if g == 1 else g for g in relator)])
    assert [type(g) for g in mixed.relators[0]] == [int] * len(relator)
    assert dehn_reduce(relator, mixed) == ()


def test_dehn_reduction_takes_at_most_127_generators():
    # a genus-2 relator on the last four generators: letters +-124..+-127
    # fill the top columns of the byte encoding
    names = [f"x{i}" for i in range(1, 128)]
    top = Presentation(names, ["x124^-1*x127*x126*x125*x126^-1*x124*x125^-1*x127^-1"])
    word = top.parse("x1*x124^-1*x127*x126*x125*x126^-1*x124*x125^-1*x127^-1*x127")
    assert dehn_reduce(word, top) == (1, 127)
    assert dehn_reduce(top.relators[0][:5], top) == invert_word(top.relators[0][5:])
    # one generator more: words are still read, but Dehn refuses the alphabet
    wide = Presentation(names + ["x128"], ["x128*x1*x128^-1*x1^-1"])
    assert wide.relators == ((128, 1, -128, -1),)
    assert _validate_word((128, -127, 1), wide.ngens) == (128, -127, 1)
    with pytest.raises(ValueError, match="outside alphabet of size 128"):
        _validate_word((129,), wide.ngens)
    with pytest.raises(ValueError, match="at most 127 generators, not 128"):
        dehn_reduce((1,), wide)


def first_match(p, word):
    """The span of the scan's first match in a freely reduced word."""
    assert free_reduce(word) == word, p.render(word)
    pattern = _dehn_rules(p.relators, p.ngens)[0]
    return pattern.search(_encode(word, p.ngens)).span()


def matches_reference(p, word):
    reduced = dehn_reduce(word, p)
    assert reduced == reference_dehn_reduce(word, p), p.render(word)
    return reduced


@pytest.mark.parametrize(
    "p, k",
    [(SURFACE, 0), (GENUS10, 0), (TWO_RELATORS, 0), (TWO_RELATORS, 1)],
    ids=["genus2", "genus10", "genus2+3-r8", "genus2+3-r12"],
)
def test_conjugated_relator_cancels_to_both_ends(p, k):
    # the relator is the first match and has an empty complement, so the
    # cancellation around it runs to index 0 and to the end of the word;
    # a match of the longest relator's length is deleted without the rule
    # table, and TWO_RELATORS' 8-letter relator, shorter than that, still
    # reads its empty complement there
    r = p.relators[k]
    for u in (p.parse("bc"), p.parse("ddbc")):
        word = u + r + invert_word(u)
        assert first_match(p, word) == (len(u), len(u) + len(r))
        assert matches_reference(p, word) == ()


@pytest.mark.parametrize("p", [SURFACE, GENUS10], ids=["genus2", "genus10"])
def test_partial_match_beside_a_full_relator(p):
    # r[:k], more than half of r and not all of it, goes first when it comes
    # first, replaced by a non-empty complement; the full relator s goes
    # first when it comes first, and then r[:k] follows
    r = p.relators[0]
    n, s = len(r), r[1:] + r[:1]
    for k in range(n // 2 + 1, n):
        for word, span in ((r[:k] + s, (0, k)), (s + r[:k], (0, n))):
            assert first_match(p, word) == span
            assert len(matches_reference(p, word)) < len(word)


@pytest.mark.parametrize("p", [SURFACE, GENUS10], ids=["genus2", "genus10"])
def test_match_joined_by_a_cancellation(p):
    # r split in halves around u s u^-1: neither half is a match, and r
    # matches only once s is replaced and u cancels; the step back lands
    # at index 0 exactly, or one letter after it behind x
    r = p.relators[0]
    half, s, u = len(r) // 2, r[1:] + r[:1], p.parse("bc")
    for x in ((), p.parse("b")):
        word = x + r[:half] + u + s + invert_word(u) + r[half:]
        start = len(x) + half + len(u)
        assert first_match(p, word) == (start, start + len(s))
        assert matches_reference(p, word) == x


@pytest.mark.parametrize("p", PRESENTATIONS, ids=IDS)
def test_random_words_match_reference(p):
    # a random word rarely holds more than half a relator: this checks
    # that the scan leaves words without a match alone
    check_against_reference(p, random_words(p))


@pytest.mark.parametrize("p", PRESENTATIONS, ids=IDS)
@pytest.mark.parametrize("insert", [False, True], ids=["trivial", "h1-insert"])
def test_relator_products_match_reference(p, insert):
    @SETTINGS
    @given(relator_products(p, insert))
    def check(case):
        word, trivial = case
        reduced = dehn_reduce(word, p)
        assert reduced == reference_dehn_reduce(word, p), p.render(word)
        assert (reduced == ()) == trivial, p.render(word)

    check()


@pytest.mark.parametrize("p", PRESENTATIONS, ids=IDS)
def test_long_relator_pieces_match_reference(p):
    assert check_against_reference(p, long_pieces(p)) >= 150


def test_dehn_agrees_with_matrices():
    verdicts = set()
    words = st.one_of(
        random_words(SURFACE, 40),
        relator_products(SURFACE, False).map(lambda c: c[0]),
        relator_products(SURFACE, True).map(lambda c: c[0]),
    )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(words)
    def check(word):
        by_dehn = dehn_reduce(word, SURFACE) == ()
        assert by_dehn == G.evaluate(word).is_identity(), SURFACE.render(word)
        verdicts.add(by_dehn)

    check()
    assert verdicts == {True, False}


def test_non_dehn_presentation_raises_on_every_call():
    z2 = Presentation("xy", ["xyXY"])
    for _ in range(2):
        with pytest.raises(NotDehnPresentation):
            dehn_reduce((1,), z2)


def test_presentations_keep_their_own_rules():
    # the same alphabet with two genus-2 relators: each presentation's
    # relator is reduced to 1 only under its own rules
    first = Presentation("abcd", ["AdcbCaBD"])
    second = Presentation("abcd", ["abABcdCD"])
    u, v = first.relators[0], second.relators[0]
    for _ in range(2):
        assert dehn_reduce(u, first) == ()
        assert dehn_reduce(v, second) == ()
        assert dehn_reduce(v, first) == reference_dehn_reduce(v, first) != ()
        assert dehn_reduce(u, second) == reference_dehn_reduce(u, second) != ()


def long_products(p, seed, count, size=2000):
    """``count`` words of about ``size`` letters, each (word, trivial): a
    product of rotated relators and their inverses under random
    conjugators, with the product so far conjugated as a whole now and
    then, so that replacing one relator lets whole runs of letters cancel.
    Every other word also gets nonzero-H1 inserts, each with a positive
    exponent sum in the first generator, so that the word is nontrivial."""
    rng = random.Random(seed)
    alphabet = letters(p)

    def short(k):
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, k)))

    out = []
    for n in range(count):
        word = ()
        while len(word) < size:
            r = rng.choice(p.relators)
            r = rng.choice((r, invert_word(r)))
            cut = rng.randrange(len(r))
            x = short(6)
            word += x + r[cut:] + r[:cut] + invert_word(x)
            if rng.random() < 0.3:
                x = short(10)
                word = x + word + invert_word(x)
        if n % 2:
            for _ in range(rng.randint(1, 3)):
                insert = short(5)
                while sum(g == 1 for g in insert) <= sum(g == -1 for g in insert):
                    insert = short(5)
                at = rng.randint(0, len(word))
                word = word[:at] + insert + word[at:]
        out.append((word, not n % 2))
    return out


# the SHA-256 of the reduced words of long_products(p, 2024, 40), one repr
# per line, as the scan over latin-1 strings returned them
@pytest.mark.parametrize(
    "p, digest",
    [
        (SURFACE, "8c30c623620b37b16dbce6f6fb9108035a23f80f6ea6bba02ec8ceb3ddf9ea96"),
        (GENUS10, "be43395fd4de7dbece639c40c0279bb4e34e7ab35013dc427995d9ddf1641b9c"),
        (TWO_RELATORS, "0e6b53e34853d352d2c0ef33387ed4d381369a1873ce9ef64331cea8784ad0e1"),
    ],
    ids=["genus2", "genus10", "genus2+3"],
)
def test_long_relator_products_are_pinned(p, digest):
    sha = hashlib.sha256()
    for word, trivial in long_products(p, 2024, 40):
        reduced = dehn_reduce(word, p)
        assert (reduced == ()) == trivial, p.render(word)
        sha.update(repr(reduced).encode() + b"\n")
    assert sha.hexdigest() == digest
