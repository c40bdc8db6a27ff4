"""HnnGroup.evaluate against the matrix fold it replaced.

The reference multiplies the letters' matrices over Q(sqrt(2)) one at a
time and normalizes the sign after every product: comb.evaluate_word over
the group's ProjMat images.  The group multiplies norm-one quaternions and
embeds only the product, so the two must agree exactly, down to the
canonical sign of the representative, and the group's own identity test
on the product (it is +-1) must agree with the matrix one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab.comb import evaluate_word, invert_word
from hnnlab.exact import ProjMat
from hnnlab import hnn
from hnnlab.hnn import load_builtin_group
from hnnlab.quat import QUAT_ONE

G = load_builtin_group()
IDENTITY = ProjMat.identity(2)
LETTERS = [g for x in range(1, 6) for g in (x, -x)]


def reference_evaluate(word) -> ProjMat:
    return evaluate_word(word, G.images, IDENTITY)


RANDOM_WORDS = st.lists(st.sampled_from(LETTERS), max_size=300).map(tuple)


@st.composite
def relator_products(draw):
    """Products of conjugated ambient relators (trivial), sometimes with
    one letter inserted (then usually not)."""
    word: tuple[int, ...] = ()
    for _ in range(draw(st.integers(1, 6))):
        g = tuple(draw(st.lists(st.sampled_from(LETTERS), max_size=8)))
        r = draw(st.sampled_from(G.ambient.relators))
        word += g + r + invert_word(g)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(word)))
        word = word[:i] + (draw(st.sampled_from(LETTERS)),) + word[i:]
    return word


def test_evaluate_matches_the_matrix_fold():
    verdicts = set()

    def compare(word):
        got, want = G.evaluate(word), reference_evaluate(word)
        assert got == want
        assert repr(got) == repr(want)
        assert got.is_identity() == want.is_identity()
        assert got.is_identity() == hnn._is_one(hnn._fold(word, G._units))
        verdicts.add(got.is_identity())

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(RANDOM_WORDS, relator_products()))
    def check(word):
        assert len(word) <= 300
        compare(word)

    check()
    assert verdicts == {True, False}

    # the fold starts from the first letter's image: the empty word, one
    # letter either way round, and a word whose first letter is inverted,
    # over ProjMat and over quaternion images
    for images, identity in ((G.images, IDENTITY), (G.generators, QUAT_ONE)):
        a, b, c, d, t = images
        expected = {
            (): identity,
            (3,): c,
            (-2,): b.inverse(),
            (-4, 1, 5): d.inverse() * a * t,
        }
        for word, value in expected.items():
            assert evaluate_word(word, images, identity) == value
            compare(word)
