"""The arithmetic membership tests against a reference route.

The reference reads the definitions directly: pull the matrix back to a
quaternion, solve for its coordinates in the basis of O by Gaussian
elimination over the rationals, and conjugate by t explicitly.  The tests
under check take the verdicts' own path instead: the folded quaternion's
contains_unit in orders built in advance, O, t O t^-1 and the two Eichler
orders.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab import hnn
from hnnlab.exact import NotInImage, phi_inverse
from hnnlab.hnn import STABLE_PAIRS, load_builtin_group
from hnnlab.quat import solve_in_rows, standard_order

G = load_builtin_group()
ORDER = standard_order()
T = G.images[4]
T_INV = T.inverse()


def ref_in_unit_group(m) -> bool:
    try:
        q = phi_inverse(m.rep)
    except NotInImage:
        return False
    coords = solve_in_rows(list(ORDER.basis), q.coords())
    return (
        coords is not None
        and all(x.denominator == 1 for x in coords)
        and q.nrd() == 1
    )


def ref_in_conjugate_unit_group(m) -> bool:
    return ref_in_unit_group(T_INV * m * T)


def ref_in_target_subgroup(m) -> bool:
    return ref_in_unit_group(m) and ref_in_conjugate_unit_group(m)


def ref_in_source_subgroup(m) -> bool:
    return ref_in_unit_group(m) and ref_in_target_subgroup(T * m * T_INV)


# each order of G.oracles with the reference for its norm-one units
ORACLES = {
    "order": ref_in_unit_group,
    "conjugate_order": ref_in_conjugate_unit_group,
    "target_order": ref_in_target_subgroup,
    "source_order": ref_in_source_subgroup,
}

LETTERS = [(g,) for x in range(1, 6) for g in (x, -x)]
U_WORDS = [G.vertex.parse(u) for u, _ in STABLE_PAIRS]
V_WORDS = [G.vertex.parse(v) for _, v in STABLE_PAIRS]


def _products(pieces):
    inverted = [tuple(-g for g in reversed(p)) for p in pieces]
    return st.lists(st.sampled_from(pieces + inverted), min_size=1, max_size=4)


# words over a..d, t^+-1 and the u_i / v_i, plus products inside H and K
WORDS = st.one_of(
    _products(LETTERS),
    _products(LETTERS + U_WORDS + V_WORDS),
    _products(U_WORDS),
    _products(V_WORDS),
).map(lambda pieces: sum(pieces, ()))


def test_oracles_agree_with_reference_route():
    oracles = G.oracles
    seen = {name: set() for name in ORACLES}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(WORDS)
    def check(word):
        m = G.evaluate(word)
        q = hnn._fold(word, G._units)
        for name, reference in ORACLES.items():
            verdict = getattr(oracles, name).contains_unit(q)
            assert verdict == reference(m), (name, G.ambient.render(word))
            seen[name].add(verdict)

    check()
    for name, verdicts in seen.items():
        assert verdicts == {True, False}, name
