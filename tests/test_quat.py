from __future__ import annotations

import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab.exact import Mat2, QuadExt
from hnnlab.quat import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    NotFullRank,
    NotInImage,
    OrderLattice,
    Quaternion,
    SubgroupOracles,
    gram_reduced_discriminant,
    hilbert_symbol,
    hnf_rational_rows,
    lipschitz_like_order,
    phi,
    phi_inverse,
    ramified_primes,
    ring_closure,
    solve_in_rows,
    standard_generators,
    standard_oracles,
    standard_order,
)

F = Fraction


def _random_quaternion(rng: random.Random) -> Quaternion:
    return Quaternion(
        F(rng.randint(-12, 12), rng.randint(1, 6)),
        F(rng.randint(-12, 12), rng.randint(1, 6)),
        F(rng.randint(-12, 12), rng.randint(1, 6)),
        F(rng.randint(-12, 12), rng.randint(1, 6)),
    )


def test_multiplication_table() -> None:
    assert QUAT_I * QUAT_I == Quaternion(2)
    assert QUAT_J * QUAT_J == Quaternion(13)
    assert QUAT_I * QUAT_J == QUAT_K
    assert QUAT_J * QUAT_I == -QUAT_K
    assert QUAT_K * QUAT_K == Quaternion(-26)
    assert QUAT_I * QUAT_K == Quaternion(0, 0, 2, 0)
    assert QUAT_K * QUAT_I == Quaternion(0, 0, -2, 0)
    assert QUAT_J * QUAT_K == Quaternion(0, -13, 0, 0)
    assert QUAT_K * QUAT_J == Quaternion(0, 13, 0, 0)


def test_norm_and_trace_forms() -> None:
    rng = random.Random(10)
    for _ in range(300):
        q = _random_quaternion(rng)
        # q * conj(q) is the scalar nrd(q)
        assert q * q.conj() == Quaternion(q.nrd())
        assert q + q.conj() == Quaternion(q.trd())
        p = _random_quaternion(rng)
        assert (p * q).nrd() == p.nrd() * q.nrd()
        assert (p * q).conj() == q.conj() * p.conj()


def test_standard_generators_have_norm_one() -> None:
    gens = standard_generators()
    assert set(gens) == {"a", "b", "c", "d", "t"}
    for name, q in gens.items():
        assert q.nrd() == 1, name
    assert gens["t"] == Quaternion(F(1, 3), 1, 0, F(1, 3))
    assert gens["a"].trd() == 3
    assert gens["b"].trd() == 3
    assert gens["c"].trd() == 5
    assert gens["d"].trd() == 7
    assert gens["t"].trd() == F(2, 3)


def test_phi_on_basis() -> None:
    r2 = QuadExt.sqrt_d(2)
    zero = QuadExt(2, 0)
    assert phi(QUAT_ONE) == Mat2.identity(2)
    assert phi(QUAT_I) == Mat2(2, r2, zero, zero, -r2)
    assert phi(QUAT_J) == Mat2(2, 0, 1, 13, 0)
    assert phi(QUAT_K) == Mat2(2, zero, r2, -13 * r2, zero)


def test_phi_on_standard_generators() -> None:
    gens = standard_generators()
    ta = phi(gens["a"])
    assert ta == Mat2(
        2,
        QuadExt(2, F(3, 2), F(3, 2)),
        QuadExt(2, F(-1, 2), F(-1, 2)),
        QuadExt(2, F(-13, 2), F(13, 2)),
        QuadExt(2, F(3, 2), F(-3, 2)),
    )
    tc = phi(gens["c"])
    assert tc == Mat2(
        2,
        QuadExt(2, F(5, 2), 1),
        QuadExt(2, F(-1, 2), 0),
        QuadExt(2, F(-13, 2), 0),
        QuadExt(2, F(5, 2), -1),
    )
    tt = phi(gens["t"])
    assert tt == Mat2(
        2,
        QuadExt(2, F(1, 3), 1),
        QuadExt(2, 0, F(1, 3)),
        QuadExt(2, 0, F(-13, 3)),
        QuadExt(2, F(1, 3), -1),
    )
    assert tt.trace() == F(2, 3)
    assert ta.det() == 1
    assert tt.det() == 1


def _raw_quaternion(rng: random.Random, fractions: float) -> Quaternion:
    """Coordinates kept as drawn: each a Fraction with the given chance,
    else an int, as in the integer rows of an OrderLattice."""
    return Quaternion._raw(
        *(
            F(rng.randint(-12, 12), rng.randint(1, 6))
            if rng.random() < fractions
            else rng.randint(-12, 12)
            for _ in range(4)
        )
    )


def test_phi_is_a_ring_homomorphism() -> None:
    rng = random.Random(11)
    draws = [
        lambda: _random_quaternion(rng),
        lambda: _raw_quaternion(rng, 0.0),
        lambda: _raw_quaternion(rng, 0.5),
    ]
    for draw in draws:
        for _ in range(300):
            p, q = draw(), draw()
            assert phi(p * q) == phi(p) * phi(q)
            assert phi(p + q).trace() == phi(p).trace() + phi(q).trace()
            assert phi(p).det() == QuadExt(2, p.nrd())
            assert phi(p).trace() == QuadExt(2, p.trd())
            # the product is exact whatever the mix of coordinate types
            assert p * q == Quaternion(*p.coords()) * Quaternion(*q.coords())
    for _ in range(100):
        p, q = _raw_quaternion(rng, 0.0), _raw_quaternion(rng, 0.0)
        assert all(type(x) is int for x in (p * q).coords())


def test_phi_inverse_round_trip() -> None:
    rng = random.Random(12)
    for _ in range(200):
        q = _random_quaternion(rng)
        assert phi_inverse(phi(q)) == q
    with pytest.raises(NotInImage):
        phi_inverse(Mat2(2, 0, 1, 1, 0))
    with pytest.raises(NotInImage):
        phi_inverse(Mat2(5, 1, 0, 0, 1))


def test_hnf_and_solve() -> None:
    rows = [
        (F(2), F(0), F(0), F(0)),
        (F(1), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(0), F(0), F(0), F(1)),
        (F(3), F(1), F(0), F(0)),
    ]
    basis = hnf_rational_rows(rows)
    # the span is the index-2 sublattice of Z^4 with even x0 + x1
    assert basis == [
        (F(1), F(1), F(0), F(0)),
        (F(0), F(2), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(0), F(0), F(0), F(1)),
    ]
    outside = solve_in_rows(basis, (F(1), F(0), F(0), F(0)))
    assert outside == (F(1), F(-1, 2), F(0), F(0))
    inside = solve_in_rows(basis, (F(3), F(1), F(0), F(0)))
    assert inside == (F(3), F(-1), F(0), F(0))


def test_coordinates_of_one_in_generator_span() -> None:
    gens = standard_generators()
    rows = [gens[n].coords() for n in "abcd"]
    basis = hnf_rational_rows(rows)
    assert len(basis) == 4
    # solve 1 = x_a a + x_b b + x_c c + x_d d directly against the raw rows
    # via the echelon basis, then confirm the hand-solved coefficients
    coeffs = (F(1, 2), F(1, 2), F(-2, 3), F(1, 3))
    combo = Quaternion()
    for x, name in zip(coeffs, "abcd"):
        combo = combo + Quaternion(x) * gens[name]
    assert combo == QUAT_ONE
    # non-integral coefficients: the generator span alone misses 1
    in_span = solve_in_rows([tuple(r) for r in rows], QUAT_ONE.coords())
    assert in_span == coeffs


def test_ring_closure_of_obvious_order() -> None:
    order = lipschitz_like_order()
    ident = [
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(0), F(0), F(0), F(1)),
    ]
    assert list(order.basis) == ident
    assert order.reduced_discriminant() == 104


def test_ring_closure_of_standard_generators_is_maximal() -> None:
    order = standard_order()
    assert order.contains(QUAT_ONE)
    for name, q in standard_generators().items():
        if name == "t":
            assert not order.contains(q)
        else:
            assert order.contains(q)
    disc = order.reduced_discriminant()
    ram = ramified_primes(2, 13)
    assert ram == [2, 13]
    prod = 1
    for p in ram:
        prod *= p
    # two independent routes: trace form Gram determinant vs ramification
    assert disc == prod == 26


def test_ring_closure_takes_a_second_round() -> None:
    # j * k = -13i leaves <1, 2i, j, k>, so a second round adds i
    gens = [Quaternion(0, 2), QUAT_J, QUAT_K]
    with pytest.raises(ValueError, match="not closed under multiplication"):
        OrderLattice([QUAT_ONE.coords()] + [q.coords() for q in gens])
    order = ring_closure(gens)
    assert order == lipschitz_like_order()
    assert order.reduced_discriminant() == 104


@pytest.mark.parametrize(
    "gens",
    [
        # nrd(i/2) = -1/2: saturation alone would square the denominator
        # every round and never stop
        [Quaternion(0, F(1, 2)), QUAT_J, QUAT_K],
        # x = (i + 2j)/3 has trd 0 and nrd -6, but trd(x * j) = 52/3
        [Quaternion(0, F(1, 3), F(2, 3)), QUAT_J, QUAT_K],
    ],
)
def test_ring_closure_refuses_a_ring_in_no_order(gens) -> None:
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="not integral"):
        ring_closure(gens)
    # the refusal comes in the first round, well inside 1 s
    assert time.perf_counter() - start < 1.0


def test_discriminant_scales_with_index() -> None:
    order = standard_order()
    rows = [list(r) for r in order.basis]
    rows[0] = [2 * x for x in rows[0]]
    doubled = hnf_rational_rows([tuple(r) for r in rows])
    assert gram_reduced_discriminant(doubled) == 2 * order.reduced_discriminant()


def test_discriminant_survives_unimodular_row_operations() -> None:
    rng = random.Random(19)
    for _ in range(20):
        rows = [list(r) for r in standard_order().basis]
        for _ in range(12):
            i, j = rng.sample(range(4), 2)
            op = rng.randrange(3)
            if op == 0:
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 1:
                rows[i] = [-x for x in rows[i]]
            else:
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        assert gram_reduced_discriminant(rows) == 26
        i, j, k = rng.sample(range(4), 3)
        rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
        with pytest.raises(NotFullRank):
            gram_reduced_discriminant(rows)


def test_order_validation_rejects_non_orders() -> None:
    # the generator span without 1 is not an order
    gens = standard_generators()
    rows = [gens[n].coords() for n in "abcd"]
    with pytest.raises(ValueError):
        OrderLattice(rows)
    with pytest.raises(NotFullRank):
        ring_closure([QUAT_I])


def test_hilbert_symbols() -> None:
    assert hilbert_symbol(2, 13, 13) == -1
    assert hilbert_symbol(2, 13, 2) == -1
    assert hilbert_symbol(2, 13, 3) == 1
    assert hilbert_symbol(2, 13, None) == 1
    # Hamilton-like algebra (-1, -1): ramified at 2 and the real place
    assert ramified_primes(-1, -1) == [2]
    assert hilbert_symbol(-1, -1, None) == -1
    # split algebra (1, n)
    assert ramified_primes(1, 7) == []
    assert ramified_primes(-1, 3) == [2, 3]


def test_hilbert_symbol_refuses_non_primes() -> None:
    for p in (0, 1, 4, 9, 15, 91):
        with pytest.raises(ValueError, match="not a prime"):
            hilbert_symbol(2, 13, p)
    # a place is an int: a float is refused even where it equals a prime
    for p in (2.0, 3.0, 13.0):
        with pytest.raises(ValueError, match=f"not a prime: {p}"):
            hilbert_symbol(2, 13, p)
    # 2 and 13 are units at every odd prime but 13
    primes = (3, 5, 7, 13, 10007)
    assert [hilbert_symbol(2, 13, p) for p in primes] == [1, 1, 1, -1, 1]


def test_hilbert_product_formula() -> None:
    rng = random.Random(13)
    for _ in range(60):
        a = rng.choice([x for x in range(-15, 16) if x != 0])
        b = rng.choice([x for x in range(-15, 16) if x != 0])
        candidates = sorted(
            {2}
            | {p for p in range(2, 40) if a % p == 0 and _is_prime_local(p)}
            | {p for p in range(2, 40) if b % p == 0 and _is_prime_local(p)}
        )
        prod = hilbert_symbol(a, b, None)
        for p in candidates:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_hilbert_product_formula_over_rationals() -> None:
    # numerators up to 500 and denominators up to 60: high 2-adic valuations,
    # and denominators that the symbol clears by squares
    odd_primes = [p for p in range(3, 500) if _is_prime_local(p)]
    rng = random.Random(36)
    for _ in range(3000):
        a, b = (
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 500), rng.randint(1, 60))
            for _ in range(2)
        )
        parts = (a.numerator, a.denominator, b.numerator, b.denominator)
        places = [None, 2] + [p for p in odd_primes if any(n % p == 0 for n in parts)]
        assert prod(hilbert_symbol(a, b, p) for p in places) == 1, (a, b)


def _is_prime_local(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_membership_oracles() -> None:
    oracles = standard_oracles()
    gens = standard_generators()

    for n in "abcd":
        assert oracles.order.contains_unit(gens[n]), n
    assert not oracles.order.contains_unit(gens["t"])
    # d lies in the intersection subgroup
    assert oracles.target_order.contains_unit(gens["d"])
    # membership is stable under products inside the unit group
    prod = gens["a"] * gens["b"] * gens["c"].inverse()
    assert oracles.order.contains_unit(prod)


def test_membership_nesting_on_random_words() -> None:
    oracles = standard_oracles()
    gens = standard_generators()
    t = gens["t"]
    units = [gens[n] for n in "abcd"]
    units += [q.inverse() for q in units]
    rng = random.Random(14)
    for _ in range(40):
        q = QUAT_ONE
        for _ in range(rng.randint(1, 10)):
            q = q * rng.choice(units)
        assert oracles.order.contains_unit(q)
        if oracles.target_order.contains_unit(q):
            assert oracles.conjugate_order.contains_unit(q)
        if oracles.source_order.contains_unit(q):
            conj = t * q * t.inverse()
            assert oracles.target_order.contains_unit(conj)


def test_contains_matches_solved_coordinates() -> None:
    # the precomputed integer inverse against Gaussian elimination
    oracles = standard_oracles()
    lattices = [
        oracles.order,
        oracles.conjugate_order,
        oracles.target_order,
        oracles.source_order,
        lipschitz_like_order(),
    ]
    rng = random.Random(15)
    for lattice in lattices:
        elems = [Quaternion(*row) for row in lattice.basis]
        verdicts = set()
        for _ in range(60):
            q = Quaternion()
            for e in elems:
                q = q + Quaternion(rng.randint(-9, 9)) * e
            if rng.random() < 0.5:
                q = q + Quaternion(F(1, rng.choice([2, 3, 6, 9, 18]))) * rng.choice(elems)
            coords = solve_in_rows(list(lattice.basis), q.coords())
            expected = all(x.denominator == 1 for x in coords)
            assert lattice.contains(q) == expected, (lattice, q)
            verdicts.add(expected)
        assert verdicts == {True, False}


def test_edge_orders_are_eichler_of_level_9() -> None:
    # O meet t O t^-1 and O meet t^-1 O t: index N = 9 in O and reduced
    # discriminant 26 * 9; their norm-one groups then have index
    # p^(e-1) * (p + 1) = 12 for N = 3^2 (Voight, Quaternion Algebras, GTM 288)
    oracles = standard_oracles()
    order = oracles.order
    assert order.reduced_discriminant() == 26
    assert oracles.target_order != oracles.source_order
    for eichler in (oracles.target_order, oracles.source_order):
        assert OrderLattice(eichler.basis) == eichler  # validates the axioms
        assert all(order.contains(Quaternion(*row)) for row in eichler.basis)
        # HNF bases are upper triangular, so the index is a diagonal ratio
        index = prod(eichler.basis[i][i] for i in range(4)) / prod(
            order.basis[i][i] for i in range(4)
        )
        assert index == 9
        assert gram_reduced_discriminant(eichler.basis) == 234 == 26 * 9


_T = standard_generators()["t"]
EDGE_CONJUGATORS = {
    "t": _T,
    "t^2": _T * _T,
    "a*t": standard_generators()["a"] * _T,
    "4+j (nrd 3)": Quaternion(4, 0, 1, 0),
    "j+k (nrd 13)": Quaternion(0, 0, 1, 1),
}


@pytest.mark.parametrize("name", EDGE_CONJUGATORS)
def test_edge_orders_equal_their_definitions(name) -> None:
    # SubgroupOracles builds the source order as the target order
    # conjugated by g^-1, since g^-1 (O meet g O g^-1) g = O meet g^-1 O g;
    # the definitions stay here as the reference
    g = EDGE_CONJUGATORS[name]
    order = standard_order()
    oracles = SubgroupOracles(order, g)
    assert oracles.conjugate_order == order.conjugate(g)
    assert oracles.target_order == order.intersect(order.conjugate(g))
    assert oracles.source_order == order.intersect(order.conjugate(g.conj()))


# The HNF bases of the built-in orders, as the rational rows .basis returns.
PINNED_BASES = {
    "order": [
        ["1/2", "0", "1/2", "0"],
        ["0", "1/2", "0", "1/2"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ],
    "conjugate_order": [
        ["1/2", "0", "3/2", "1"],
        ["0", "1/18", "17/9", "7/6"],
        ["0", "0", "3", "2"],
        ["0", "0", "0", "3"],
    ],
    "target_order": [
        ["1/2", "0", "3/2", "1"],
        ["0", "1/2", "2", "1/2"],
        ["0", "0", "3", "2"],
        ["0", "0", "0", "3"],
    ],
    "source_order": [
        ["1/2", "0", "3/2", "2"],
        ["0", "1/2", "1", "3/2"],
        ["0", "0", "3", "1"],
        ["0", "0", "0", "3"],
    ],
}


def test_order_bases_are_pinned() -> None:
    oracles = standard_oracles()
    lattices = {name: getattr(oracles, name) for name in PINNED_BASES}
    lattices["lipschitz_like"] = lipschitz_like_order()
    expected = dict(PINNED_BASES, lipschitz_like=[
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ])
    for name, lattice in lattices.items():
        assert type(lattice.basis) is tuple, name
        assert all(type(x) is F for row in lattice.basis for x in row), name
        assert [[str(x) for x in row] for row in lattice.basis] == expected[name], name
        # a lattice rebuilt from its own rational rows is the same lattice
        assert OrderLattice(lattice.basis) == lattice, name


_GENERATORS = standard_generators()
_LETTERS = [_GENERATORS[n] for n in "abcdt"]
_LETTERS += [q.conj() for q in _LETTERS]
_COORDS = st.fractions(min_value=-20, max_value=20, max_denominator=18)


def _in_lattice_by_solving(lattice: OrderLattice, q: Quaternion) -> bool:
    coords = solve_in_rows(list(lattice.basis), q.coords())
    return coords is not None and all(x.denominator == 1 for x in coords)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(_LETTERS), max_size=6),
    st.lists(
        st.tuples(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            st.sampled_from([1, 1, 2, 3, 9, 18]),
            st.lists(st.sampled_from(_LETTERS), max_size=6),
            st.tuples(_COORDS, _COORDS, _COORDS, _COORDS),
        ),
        min_size=4,
        max_size=4,
    ),
)
def test_membership_agrees_with_solving_in_conjugated_orders(conjugator, draws) -> None:
    # O conjugated by a word of at most 6 letters over a..d, t and their
    # inverses, and its intersection with O: the integer inverse columns
    # against Gaussian elimination over Q
    g = prod(conjugator, start=QUAT_ONE)
    order = standard_order()
    conjugate = order.conjugate(g)
    for lattice in (conjugate, order.intersect(conjugate)):
        elems = [Quaternion(*row) for row in lattice.basis]
        for coeffs, den, word, coords in draws:
            # a lattice point moved by a small denominator, a norm-one
            # product of letters, and a random rational quaternion
            near = sum((Quaternion(c) * e for c, e in zip(coeffs, elems)), Quaternion())
            near = near + Quaternion(F(1, den)) * elems[den % 4]
            for q in (near, prod(word, start=QUAT_ONE), Quaternion(*coords)):
                expected = _in_lattice_by_solving(lattice, q)
                assert lattice.contains(q) == expected, (lattice, q)
                assert lattice.contains_unit(q) == (expected and q.nrd() == 1), (lattice, q)
