from __future__ import annotations

import random
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, nextprime

from hnnlab.exact import (
    SQUAREFREE_TRIAL_BOUND,
    Mat2,
    MismatchedField,
    NotUnimodular,
    ProjMat,
    QuadExt,
    SingularMatrix,
    render_quadext,
    squarefree_part,
)
from hnnlab.hnn import load_builtin_group
from hnnlab.quat import (
    OrderLattice,
    Quaternion,
    gram_reduced_discriminant,
    hilbert_symbol,
    hnf_rational_rows,
)


def _random_quadext(rng: random.Random, d: int) -> QuadExt:
    num = lambda: rng.randint(-30, 30)
    den = lambda: rng.randint(1, 12)
    return QuadExt(d, Fraction(num(), den()), Fraction(num(), den()))


def test_conjugate_product_is_norm() -> None:
    x = QuadExt(2, 1, 1)  # 1 + sqrt(2)
    y = QuadExt(2, 1, -1)  # 1 - sqrt(2)
    assert x * y == QuadExt(2, -1, 0)
    assert x.norm() == Fraction(-1)


def test_square_in_sqrt5() -> None:
    lam = QuadExt(5, Fraction(3, 2), Fraction(1, 2))
    # (3/2 + 1/2*sqrt(5))^2 = 7/2 + 3/2*sqrt(5), worked out by hand
    assert lam * lam == QuadExt(5, Fraction(7, 2), Fraction(3, 2))
    assert lam ** 2 == lam * lam


def test_inverse_of_sqrt2() -> None:
    r2 = QuadExt.sqrt_d(2)
    assert r2.inv() == QuadExt(2, 0, Fraction(1, 2))
    assert r2 * r2.inv() == 1
    assert 1 / r2 == QuadExt(2, 0, Fraction(1, 2))


def test_exact_signs() -> None:
    assert QuadExt(2, 0, 0).sign() == 0
    # 3/2 - sqrt(2): compare (3/2)^2 = 9/4 against 2, so positive
    assert QuadExt(2, Fraction(3, 2), -1).sign() == 1
    # 1 - sqrt(5) is negative
    assert QuadExt(5, 1, -1).sign() == -1
    assert QuadExt(2, Fraction(-2, 7)).sign() == -1
    assert QuadExt.rational(5, 0).sign() == 0


def test_sign_trichotomy_and_multiplicativity() -> None:
    rng = random.Random(0)
    for _ in range(1000):
        d = rng.choice([2, 3, 5, 21])
        x = _random_quadext(rng, d)
        y = _random_quadext(rng, d)
        sx, sy = x.sign(), y.sign()
        assert sx in (-1, 0, 1)
        assert (x * y).sign() == sx * sy
        assert (-x).sign() == -sx
        if sx != 0:
            assert (x * x).sign() == 1


def test_field_axioms_random_triples() -> None:
    rng = random.Random(1)
    for _ in range(1000):
        d = rng.choice([2, 5])
        x = _random_quadext(rng, d)
        y = _random_quadext(rng, d)
        z = _random_quadext(rng, d)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if x:
            assert x * x.inv() == 1
            assert (x / x) == 1


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# squarefree field parameters, among them the trace fields of the lattice
FIELDS = st.sampled_from([2, 3, 5, 6, 7, 13, 21, 2173])
RATIONALS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


def _quads(d: int, count: int):
    return st.tuples(*[st.builds(lambda a, b: QuadExt(d, a, b), RATIONALS, RATIONALS)] * count)


@PROPERTY
@given(FIELDS.flatmap(lambda d: _quads(d, 3)))
def test_field_axioms_hold(xyz) -> None:
    x, y, z = xyz
    zero, one = QuadExt(x.d), QuadExt(x.d, 1)
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x + (-x) == zero
    assert x - y == x + (-y)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conj() == QuadExt(x.d, x.norm())
    if x:
        assert x * x.inv() == one
        assert (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            y / x


def _sign_by_bracket(x: QuadExt) -> int:
    """Sign of a + b*sqrt(d) from the rational bracket r/n < sqrt(d) < (r+1)/n,
    r = isqrt(d*n*n), refined until the value's bracket excludes 0.  sqrt(d)
    is irrational, so a + b*sqrt(d) = 0 only when a = b = 0."""
    if x.a == 0 and x.b == 0:
        return 0
    n = 1
    while True:
        r = isqrt(x.d * n * n)
        lo, hi = sorted((x.a + x.b * Fraction(r, n), x.a + x.b * Fraction(r + 1, n)))
        if lo >= 0 or hi <= 0:
            # the value lies strictly between lo and hi when b != 0
            return 1 if hi > 0 else -1
        n *= 2


def _convergents(d: int):
    """Continued-fraction convergents p/q of sqrt(d): |sqrt(d) - p/q| < 1/q^2."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    while True:
        yield p1, q1
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0


@st.composite
def _near_zero(draw):
    """b * (sqrt(d) - p/q) for a convergent p/q: smaller than |b|/q^2, far
    below what a float sum a + b*sqrt(d) resolves once q passes 10^8."""
    d = draw(FIELDS)
    p, q = next(islice(_convergents(d), draw(st.integers(0, 40)), None))
    b = draw(RATIONALS.filter(bool))
    return QuadExt(d, -b * Fraction(p, q), b)


@PROPERTY
@given(st.one_of(FIELDS.flatmap(lambda d: _quads(d, 1)).map(lambda t: t[0]), _near_zero()))
def test_sign_matches_rational_bracket(x) -> None:
    assert x.sign() == _sign_by_bracket(x)
    assert (-x).sign() == -x.sign()


def test_ordering_is_total_and_exact() -> None:
    # 3/2 + 1/2*sqrt(5) < 5/2 + 1/2*sqrt(5) < 5/2 + 1/2*sqrt(21) needs
    # cross-field care, so stay inside one field per comparison.
    lo = QuadExt(5, Fraction(3, 2), Fraction(1, 2))
    hi = QuadExt(5, Fraction(5, 2), Fraction(1, 2))
    assert lo < hi
    assert hi > lo
    assert lo <= lo
    # sqrt(2) vs 3/2: 2 < 9/4
    assert QuadExt.sqrt_d(2) < QuadExt(2, Fraction(3, 2))


def test_cross_field_operations_raise() -> None:
    x = QuadExt(2, 1, 1)
    y = QuadExt(5, 1, 1)
    with pytest.raises(MismatchedField):
        x + y
    with pytest.raises(MismatchedField):
        x * y
    # rationals embed everywhere and compare across fields
    assert QuadExt(2, Fraction(1, 2)) == QuadExt(5, Fraction(1, 2))
    assert QuadExt(2, Fraction(1, 2)) == Fraction(1, 2)
    assert QuadExt(2, 0, 1) != QuadExt(5, 0, 1)


def test_embedding_of_rationals() -> None:
    x = QuadExt.rational(5, Fraction(2, 3))
    assert x.is_rational
    assert x + 1 == QuadExt(5, Fraction(5, 3))
    assert 2 * x == QuadExt(5, Fraction(4, 3))


def test_division_by_zero() -> None:
    with pytest.raises(ZeroDivisionError):
        QuadExt(2, 1, 1) / QuadExt(2, 0, 0)
    with pytest.raises(ZeroDivisionError):
        QuadExt(2, 0).inv()


def test_field_parameter_validation() -> None:
    with pytest.raises(ValueError):
        QuadExt(4, 1, 1)  # not squarefree
    with pytest.raises(ValueError):
        QuadExt(12, 1, 1)  # 12 = 4 * 3
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


class Two(IntEnum):
    TWO = 2


def _scaled_rows(x):
    return [[x, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


# each constructor of an exact value, reading the number x
NUMBER_READERS = {
    "QuadExt": lambda x: QuadExt(2, 1, x).b,
    "Mat2": lambda x: Mat2(2, x, 0, 0, 1).m11.a,
    "Quaternion": lambda x: Quaternion(1, 0, x).x2,
    "OrderLattice": lambda x: OrderLattice(_scaled_rows(x), validate=False).basis,
    "gram_reduced_discriminant": lambda x: gram_reduced_discriminant(_scaled_rows(x)),
    "hnf_rational_rows": lambda x: hnf_rational_rows([(x, 1)]),
    "hilbert_symbol": lambda x: [hilbert_symbol(x, -13, p) for p in (None, 2, 3, 13)],
}


@pytest.mark.parametrize("read", NUMBER_READERS.values(), ids=NUMBER_READERS)
@pytest.mark.parametrize(
    "bad", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"]
)
def test_number_readers_refuse_inexact_numbers(read, bad) -> None:
    with pytest.raises(TypeError, match="not an exact rational"):
        read(bad)


@pytest.mark.parametrize("read", NUMBER_READERS.values(), ids=NUMBER_READERS)
def test_number_readers_take_ints_and_fractions_as_their_values(read) -> None:
    for x in (3, True, Two.TWO, Fraction(3, 2)):
        assert repr(read(x)) == repr(read(Fraction(x)))


def test_operators_leave_floats_to_python() -> None:
    for exact in (QuadExt(2, 1, 1), Quaternion(1, 2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            exact + 0.5
        with pytest.raises(TypeError, match="unsupported operand"):
            0.5 * exact


def test_field_parameter_is_an_int_whatever_ran_before() -> None:
    # the group's matrices are over Q(sqrt(2)), isom's constants over Q(sqrt(5))
    load_builtin_group().evaluate("a")
    import hnnlab.isom  # noqa: F401

    for d in (2.0, Fraction(2), 5.0, Fraction(5)):
        with pytest.raises(ValueError, match="field parameter must be an integer"):
            QuadExt(d, 1, 1)
        with pytest.raises(ValueError, match="field parameter must be an integer"):
            Mat2(d, 1, 0, 0, 1)
    assert type(QuadExt(Two.TWO, 1, 1).d) is int
    assert type(Mat2(Two.TWO, 1, 0, 0, 1).d) is int


def test_squarefree_part() -> None:
    assert squarefree_part(45) == (3, 5)
    assert squarefree_part(21) == (1, 21)
    assert squarefree_part(8) == (2, 2)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(-12) == (2, -3)


BOUND = SQUAREFREE_TRIAL_BOUND
# primes just above the trial-division bound
_LARGE_PRIMES = st.integers(BOUND, 2 * BOUND).map(nextprime)


def _squarefree_part_by_factorint(n: int) -> tuple[int, int]:
    if n == 0:
        return 0, 0
    s, d = 1, 1 if n > 0 else -1
    for p, e in factorint(abs(n)).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return s, d


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.integers(-(BOUND**3 - 1), BOUND**3 - 1),
        st.builds(lambda k, p: k * p * p, st.integers(-(1 << 13), 1 << 13), _LARGE_PRIMES),
        st.builds(lambda p, q: p * q, _LARGE_PRIMES, _LARGE_PRIMES),
    )
)
def test_bounded_squarefree_part_is_exact_below_bound_cubed(n: int) -> None:
    assert abs(n) < BOUND**3
    assert squarefree_part(n) == _squarefree_part_by_factorint(n)


def _squarefree_part_by_trial_division(n: int) -> tuple[int, int]:
    """squarefree_part as it was before the prime product: trial division
    by 2 and every odd number up to the bound or the square root of what
    is left, then a square cofactor folded in by isqrt."""
    if n == 0:
        return 0, 0
    sgn = 1 if n > 0 else -1
    n = abs(n)
    s, d = 1, 1
    p = 2
    while p <= BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        s, n = s * r, 1
    d *= n
    return s, sgn * d


_SMALL_PRIME_POWERS = st.builds(
    pow, st.sampled_from([2, 3, 5, 7, 13, 65519, 65521]), st.integers(1, 5)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.integers(-(BOUND**2), BOUND**2),
        st.integers(-(1 << 400), 1 << 400),
        st.builds(
            lambda k, powers: k * prod(powers),
            st.integers(-(1 << 200), 1 << 200),
            st.lists(_SMALL_PRIME_POWERS, max_size=6),
        ),
        st.builds(
            lambda k, p, powers: k * p * p * prod(powers),
            st.integers(-(1 << 40), 1 << 40),
            _LARGE_PRIMES,
            st.lists(_SMALL_PRIME_POWERS, max_size=4),
        ),
    )
)
def test_squarefree_part_matches_trial_division(n: int) -> None:
    assert squarefree_part(n) == _squarefree_part_by_trial_division(n)


def test_squarefree_part_folds_a_square_cofactor() -> None:
    k = nextprime(BOUND)
    # k**2 lies above the reach of trial division; isqrt still finds it
    assert squarefree_part(2173 * k**40) == (k**20, 2173)
    assert squarefree_part(-(6 * 49 * k**2)) == (7 * k, -6)
    # two distinct large squares multiply to a square as well
    m = nextprime(k)
    assert squarefree_part(5 * k**2 * m**2) == (k * m, 5)
    # an unfound square factor stays in D, which is then not squarefree
    s, d = squarefree_part(3 * k**2 * m)
    assert (s, d) == (1, 3 * k**2 * m) and d >= BOUND**3


def test_field_parameter_must_be_proven_squarefree() -> None:
    k = nextprime(BOUND)
    m = nextprime(k)
    assert QuadExt(3 * k, 1, 1).d == 3 * k
    assert QuadExt(k * m, 1, 1).d == k * m
    with pytest.raises(ValueError, match="squarefree"):
        QuadExt(3 * k * k, 1, 1)
    # at or above BOUND**3 squarefree_part is no proof, so QuadExt refuses
    for d in (k * k * m, k * m * nextprime(m)):
        assert d >= BOUND**3
        with pytest.raises(ValueError, match="too large to prove squarefree"):
            QuadExt(d, 1, 1)


def test_render_quadext() -> None:
    assert render_quadext(QuadExt(5, Fraction(3, 2), Fraction(1, 2))) == "3/2 + 1/2*sqrt(5)"
    assert render_quadext(QuadExt(2, 0, -1)) == "-sqrt(2)"
    assert render_quadext(QuadExt(2, Fraction(-7, 3), 0)) == "-7/3"
    assert render_quadext(QuadExt(21, 0, Fraction(2, 9))) == "2/9*sqrt(21)"
    assert render_quadext(QuadExt(2, 1, 1)) == "1 + sqrt(2)"


def test_mat2_basics() -> None:
    d = 2
    m = Mat2(d, 1, 1, 0, 1)
    n = Mat2(d, 1, 0, 1, 1)
    prod = m * n
    assert prod == Mat2(d, 2, 1, 1, 1)
    assert prod.det() == 1
    assert prod.trace() == 3
    assert m.inverse() == Mat2(d, 1, -1, 0, 1)
    assert m ** 3 == Mat2(d, 1, 3, 0, 1)
    assert m ** -2 == Mat2(d, 1, -2, 0, 1)
    assert (m ** 0).is_identity()


def test_mat2_singular_inverse_raises() -> None:
    with pytest.raises(SingularMatrix):
        Mat2(2, 1, 1, 1, 1).inverse()


def test_mat2_random_inverse_and_det_multiplicativity() -> None:
    rng = random.Random(2)
    count = 0
    while count < 200:
        d = rng.choice([2, 5])
        m = Mat2(
            d,
            _random_quadext(rng, d),
            _random_quadext(rng, d),
            _random_quadext(rng, d),
            _random_quadext(rng, d),
        )
        n = Mat2(
            d,
            _random_quadext(rng, d),
            _random_quadext(rng, d),
            _random_quadext(rng, d),
            _random_quadext(rng, d),
        )
        assert (m * n).det() == m.det() * n.det()
        if not m.det():
            continue
        count += 1
        assert (m * m.inverse()).is_identity()


def test_projmat_sign_convention() -> None:
    d = 2
    ident = Mat2.identity(d)
    assert ProjMat(ident) == ProjMat(-ident)
    p = ProjMat(-ident)
    assert p.is_identity()
    # first nonzero entry of the canonical representative is positive
    m = Mat2(d, 0, -1, 1, 0)
    q = ProjMat(m)
    assert q.rep == Mat2(d, 0, 1, -1, 0)


def test_projmat_requires_det_one() -> None:
    with pytest.raises(NotUnimodular):
        ProjMat(Mat2(2, 2, 0, 0, 1))
    with pytest.raises(NotUnimodular):
        ProjMat(Mat2(2, -1, 0, 0, 1))  # det == -1 is not unimodular here


def test_projmat_group_ops_and_hash() -> None:
    d = 2
    s = ProjMat(Mat2(d, 1, 1, 0, 1))
    u = ProjMat(Mat2(d, 0, 1, -1, 0))
    assert (s * s.inverse()).is_identity()
    assert (u * u) == ProjMat.identity(d)  # u has order 2 in PSL2
    assert u != s
    assert len({u, u.inverse()}) == 1  # u = u^{-1} projectively
    assert (s ** 3) == ProjMat(Mat2(d, 1, 3, 0, 1))


def test_projmat_equivalence_on_random_products() -> None:
    rng = random.Random(3)
    d = 2
    gens = [
        Mat2(d, 1, 1, 0, 1),
        Mat2(d, 1, 0, 1, 1),
        Mat2(d, 0, 1, -1, 0),
    ]
    for _ in range(200):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        m = Mat2.identity(d)
        for g in word:
            m = m * g
        sign = rng.choice([1, -1])
        flipped = m if sign == 1 else -m
        assert ProjMat(m) == ProjMat(flipped)
        assert hash(ProjMat(m)) == hash(ProjMat(flipped))
