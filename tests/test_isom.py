"""Isometry classification and translation length tests.

Frozen expectations were derived by hand: eigenvalues from the quadratic
formula on the characteristic polynomial, finite orders from rotation
angles (trace = 2*cos(theta)), and power identities checked symbolically
before being asserted here.
"""

import random
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime

from hnnlab.exact import SQUAREFREE_TRIAL_BOUND, Mat2, ProjMat, QuadExt
from hnnlab.hnn import load_builtin_group
from hnnlab.isom import (
    Dependent,
    EllipticFinite,
    EllipticInfinite,
    Hyperbolic,
    Identity,
    IndependentCertified,
    IndependentUpTo,
    NotHyperbolic,
    Parabolic,
    TransLength,
    classify,
    length_ratio_independent,
    translation_length,
)
from hnnlab.quat import phi, standard_generators


def proj(name: str) -> ProjMat:
    return ProjMat(phi(standard_generators()[name]))


def test_identity_and_parabolic():
    assert classify(ProjMat.identity(2)) == Identity()
    shear = ProjMat(Mat2(2, 1, 1, 0, 1))
    assert classify(shear) == Parabolic()
    neg_shear = ProjMat(Mat2(2, -1, 1, 0, -1))
    assert classify(neg_shear) == Parabolic()
    with pytest.raises(NotHyperbolic):
        translation_length(shear)


def test_elliptic_finite_orders():
    # trace 0, 1, sqrt(2), golden ratio: rotations by pi/2, pi/3, pi/4, pi/5
    assert classify(ProjMat(Mat2(2, 0, 1, -1, 0))) == EllipticFinite(2)
    assert classify(ProjMat(Mat2(2, 1, 1, -1, 0))) == EllipticFinite(3)
    r2 = QuadExt.sqrt_d(2)
    assert classify(ProjMat(Mat2(2, 0, 1, -1, r2))) == EllipticFinite(4)
    golden = QuadExt(5, Fraction(1, 2), Fraction(1, 2))
    assert classify(ProjMat(Mat2(5, 0, 1, -1, golden))) == EllipticFinite(5)


def test_builtin_t_is_elliptic_of_infinite_order():
    t = proj("t")
    assert classify(t) == EllipticInfinite()
    # spot-check a few powers directly
    power = t
    for _ in range(30):
        power = power * t
        assert not power.is_identity()


def test_hyperbolic_multipliers_of_builtin_generators():
    # traces 3, 3, 5, 7
    res_a = classify(proj("a"))
    assert res_a == Hyperbolic(TransLength(Fraction(3, 2), Fraction(1, 2), 5))
    res_b = classify(proj("b"))
    assert res_b.length == res_a.length
    res_c = classify(proj("c"))
    assert res_c == Hyperbolic(TransLength(Fraction(5, 2), Fraction(1, 2), 21))
    res_d = classify(proj("d"))
    assert res_d == Hyperbolic(TransLength(Fraction(7, 2), Fraction(3, 2), 5))


def test_multiplier_identities():
    for name in ("a", "c", "d"):
        lam = translation_length(proj(name)).multiplier()
        tr = proj(name).trace()
        abs_tr = tr if tr.sign() >= 0 else -tr
        assert lam * lam.conj() == 1
        assert lam + lam.inv() == abs_tr
        assert lam.sign() > 0 and (lam - 1).sign() > 0


def test_multiplier_is_multiplicative_in_powers():
    for name in ("a", "c", "d"):
        m = proj(name)
        lam = translation_length(m).multiplier()
        for n in range(2, 7):
            assert translation_length(m**n).multiplier() == lam**n


def test_classification_is_conjugation_invariant():
    rng = random.Random(7)
    gens = [proj(n) for n in "abcdt"]
    samples = [proj("a"), proj("t"), ProjMat(Mat2(2, 1, 1, 0, 1))]
    for m in samples:
        expected = classify(m)
        for _ in range(10):
            g = ProjMat.identity(2)
            for _ in range(rng.randrange(1, 6)):
                step = rng.choice(gens)
                g = g * (step if rng.random() < 0.5 else step.inverse())
            assert classify(g * m * g.inverse()) == expected


def test_rational_multiplier_decomposition():
    m = ProjMat(Mat2(2, 2, 0, 0, Fraction(1, 2)))
    l = translation_length(m)
    assert l == TransLength(Fraction(2), Fraction(0), 1)
    assert l.multiplier() == 2


def test_irrational_trace_is_out_of_scope():
    lam = QuadExt(2, 1, 1)  # 1 + sqrt(2)
    m = ProjMat(Mat2._raw(2, lam, QuadExt(2, 0), QuadExt(2, 0), lam.inv()))
    res = classify(m)
    assert res == Hyperbolic(None)
    with pytest.raises(ValueError):
        translation_length(m)


def test_dependence_verdicts():
    tau_a = translation_length(proj("a"))
    tau_c = translation_length(proj("c"))
    tau_d = translation_length(proj("d"))

    assert length_ratio_independent(tau_a, tau_a, 10) == Dependent(1, 1)
    # lambda(d) = ((3+sqrt(5))/2)^2, so tau(d) = 2*tau(a)
    assert length_ratio_independent(tau_a, tau_d, 10) == Dependent(2, 1)
    assert length_ratio_independent(tau_d, tau_a, 10) == Dependent(1, 2)
    tau_a3 = translation_length(proj("a") ** 3)
    assert length_ratio_independent(tau_a, tau_a3, 10) == Dependent(3, 1)
    # distinct fields Q(sqrt(5)) and Q(sqrt(21)): certified for all powers
    assert length_ratio_independent(tau_a, tau_c, 100) == IndependentCertified(100)

    # same field, no relation in range: only the scanned range is claimed
    two = TransLength(Fraction(2), Fraction(0), 1)
    three = TransLength(Fraction(3), Fraction(0), 1)
    assert length_ratio_independent(two, three, 12) == IndependentUpTo(12)
    four = TransLength(Fraction(4), Fraction(0), 1)
    assert length_ratio_independent(two, four, 12) == Dependent(2, 1)
    # rational versus irrational multiplier: certified
    assert length_ratio_independent(two, tau_a, 50) == IndependentCertified(50)


def test_dependence_rejects_bad_input():
    with pytest.raises(ValueError):
        length_ratio_independent(
            TransLength(Fraction(2), Fraction(0), 1),
            TransLength(Fraction(2), Fraction(0), 1),
            0,
        )
    shrinking = TransLength(Fraction(1, 2), Fraction(-1, 2), 5)
    with pytest.raises(ValueError):
        length_ratio_independent(
            shrinking, TransLength(Fraction(2), Fraction(0), 1), 5
        )


# ---------------------------------------------------------------------------
# finite order from the trace: the power search it replaced is the reference


def _order_by_power_search(m: ProjMat, power_bound: int = 120) -> int | None:
    power = m
    for n in range(2, power_bound + 1):
        power = power * m
        if power.is_identity():
            return n
    return None


_HALF = Fraction(1, 2)
# every elliptic trace of finite order and degree <= 2, and a few of
# infinite order, each with the field its matrix lives in
_ELLIPTIC_TRACES = [
    (2, QuadExt(2, 0)),
    (2, QuadExt(2, 1)),
    (2, QuadExt.sqrt_d(2)),
    (3, QuadExt.sqrt_d(3)),
    (5, QuadExt(5, _HALF, _HALF)),
    (5, QuadExt(5, -_HALF, _HALF)),
    (2, QuadExt(2, Fraction(2, 3))),
    (2, QuadExt(2, Fraction(1, 2))),
    (3, QuadExt(3, Fraction(1, 2), Fraction(1, 2))),
    (5, QuadExt(5, 0, Fraction(1, 2))),
]


def _with_trace(d: int, tr: QuadExt) -> ProjMat:
    return ProjMat(Mat2(d, 0, 1, -1, tr))


def test_order_table_matches_power_search_on_every_entry():
    seen = set()
    for d, tr in _ELLIPTIC_TRACES:
        for signed in (tr, -tr):
            m = _with_trace(d, signed)
            order = _order_by_power_search(m)
            expected = EllipticInfinite() if order is None else EllipticFinite(order)
            assert classify(m) == expected
            seen.add(order)
    assert seen == {2, 3, 4, 5, 6, None}


_shear_entry = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 3)
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_ELLIPTIC_TRACES),
    st.booleans(),
    st.lists(st.tuples(st.booleans(), _shear_entry, _shear_entry), max_size=4),
)
def test_order_table_matches_power_search_on_conjugates(entry, negate, shears):
    d, tr = entry
    m = _with_trace(d, -tr if negate else tr)
    g = ProjMat.identity(d)
    for upper, x, y in shears:
        # x + y*sqrt(d) off the diagonal keeps the shear in SL2 over the field
        v = QuadExt(d, x, y)
        g = g * ProjMat(Mat2(d, 1, v, 0, 1) if upper else Mat2(d, 1, 0, v, 1))
    c = g * m * g.inverse()
    order = _order_by_power_search(c)
    assert classify(c) == (
        EllipticInfinite() if order is None else EllipticFinite(order)
    )


# ---------------------------------------------------------------------------
# ratio verdicts: the Fraction power-table scan they replaced is the reference


def _reference_power_table(l: TransLength, bound: int):
    r, s, d = l.rational_part, l.surd_coeff, l.field_param
    out = [(r, s)]
    rp, sp = r, s
    for _ in range(bound - 1):
        rp, sp = r * rp + d * s * sp, r * sp + s * rp
        out.append((rp, sp))
    return out


def _reference_same_field_scan(l1: TransLength, l2: TransLength, bound: int):
    pows1 = _reference_power_table(l1, bound)
    pows2 = _reference_power_table(l2, bound)
    for total in range(2, 2 * bound + 1):
        for p in range(max(1, total - bound), min(bound, total - 1) + 1):
            q = total - p
            if pows1[p - 1] == pows2[q - 1]:
                return Dependent(p, q)
    return IndependentUpTo(bound)


def _length_of_power(base: TransLength, n: int) -> TransLength:
    lam = base.multiplier() ** n
    if base.field_param == 1:
        return TransLength(lam, Fraction(0), 1)
    return TransLength(lam.a, lam.b, base.field_param)


_SAME_FIELD_BASES = [
    TransLength(Fraction(3, 2), Fraction(1, 2), 5),  # a
    TransLength(Fraction(2), Fraction(1), 5),  # phi**3, where lambda(a) = phi**2
    TransLength(Fraction(5, 2), Fraction(1, 2), 21),  # c
    TransLength(Fraction(2), Fraction(0), 1),
    TransLength(Fraction(3), Fraction(0), 1),
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_SAME_FIELD_BASES),
    st.sampled_from(_SAME_FIELD_BASES),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 14),
)
def test_same_field_scan_matches_reference(b1, b2, i, j, bound):
    if b1.field_param != b2.field_param:
        b2 = b1
    l1, l2 = _length_of_power(b1, i), _length_of_power(b2, j)
    assert length_ratio_independent(l1, l2, bound) == _reference_same_field_scan(
        l1, l2, bound
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 5))
def test_certificate_induction_holds(p, q):
    # the certificate behind IndependentCertified: with r > 1 and s > 0 the
    # surd coefficients of the powers strictly increase
    l = classify(ProjMat(Mat2(2, 0, 1, -1, 2 + Fraction(p, q)))).length
    prev = Fraction(0)
    for _, sp in _reference_power_table(l, 30):
        assert sp > prev or l.field_param == 1
        prev = sp


def test_field_test_needs_no_squarefree_parameter():
    k = nextprime(SQUAREFREE_TRIAL_BOUND)
    tau_a = translation_length(proj("a"))
    tau_c = translation_length(proj("c"))
    tau_d = translation_length(proj("d"))
    # lambda(a) written over 5*k**2: sqrt(5) = sqrt(5*k**2) / k
    over_5k2 = TransLength(tau_a.rational_part, tau_a.surd_coeff / k, 5 * k * k)
    assert length_ratio_independent(tau_a, over_5k2, 10) == Dependent(1, 1)
    assert length_ratio_independent(over_5k2, tau_a, 10) == Dependent(1, 1)
    assert length_ratio_independent(over_5k2, tau_d, 10) == Dependent(2, 1)
    # different fields stay certified, whichever way one is written
    over_21k2 = TransLength(tau_c.rational_part, tau_c.surd_coeff / k, 21 * k * k)
    assert length_ratio_independent(over_5k2, tau_c, 10) == IndependentCertified(10)
    assert length_ratio_independent(tau_a, over_21k2, 10) == IndependentCertified(10)
    assert length_ratio_independent(over_5k2, over_21k2, 10) == IndependentCertified(10)


# ---------------------------------------------------------------------------
# long words: tr**2 - 4 has thousands of digits and is never factored


@pytest.fixture(scope="module")
def group():
    return load_builtin_group()


def test_short_power_of_at_is_classified(group):
    m = group.evaluate("at" * 13)
    lam = translation_length(group.evaluate("at")).multiplier()
    assert classify(m) == Hyperbolic(translation_length(m))
    assert translation_length(m).field_param == 2173
    assert translation_length(m).multiplier() == lam**13


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="abcdtABCDT", max_size=40))
def test_lattice_words_have_rational_traces(group, word):
    # tr phi(q) = 2*x0, so classify never meets an irrational trace on the
    # lattice and the CLI keeps no branch for one
    m = group.evaluate(word)
    assert m.trace().is_rational
    assert classify(m) != Hyperbolic(None)


def test_4000_letter_power_of_at_is_classified(group):
    at = group.evaluate("at")
    # the image of the 4000-letter word (at)^2000, by squaring: 0.05 s
    # against 5 s for evaluating its letters one by one
    at_2000 = at**2000
    lam = translation_length(at).multiplier()
    length = translation_length(at_2000)
    assert classify(at_2000) == Hyperbolic(length)
    assert length.field_param == 2173
    assert length.multiplier() == lam**2000
    # squarefree_part of the 22,195-bit tr^2 - 4 takes about 5 ms against
    # 0.2 s when it trial-divided by every odd number below 2^16
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        classify(at_2000)
        best = min(best, perf_counter() - start)
    assert best < 0.1
