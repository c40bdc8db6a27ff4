"""Windowed automatic-structure checks, frozen against hand derivations
and an independent brute-force route for the fellow traveller constants."""

import hashlib
import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab.biauto import (
    BUILTIN_LANGUAGES,
    BallOracle,
    FellowReport,
    FellowWitness,
    Fsa,
    GroupModel,
    OutOfWindow,
    TauEstimate,
    UnknownLetter,
    WindowedLanguage,
    replay_fellow_witness,
    two_words_fsa,
    z2_model,
    z2_normal_form_fsa,
    z2_parity_fsa,
)


# ---------------------------------------------------------------------------
# independent route: direct normal forms and the Manhattan metric, no Fsa,
# no BallOracle


def manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def nf_word(m, n):
    xs = ("x",) * m if m >= 0 else ("X",) * (-m)
    ys = ("y",) * n if n >= 0 else ("Y",) * (-n)
    return xs + ys


def z2_path(word, start=(0, 0)):
    steps = {"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)}
    pts = [start]
    for letter in word:
        dx, dy = steps[letter]
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    return pts


def pair_separation(pu, pv):
    worst = 0
    for t in range(max(len(pu), len(pv))):
        a = pu[t] if t < len(pu) else pu[-1]
        b = pv[t] if t < len(pv) else pv[-1]
        worst = max(worst, manhattan(a, b))
    return worst


def brute_zeta_classical(radius):
    words = [
        nf_word(m, n)
        for m in range(-radius, radius + 1)
        for n in range(-radius, radius + 1)
        if abs(m) + abs(n) <= radius
    ]
    paths = {w: z2_path(w) for w in words}
    units = ((1, 0), (-1, 0), (0, 1), (0, -1))
    zeta = 0
    for u in words:
        pu = paths[u]
        for v in words:
            pv = paths[v]
            if manhattan(pu[-1], pv[-1]) <= 1:
                zeta = max(zeta, pair_separation(pu, pv))
            for s in units:
                if (pu[-1][0] + s[0], pu[-1][1] + s[1]) == pv[-1]:
                    shifted = [(p[0] + s[0], p[1] + s[1]) for p in pu]
                    zeta = max(zeta, pair_separation(shifted, pv))
    return zeta


# ---------------------------------------------------------------------------
# automaton mechanics


def test_normal_form_automaton_shape():
    fsa = z2_normal_form_fsa()
    assert fsa.is_deterministic
    assert fsa.num_states == 5
    assert fsa.accepts(())
    assert fsa.accepts(("x", "x", "y"))
    assert fsa.accepts(("X", "Y", "Y"))
    assert not fsa.accepts(("y", "x"))
    assert not fsa.accepts(("x", "X"))
    with pytest.raises(UnknownLetter):
        fsa.accepts(("z",))


def test_words_up_to_matches_direct_enumeration():
    fsa = z2_normal_form_fsa()
    got = set(fsa.words_up_to(5))
    want = {
        nf_word(m, n)
        for m in range(-5, 6)
        for n in range(-5, 6)
        if abs(m) + abs(n) <= 5
    }
    assert got == want


def test_json_round_trip():
    fsa = z2_parity_fsa()
    clone = Fsa.from_json(fsa.to_json())
    assert clone.to_json() == fsa.to_json()
    for w in fsa.words_up_to(4):
        assert clone.accepts(w)
    assert not clone.accepts(("x", "y", "x"))


# SHA-256 of json.dumps(fsa.to_json(), sort_keys=True): the report pins see
# only the accepted words, these every state number and transition
BUILTIN_AUTOMATA = {
    "z2-normal": "64caf0b236ae8557dd415c69ddba0b40cb039d9dc4a7a0c5bd26bbe1f3a5f9d8",
    "z2-adversarial": "31cccfcd09a4cbd8c7714ab846768b6744ed228ae3bfc080b40d10027e9628f0",
    "two-words": "0f2d1b178392ea3d4c8218c3ea0ed5aeda340add62fe1e33cf8f157b7de2e2a0",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_AUTOMATA))
def test_builtin_automata_are_pinned(name):
    make_fsa, _ = BUILTIN_LANGUAGES[name]
    text = json.dumps(make_fsa().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_AUTOMATA[name]


def test_negative_state_counts_are_refused():
    # a negative count used to be kept, and written back by to_json
    with pytest.raises(ValueError, match="num_states must be >= 0"):
        Fsa(["x"], -5, [], [], [])
    assert Fsa(["x"], 0, [], [], []).to_json()["num_states"] == 0
    # states follow from_json's rule, an exact int and not a bool: a float
    # count used to be truncated, a string parsed, and True, 1.0 and a
    # float endpoint taken as states
    for count in (2.7, "3", True, 2.0):
        with pytest.raises(ValueError, match="num_states must be an int"):
            Fsa(("x",), count, 0, [1], [(0, "x", 1)])
    for initial, accepting, transitions in [
        (True, [1], []),
        (0.0, [1], []),
        ([0, 0.0], [1], []),
        (0, [1.0], []),
        (0, [False], []),
        (0, [1], [(0.0, "x", 1)]),
        (0, [1], [(0, "x", True)]),
    ]:
        with pytest.raises(ValueError, match="is not an int"):
            Fsa(("x",), 2, initial, accepting, transitions)
    # a transition on a letter outside the alphabet, or to a state past the count
    with pytest.raises(UnknownLetter, match="transition letter 'y' not in alphabet"):
        Fsa(("x",), 2, 0, [1], [(0, "y", 1)])
    with pytest.raises(ValueError, match="transition endpoint out of range"):
        Fsa(("x",), 2, 0, [1], [(0, "x", 2)])


def test_duplicate_transitions_collapse_in_sorted_order():
    fsa = Fsa(
        ("x", "y"),
        3,
        0,
        (2,),
        [(0, "x", 2), (0, "x", 1), (0, "x", 2), (1, "y", 2), (0, "x", 1), (0, "y", 0)],
    )
    assert list(fsa.transitions()) == [
        (0, "x", 1), (0, "x", 2), (0, "y", 0), (1, "y", 2),
    ]
    assert fsa.to_json()["transitions"] == [
        [0, "x", 1], [0, "x", 2], [0, "y", 0], [1, "y", 2],
    ]
    assert not fsa.is_deterministic
    assert Fsa.from_json(fsa.to_json()).to_json() == fsa.to_json()


def test_many_transitions_on_one_state_letter_load_quickly():
    # each transition used to rebuild the sorted tuple of its (state,
    # letter): 8000 of them took 1.6 s, 20000 would take about 10 s
    n = 20000
    start = time.perf_counter()
    fsa = Fsa(("x",), n, 0, range(n), [(0, "x", dst) for dst in reversed(range(n))])
    assert time.perf_counter() - start < 0.5
    assert fsa.step({0}, "x") == frozenset(range(n))
    assert [dst for _, _, dst in fsa.transitions()] == list(range(n))


def test_determinize_subset_construction():
    # two initial states guessing the first letter
    nfa = Fsa(
        ("x", "y"),
        3,
        (0, 1),
        (2,),
        [(0, "x", 2), (1, "y", 2)],
    )
    assert not nfa.is_deterministic
    dfa = nfa.determinize()
    assert dfa.is_deterministic
    for w in [("x",), ("y",)]:
        assert dfa.accepts(w) and nfa.accepts(w)
    for w in [(), ("x", "y"), ("x", "x")]:
        assert not dfa.accepts(w) and not nfa.accepts(w)


def test_determinize_drops_dead_and_unreachable_sets():
    def check(nfa):
        dfa = nfa.determinize()
        assert dfa.is_deterministic
        words = set(nfa.words_up_to(5))
        for n in range(6):
            for w in itertools.product(nfa.alphabet, repeat=n):
                assert dfa.accepts(w) == (w in words) == nfa.accepts(w)
        # every state is reachable and reaches acceptance, except the one
        # state of an empty language
        assert dfa.accepting or dfa.num_states == 1
        live = set(range(dfa.num_states)) if dfa.accepting else set()
        assert dfa._subsets.live == live

    # two initial states; 2 is unreachable, and 3 and 4 never accept, so
    # the x-step from {0, 1}, to {3, 4}, leads to no state of the result
    messy = Fsa(
        ("x", "y"),
        6,
        (0, 1),
        (5,),
        [(0, "x", 3), (1, "x", 4), (2, "y", 5), (3, "y", 4),
         (4, "x", 3), (0, "y", 5), (1, "y", 0), (5, "x", 1)],
    )
    assert messy.num_states == 6 and not messy.is_deterministic
    assert messy.determinize().num_states == 5
    check(messy)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_automata())
    def check_drawn(nfa):
        check(nfa)

    check_drawn()


# ---------------------------------------------------------------------------
# ball oracle


def test_ball_oracle_is_manhattan_on_z2():
    ball = BallOracle(z2_model(), 10)
    pts = ball.elements_of_norm_at_most(5)
    assert len(pts) == 61
    for a in pts:
        assert ball.norm(a) == manhattan((0, 0), a)
        for b in pts:
            assert ball.dist(a, b) == manhattan(a, b)
    with pytest.raises(OutOfWindow):
        ball.norm((11, 11))


# ---------------------------------------------------------------------------
# uniform finiteness


def test_normal_form_is_bijective_on_window():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 8)
    report = lang.check_finite_to_one()
    assert report.bound == 1
    assert report.surjective
    assert report.missing == ()
    assert report.ok
    counts = Counter(map(len, lang.words_by_element.values()))
    assert counts == {1: 145}


def test_two_word_language_has_multiplicity_two():
    lang = WindowedLanguage(two_words_fsa(), z2_model(), 4)
    report = lang.check_finite_to_one()
    assert report.bound == 2
    assert report.witness_element == (1, 1)
    assert set(report.witness_words) == {("x", "y"), ("y", "x")}
    assert not report.surjective
    assert (1, 0) in report.missing
    assert not report.ok


# ---------------------------------------------------------------------------
# fellow traveller: frozen constants, independent brute force, replay


def test_classical_constant_matches_brute_force():
    model = z2_model()
    for radius in range(3, 9):
        lang = WindowedLanguage(z2_normal_form_fsa(), model, radius)
        report = lang.check_fellow_traveller("classical", cap=2)
        assert report.zeta == 2
        assert report.zeta == brute_zeta_classical(radius)
        assert report.ok
        assert replay_fellow_witness(report.witness, model) == report.zeta


def test_simultaneous_rule_forces_three():
    model = z2_model()
    lang = WindowedLanguage(z2_normal_form_fsa(), model, 6)
    report = lang.check_fellow_traveller("simultaneous")
    assert report.zeta == 3
    assert replay_fellow_witness(report.witness, model) == 3
    # the canonical example: translate y*y by one x and compare with x*x*y*y;
    # starts and ends are both 1 apart yet the paths separate to 3
    handmade = FellowWitness(
        u=("y", "y"),
        v=("x", "x", "y", "y"),
        shift="x",
        time=2,
        separation=3,
    )
    assert replay_fellow_witness(handmade, model) == 3


def test_adversarial_language_has_no_uniform_constant():
    model = z2_model()
    for radius in (4, 5, 6, 8):
        lang = WindowedLanguage(z2_parity_fsa(), model, radius)
        inner = lang.check_finite_to_one()
        assert inner.bound == 1 and inner.surjective
        report = lang.check_fellow_traveller("classical", cap=2)
        assert report.zeta == radius
        assert not report.ok
        assert replay_fellow_witness(report.witness, model) == report.zeta
    # explicit divergent family: (k, k) goes east first, (k-1, k) goes north
    for k in (2, 3, 4):
        witness = FellowWitness(
            u=nf_word(k, 0) + ("y",) * k,
            v=("y",) * k + ("x",) * (k - 1),
            shift=None,
            time=k,
            separation=2 * k,
        )
        assert replay_fellow_witness(witness, model) == 2 * k


def test_adversarial_words_stay_geodesic():
    # the pathology is purely about fellow travelling
    lang = WindowedLanguage(z2_parity_fsa(), z2_model(), 7)
    report = lang.quasigeodesic()
    assert report.multiplicative == Fraction(1)
    assert report.additive == 0


def test_normal_form_words_are_geodesics():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 7)
    report = lang.quasigeodesic()
    assert report.multiplicative == Fraction(1)
    assert report.additive == 0


def test_detour_word_reads_its_length_over_its_norm():
    # xyX is y in Z^2: three letters for an element of norm 1
    detour = Fsa(("x", "X", "y", "Y"), 4, 0, (3,),
                 [(0, "x", 1), (1, "y", 2), (2, "X", 3)])
    lang = WindowedLanguage(detour, z2_model(), 4)
    report = lang.quasigeodesic()
    assert report.multiplicative == Fraction(3)
    assert report.additive == 0


def test_structure_report_verdicts():
    model = z2_model()
    good = WindowedLanguage(z2_normal_form_fsa(), model, 5).analyze(
        "classical", cap=2
    )
    assert good.ok
    bad = WindowedLanguage(z2_parity_fsa(), model, 5).analyze("classical", cap=2)
    assert not bad.ok
    assert bad.finite_to_one.ok  # fails only the fellow traveller axiom


# ---------------------------------------------------------------------------
# stable translation lengths from power norms


def test_tau_diagonal_element():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 8)
    est = lang.tau_estimate((1, 1))
    assert est == TauEstimate(Fraction(2), True, (2, 4, 6, 8, 10, 12))


def test_tau_identity_is_zero():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 8)
    est = lang.tau_estimate((0, 0))
    assert est.value == 0 and est.stabilized


def test_tau_equals_norm_for_all_small_elements():
    # in Z^2 powers grow exactly linearly, so every estimate must stabilize
    # to the norm itself
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 8)
    elements = lang.ball.elements_of_norm_at_most(3)
    assert len(elements) == 25
    for g in elements:
        est = lang.tau_estimate(g, max_power=4)
        assert est.stabilized
        assert est.value == Fraction(manhattan((0, 0), g))
        assert est.value.denominator == 1
        conj = lang.conjugacy_tau(g, max_power=4)
        assert conj.value == est.value


def test_tau_out_of_window():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 4)
    with pytest.raises(OutOfWindow):
        lang.tau_estimate((3, 3), max_power=6)


def test_power_counts_below_one_are_refused():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 8)
    for max_power in (0, -1, 2.0, "3"):
        for call in (lang.power_norms, lang.tau_estimate, lang.conjugacy_tau):
            with pytest.raises(ValueError, match="max_power must be an int >= 1"):
                call((1, 0), max_power=max_power)
    assert lang.tau_estimate((1, 0), max_power=1) == TauEstimate(Fraction(1), False, (1,))


def test_language_length_is_shortest_accepted_word():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 6)
    assert lang.ell((2, 3)) == 5
    assert lang.ell((0, 0)) == 0
    assert lang.ell((-1, 2)) == 3
    # the two-word language represents almost nothing
    sparse = WindowedLanguage(two_words_fsa(), z2_model(), 4)
    assert sparse.ell((1, 1)) == 2
    with pytest.raises(OutOfWindow):
        sparse.ell((1, 0))


def test_power_lengths_are_subadditive():
    lang = WindowedLanguage(z2_normal_form_fsa(), z2_model(), 8)
    for g in [(1, 1), (2, -1), (0, 2), (-1, -1)]:
        norms = (0,) + lang.power_norms(g, max_power=6)
        for m in range(1, 6):
            for n in range(1, 7 - m):
                assert norms[m + n] <= norms[m] + norms[n]


def test_trivial_group_language_has_zeta_zero():
    from hnnlab.biauto import Fsa, GroupModel

    empty = Fsa((), 1, 0, (0,), ())
    point = GroupModel({}, mul=lambda a, b: a, inv=lambda a: a, identity=0)
    lang = WindowedLanguage(empty, point, 3)
    report = lang.check_fellow_traveller("classical")
    assert report.zeta == 0
    assert lang.check_finite_to_one().bound == 1


# ---------------------------------------------------------------------------
# fellow traveller against the step-by-step reference route


def reference_check_fellow_traveller(lang, pair_rule, cap=None):
    """Pair by pair and step by step: rebuild the path of v for every pair
    and measure each time separately with BallOracle.dist."""
    model = lang.model
    mul = model.mul
    shifts = [(None, model.identity)] + sorted(model.letter_images.items())
    at = lambda pts, t: pts[t] if t < len(pts) else pts[-1]
    zeta, witness, pairs = 0, None, 0
    for u_words in lang.words_by_element.values():
        for u in u_words:
            pu = model.path(u)
            for shift_name, s in shifts:
                shifted = pu if shift_name is None else [mul(s, p) for p in pu]
                target = shifted[-1]
                near = [target]
                if pair_rule == "simultaneous" or shift_name is None:
                    near += [mul(target, img) for img in model.letter_images.values()]
                seen = set()
                for h in near:
                    if h in seen:
                        continue
                    seen.add(h)
                    for v in lang.words_by_element.get(h, ()):
                        pv = model.path(v)
                        pairs += 1
                        for t in range(max(len(shifted), len(pv))):
                            d = lang.ball.dist(at(shifted, t), at(pv, t))
                            if d > zeta:
                                zeta = d
                                witness = FellowWitness(u, v, shift_name, t, d)
    return FellowReport(pair_rule, zeta, pairs, witness, lang.radius, cap)


def s5_model():
    """S5 on x = (0 1 2 3 4), y = (0 1): non-commutative, so an inverse
    taken on the wrong side changes the separations."""

    def mul(a, b):
        return tuple(a[i] for i in b)

    def inv(a):
        out = [0] * len(a)
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    x, y = (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)
    return GroupModel(
        {"x": x, "X": inv(x), "y": y, "Y": inv(y)},
        mul=mul,
        inv=inv,
        identity=(0, 1, 2, 3, 4),
    )


ALPHABET = ("x", "X", "y", "Y")
MAX_WINDOW_WORDS = 120


@st.composite
def small_automata(draw):
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    initial = draw(st.lists(state, min_size=1, max_size=2))
    accepting = draw(st.lists(state, min_size=1, max_size=n))
    transitions = draw(
        st.lists(
            st.tuples(state, st.sampled_from(ALPHABET), state),
            min_size=1,
            max_size=10,
        )
    )
    return Fsa(ALPHABET, n, initial, accepting, transitions)


def test_fellow_traveller_matches_reference_route():
    seen_witnesses = 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        small_automata(),
        st.integers(0, 6),
        st.sampled_from(("classical", "simultaneous")),
        st.sampled_from((z2_model, s5_model)),
    )
    def check(fsa, radius, pair_rule, make_model):
        nonlocal seen_witnesses
        # keep each example small: shrink the window until it holds few words
        while sum(1 for _ in fsa.words_up_to(radius)) > MAX_WINDOW_WORDS:
            radius -= 1
        model = make_model()
        lang = WindowedLanguage(fsa, model, radius)
        report = lang.check_fellow_traveller(pair_rule, cap=2)
        assert report == reference_check_fellow_traveller(lang, pair_rule, cap=2)
        if report.witness is not None:
            seen_witnesses += 1
            assert replay_fellow_witness(report.witness, model) == report.zeta

    check()
    assert seen_witnesses >= 100


def test_builtin_fellow_reports_match_reference_route():
    model = z2_model()
    for fsa in (z2_normal_form_fsa(), z2_parity_fsa(), two_words_fsa()):
        for radius in (0, 1, 7):
            lang = WindowedLanguage(fsa, model, radius)
            for rule in ("classical", "simultaneous"):
                report = lang.check_fellow_traveller(rule)
                assert report == reference_check_fellow_traveller(lang, rule)


def all_words_fsa():
    """Accepts every word: each element of a window has many words."""
    return Fsa(ALPHABET, 1, 0, (0,), [(0, letter, 0) for letter in ALPHABET])


@pytest.mark.parametrize("make_fsa", [two_words_fsa, all_words_fsa])
@pytest.mark.parametrize("make_model", [z2_model, s5_model])
def test_many_words_per_element_match_reference_route(make_fsa, make_model):
    # several words end at one element, so the check meets near words its
    # separation bound prunes and words its mirror rule skips; s5_model's y
    # and Y are one element, so a target's right neighbours repeat
    model = make_model()
    for radius in range(4):
        lang = WindowedLanguage(make_fsa(), model, radius)
        for rule in ("classical", "simultaneous"):
            report = lang.check_fellow_traveller(rule)
            assert report == reference_check_fellow_traveller(lang, rule)


# every (language, rule, radius) case of the fsa-window benchmark workload
FSA_WINDOW_CASES = [
    (language, rule, radius)
    for language in ("z2-normal", "z2-adversarial")
    for rule in ("classical", "simultaneous")
    for radius in range(6, 21)
]


def test_fsa_window_reports_are_pinned():
    digest = hashlib.sha256()
    at_20 = {}
    for language, rule, radius in FSA_WINDOW_CASES:
        make_fsa, make_model = BUILTIN_LANGUAGES[language]
        lang = WindowedLanguage(make_fsa(), make_model(), radius)
        report = lang.check_fellow_traveller(rule)
        digest.update(repr(report).encode() + b"\n")
        if radius == 20:
            at_20[language, rule] = report
    normal = FellowWitness(("y",), ("x", "y"), None, 1, 2)
    assert at_20["z2-normal", "classical"] == FellowReport(
        "classical", 2, 7241, normal, 20, None
    )
    shifted = FellowWitness(("y",), ("x", "y", "y"), "y", 1, 3)
    assert at_20["z2-normal", "simultaneous"] == FellowReport(
        "simultaneous", 3, 20049, shifted, 20, None
    )
    parity = FellowWitness(
        ("y",) * 10 + ("x",) * 9, ("x",) * 10 + ("y",) * 10, None, 10, 20
    )
    assert at_20["z2-adversarial", "classical"] == FellowReport(
        "classical", 20, 7241, parity, 20, None
    )
    assert at_20["z2-adversarial", "simultaneous"] == FellowReport(
        "simultaneous", 20, 20049, parity, 20, None
    )
    assert digest.hexdigest() == (
        "9481d74fd95ad6ab18056ed83ecfdb06e1a773e7137f302eb4d37c452c94b014"
    )


def test_fellow_traveller_outside_the_ball_raises():
    model = z2_model()
    lang = WindowedLanguage(z2_normal_form_fsa(), model, 4)
    lang.ball = BallOracle(model, 1)
    for rule in ("classical", "simultaneous"):
        with pytest.raises(OutOfWindow):
            lang.check_fellow_traveller(rule)
    # the other checks read the words folded over the ball, which needs
    # every window word inside it
    for check in (lang.check_finite_to_one, lang.quasigeodesic):
        with pytest.raises(OutOfWindow, match="radius 4, not 1"):
            check()
    with pytest.raises(ValueError, match="unknown pair rule 'bogus'"):
        lang.check_fellow_traveller("bogus")


def test_negative_radius_is_rejected():
    with pytest.raises(ValueError):
        WindowedLanguage(z2_normal_form_fsa(), z2_model(), -1)
    # a ball of radius -1 used to hold the identity and read radius -1
    with pytest.raises(ValueError, match="ball radius must be >= 0, got -1"):
        BallOracle(z2_model(), -1)
    assert len(BallOracle(z2_model(), 0)) == 1


# ---------------------------------------------------------------------------
# the ball's integer tables


def skew_z2_model():
    """Z^2 with X -> (-1, 1): the letter images are not closed under
    inversion (x^-1 = X*Y), so the ball is not symmetric and the tables of
    BallOracle have gaps near its edge."""
    return GroupModel(
        {"x": (1, 0), "X": (-1, 1), "y": (0, 1), "Y": (0, -1)},
        mul=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        inv=lambda a: (-a[0], -a[1]),
        identity=(0, 0),
    )


def table_entries(ball):
    """(table entry, id of the product by model.mul or None) for every
    entry of the right and inverse-left tables."""
    model = ball.model
    elements = list(ball.ids)
    assert [ball.ids[g] for g in elements] == list(range(len(ball)))
    assert elements[0] == model.identity and len(ball.norms) == len(ball)
    # ids are breadth-first: the walks read the norm of the largest id
    assert ball.norms == sorted(ball.norms)
    for name, img in model.letter_images.items():
        right, left = ball.right[name], ball.inverse_left[name]
        assert len(right) == len(left) == len(ball)
        for i, g in enumerate(elements):
            yield right[i], ball.ids.get(model.mul(g, img))
            yield left[i], ball.ids.get(model.mul(model.inv(img), g))


@pytest.mark.parametrize(
    "make_model, radius",
    [(z2_model, 0), (z2_model, 1), (z2_model, 6), (s5_model, 3), (s5_model, 12)],
)
def test_ball_tables_hold_the_ids_of_products(make_model, radius):
    ball = BallOracle(make_model(), radius)
    entries = list(table_entries(ball))
    assert all(got == want for got, want in entries)
    outside = sum(1 for got, _ in entries if got is None)
    if make_model is s5_model and radius == 12:
        assert len(ball) == 120 and outside == 0
    else:
        assert outside > 0


def test_ball_tables_have_gaps_when_inverses_are_not_letters():
    # x^-1 * g is derived through g^-1 and g^-1 * x, which can leave the
    # ball while x^-1 * g stays inside: such an entry is None, never wrong
    entries = list(table_entries(BallOracle(skew_z2_model(), 5)))
    assert all(got is None or got == want for got, want in entries)
    assert any(got is None and want is not None for got, want in entries)


@pytest.mark.parametrize(
    "words",
    [
        [(), ("x", "x", "x", "x")],
        [("x",), ("y", "y", "y", "x")],
        [(), ("X",), ("x", "y", "y", "X")],
    ],
)
def test_a_finished_word_waits_in_either_role(words):
    # in S5 the longer word keeps moving after the shorter one ends: the
    # first two sets reach their worst separation after u ends, the third
    # (classical rule) after v ends, so the longer word is walked on its
    # own in either role
    trie = {(): 0}
    transitions = []
    for w in words:
        for i, letter in enumerate(w):
            if w[: i + 1] not in trie:
                trie[w[: i + 1]] = len(trie)
                transitions.append((trie[w[:i]], letter, trie[w[: i + 1]]))
    fsa = Fsa(ALPHABET, len(trie), 0, [trie[w] for w in words], transitions)
    lang = WindowedLanguage(fsa, s5_model(), max(map(len, words)))
    for rule in ("classical", "simultaneous"):
        report = lang.check_fellow_traveller(rule)
        assert report == reference_check_fellow_traveller(lang, rule)
        assert report.zeta >= 2


# ---------------------------------------------------------------------------
# the separation bound: ball radius, pruned and mirrored pairs


def symmetric_s5_model():
    """S5 on x = (0 1 2 3 4), X = x^-1 and y = (0 1): the letter images are
    distinct and closed under inversion, and the group is non-commutative,
    so a mirrored pair walks the inverses e_t^-1, not the same elements."""
    five = s5_model()
    return GroupModel(
        {name: five.letter_images[name] for name in ("x", "X", "y")},
        mul=five.mul,
        inv=five.inv,
        identity=five.identity,
    )


def z_with_identity_letters_model():
    """Z^2's x and X, with y and Y sent to the identity: distinct letters
    share an image, and a pair shifted by y or Y starts at separation 0."""
    z2 = z2_model()
    return GroupModel(
        {**z2.letter_images, "y": (0, 0), "Y": (0, 0)},
        mul=z2.mul,
        inv=z2.inv,
        identity=z2.identity,
    )


def longest_word(lang):
    return max((len(ws[-1]) for ws in lang.words_by_element.values()), default=0)


@pytest.mark.parametrize(
    "make_model", [z2_model, symmetric_s5_model, z_with_identity_letters_model]
)
def test_pruned_walk_matches_reference_route(make_model):
    outcomes = Counter()

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(
        small_automata(),
        st.integers(0, 6),
        st.sampled_from(("classical", "simultaneous")),
        st.data(),
    )
    def check(fsa, radius, pair_rule, data):
        model = make_model()
        # drop the transitions on letters the model has no image for
        fsa = Fsa(
            tuple(model.letter_images),
            fsa.num_states,
            fsa.initial,
            fsa.accepting,
            [t for t in fsa.transitions() if t[1] in model.letter_images],
        )
        while sum(1 for _ in fsa.words_up_to(radius)) > MAX_WINDOW_WORDS:
            radius -= 1
        lang = WindowedLanguage(fsa, model, radius)
        # any ball up to radius 2 * radius + 2; one below L + 2 is refused
        # before any pair is walked
        ball_radius = data.draw(st.integers(0, 2 * radius + 2))
        lang.ball = BallOracle(model, ball_radius)
        need = longest_word(lang) + 2
        if ball_radius < need:
            with pytest.raises(OutOfWindow, match=f"radius {need}, not {ball_radius}"):
                lang.check_fellow_traveller(pair_rule, cap=2)
            outcomes["out of window"] += 1
            return
        want = reference_check_fellow_traveller(lang, pair_rule, cap=2)
        assert lang.check_fellow_traveller(pair_rule, cap=2) == want
        outcomes["zeta above 1" if want.zeta > 1 else "zeta at most 1"] += 1

    check()
    assert outcomes["out of window"] >= 30
    assert outcomes["zeta above 1"] >= 40
    assert outcomes["zeta at most 1"] >= 40


def test_a_shifted_pair_that_spells_s_u_is_walked_while_zeta_is_0():
    # the words y and Xy of S5: the first pair that separates is
    # (y, X, Xy), whose v spells X * y letter for letter, and it is
    # |X^-1| = 1 apart at time 0
    fsa = Fsa(("x", "X", "y"), 3, 0, [1], [(0, "y", 1), (0, "X", 2), (2, "y", 1)])
    lang = WindowedLanguage(fsa, symmetric_s5_model(), 2)
    for rule in ("classical", "simultaneous"):
        report = lang.check_fellow_traveller(rule)
        assert report == reference_check_fellow_traveller(lang, rule)
        assert report.witness == FellowWitness(("y",), ("X", "y"), "X", 0, 1)


def xy_or_x30_fsa():
    """Accepts xy and x^30: at radius 12 the longest window word is xy,
    while the live prefixes x, xx, ... run on to the radius."""
    trans = [(i, "x", i + 1) for i in range(30)] + [(1, "y", 31)]
    return Fsa(ALPHABET, 32, 0, (30, 31), trans)


def test_the_fold_stops_at_the_longest_word():
    model = z2_model()
    lang = WindowedLanguage(xy_or_x30_fsa(), model, 12)
    assert lang.words_by_element == {(1, 1): [("x", "y")]}
    for rule in ("classical", "simultaneous"):
        report = lang.check_fellow_traveller(rule)
        assert report == reference_check_fellow_traveller(lang, rule)


def test_ball_radius_follows_the_separation_bound():
    z2 = z2_model()
    # the longest word plus 2, but never below half the window
    assert WindowedLanguage(two_words_fsa(), z2, 64).ball.radius == 32
    assert WindowedLanguage(xy_or_x30_fsa(), z2, 12).ball.radius == 6
    assert WindowedLanguage(two_words_fsa(), z2, 3).ball.radius == 4
    assert WindowedLanguage(z2_normal_form_fsa(), z2, 20).ball.radius == 22
    assert WindowedLanguage(z2_parity_fsa(), z2, 0).ball.radius == 2
    # s5_model is closed under inversion too: its y is a transposition, so
    # Y = y^-1 = y
    assert WindowedLanguage(z2_normal_form_fsa(), s5_model(), 5).ball.radius == 7
    x_only = Fsa(("x", "X", "y"), 1, 0, (0,), [(0, "x", 0)])
    assert WindowedLanguage(x_only, symmetric_s5_model(), 9).ball.radius == 11
    # without inverse letters there is no symmetric metric to bound by:
    # x -> (1, 0) has inverse (-1, 0), which skew_z2_model has no letter for
    for radius in (0, 3, 8):
        with pytest.raises(ValueError, match="'x'"):
            WindowedLanguage(z2_normal_form_fsa(), skew_z2_model(), radius)


def test_a_small_ball_is_refused_before_any_pair_is_walked(monkeypatch):
    from hnnlab import biauto

    calls = []
    separations = biauto._pair_separations
    monkeypatch.setattr(
        biauto,
        "_pair_separations",
        lambda *pair: calls.append(pair) or separations(*pair),
    )
    model = z2_model()
    # Z^2 with its letters in another order: its ball holds the same
    # elements under other ids, so rows left from an earlier ball would
    # walk the wrong ids
    yx = GroupModel(
        {name: model.letter_images[name] for name in "xyXY"},
        mul=model.mul,
        inv=model.inv,
        identity=model.identity,
    )
    lang = WindowedLanguage(z2_parity_fsa(), model, 6)
    for rule in ("classical", "simultaneous"):
        want = reference_check_fellow_traveller(lang, rule)
        # L + 2 = 8: a radius-7 ball is too small, a radius-9 ball is not,
        # and a larger ball swapped in after that check is folded over too
        lang.ball = BallOracle(model, 7)
        with pytest.raises(OutOfWindow):
            lang.check_fellow_traveller(rule)
        assert calls == []
        for ball in (BallOracle(model, 9), BallOracle(yx, 10)):
            lang.ball = ball
            assert lang.check_fellow_traveller(rule) == want
        assert calls
        calls.clear()


def test_only_the_worst_pair_is_dated(monkeypatch):
    from hnnlab import biauto

    calls = []
    separations = biauto._pair_separations
    monkeypatch.setattr(
        biauto,
        "_pair_separations",
        lambda *pair: calls.append(pair) or separations(*pair),
    )
    model = z2_model()
    for fsa in (z2_normal_form_fsa(), z2_parity_fsa(), two_words_fsa()):
        for radius in (0, 1, 7):
            lang = WindowedLanguage(fsa, model, radius)
            for rule in ("classical", "simultaneous"):
                report = lang.check_fellow_traveller(rule)
                assert report == reference_check_fellow_traveller(lang, rule)
                # one call, for the reported pair, and none without a pair
                w = report.witness
                dated = [] if w is None else [(model, lang.ball, w.u, w.shift, w.v)]
                assert calls == dated
                calls.clear()


def reference_language_lengths(lang):
    """Shortest accepted-word length per element, by breadth-first search
    over (NFA state, element) pairs, one state at a time, to depth
    2 * radius + 2."""
    fsa, model = lang.fsa, lang.model
    best: dict = {}
    seen = {(s, model.identity) for s in fsa.initial}
    frontier = list(seen)
    max_depth = 2 * lang.radius + 2
    for depth in range(max_depth + 1):
        for state, elem in frontier:
            if state in fsa.accepting and elem not in best:
                best[elem] = depth
        if depth == max_depth:
            break
        nxt = []
        for state, elem in frontier:
            for letter in fsa.alphabet:
                for s2 in fsa.step((state,), letter):
                    node = (s2, model.mul(elem, model.letter_images[letter]))
                    if node not in seen:
                        seen.add(node)
                        nxt.append(node)
        frontier = nxt
    return best


def test_language_lengths_match_the_per_state_search():
    found = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        small_automata(),
        st.integers(0, 4),
        st.sampled_from((z2_model, s5_model)),
    )
    def check(fsa, radius, make_model):
        model = make_model()
        lang = WindowedLanguage(fsa, model, radius)
        want = reference_language_lengths(lang)
        # a second window reads the reference lengths
        ref = WindowedLanguage(fsa, model, radius)
        ref._ell_cache = want
        elements = list(want) + lang.ball.elements_of_norm_at_most(radius + 1)
        for g in elements:
            if g in want:
                assert lang.ell(g) == want[g]
                found["ell"] += 1
            else:
                with pytest.raises(OutOfWindow):
                    lang.ell(g)
        for g in model.letter_images.values():
            try:
                est = ref.tau_estimate(g, max_power=3)
            except OutOfWindow:
                with pytest.raises(OutOfWindow):
                    lang.tau_estimate(g, max_power=3)
                continue
            assert lang.tau_estimate(g, max_power=3) == est
            found["tau"] += 1

    check()
    assert found["ell"] >= 500 and found["tau"] >= 50


@pytest.mark.parametrize("radius", [0, 2, 4, 6])
def test_language_lengths_search_past_the_ball(radius):
    # ell and tau_estimate search the language to depth 2 * radius + 2,
    # whatever the radius of the ball
    model = z2_model()
    for make_fsa in (z2_normal_form_fsa, z2_parity_fsa, two_words_fsa):
        lang = WindowedLanguage(make_fsa(), model, radius)
        wide = WindowedLanguage(make_fsa(), model, radius)
        wide.ball = BallOracle(model, 2 * radius + 2)
        assert lang.ball.radius <= wide.ball.radius
        found = 0
        for g in wide.ball.elements_of_norm_at_most(2 * radius + 2):
            try:
                want = wide.ell(g)
            except OutOfWindow:
                with pytest.raises(OutOfWindow):
                    lang.ell(g)
                continue
            assert lang.ell(g) == want
            found += want > lang.ball.radius
        if make_fsa is not two_words_fsa and radius:
            assert found > 0
        for g in [(1, 0), (1, 1), (0, -2), (2, -1)]:
            try:
                want = wide.tau_estimate(g, max_power=4)
            except OutOfWindow:
                with pytest.raises(OutOfWindow):
                    lang.tau_estimate(g, max_power=4)
                continue
            assert lang.tau_estimate(g, max_power=4) == want


# ---------------------------------------------------------------------------
# unknown letters and negative lengths


def test_path_and_replay_refuse_unknown_letters():
    model = z2_model()
    with pytest.raises(UnknownLetter):
        model.evaluate(("x", "q"))
    with pytest.raises(UnknownLetter):
        model.path(("x", "q"))
    assert model.path(("x", "y")) == [(0, 0), (1, 0), (1, 1)]
    # an automaton letter that the model gives no image
    with pytest.raises(UnknownLetter, match="no image for letter 'q'"):
        WindowedLanguage(Fsa(("x", "q"), 1, 0, [0], []), model, 2)
    for witness in (
        FellowWitness(u=("x",), v=("y",), shift="q", time=1, separation=2),
        FellowWitness(u=("q",), v=("y",), shift=None, time=1, separation=2),
        FellowWitness(u=("x",), v=("q",), shift="x", time=1, separation=2),
    ):
        with pytest.raises(UnknownLetter):
            replay_fellow_witness(witness, model)


def test_negative_lengths_are_refused():
    fsa = z2_normal_form_fsa()
    with pytest.raises(ValueError):
        fsa.words_up_to(-1)
    with pytest.raises(ValueError):
        fsa.count_paths(-1)
    assert list(fsa.words_up_to(0)) == [()]
    assert fsa.count_paths(0) == 1
    # an automaton whose initial state does not accept has no word of
    # length 0, and still one path of length 0
    assert list(two_words_fsa().words_up_to(0)) == []
    assert two_words_fsa().count_paths(0) == 1


def reference_count_paths(fsa, max_len):
    """Paths of length <= max_len from an initial state, counted on a copy
    of the automaton with its unreachable and dead states removed and the
    rest renumbered (an empty language keeps one state: its empty path)."""
    fwd, bwd = {}, {}
    for src, _, dst in fsa.transitions():
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)

    def closure(seeds, edges):
        seen, todo = set(seeds), list(seeds)
        while todo:
            for nxt in edges.get(todo.pop(), set()) - seen:
                seen.add(nxt)
                todo.append(nxt)
        return seen

    keep = sorted(closure(fsa.initial, fwd) & closure(fsa.accepting, bwd))
    if not keep:
        return 1
    renum = {s: i for i, s in enumerate(keep)}
    edges = [
        (renum[a], renum[b])
        for a, _, b in fsa.transitions()
        if a in renum and b in renum
    ]
    counts = Counter(renum[s] for s in fsa.initial if s in renum)
    total = sum(counts.values())
    for _ in range(max_len):
        nxt = Counter()
        for a, b in edges:
            nxt[b] += counts[a]
        counts = nxt
        total += sum(counts.values())
    return total


def test_count_paths_matches_the_trimmed_copy():
    found = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_automata(), st.integers(0, 6))
    def check(fsa, max_len):
        assert fsa.count_paths(max_len) == reference_count_paths(fsa, max_len)
        found[bool(fsa.determinize().accepting)] += 1

    check()
    assert min(found.values()) >= 20
    # no state at all: the empty language's one empty path
    assert Fsa(("x",), 0, (), (), ()).count_paths(3) == 1


def spy_subsets(monkeypatch) -> list:
    """The automata whose subset automaton is built, one entry per build."""
    from hnnlab import biauto

    calls = []
    init = biauto._Subsets.__init__
    monkeypatch.setattr(
        biauto._Subsets,
        "__init__",
        lambda self, fsa: calls.append(fsa) or init(self, fsa),
    )
    return calls


def test_a_window_and_ell_share_one_subset_automaton(monkeypatch):
    calls = spy_subsets(monkeypatch)
    fsa = z2_parity_fsa()
    lang = WindowedLanguage(fsa, z2_model(), 4)
    lang.analyze()
    assert lang.ell((1, 1)) == 2
    fsa.count_paths(4)
    assert calls == [fsa]


def test_determinize_does_not_depend_on_earlier_walks(monkeypatch):
    calls = spy_subsets(monkeypatch)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_automata())
    def check(nfa):
        fresh = Fsa(**nfa.to_json()).determinize()
        calls.clear()
        list(nfa.words_up_to(4))
        # the rows the walk read are the ones determinize goes on from
        assert nfa.determinize().to_json() == fresh.to_json()
        assert calls == [nfa]

    check()


# ---------------------------------------------------------------------------
# the window built by prefix


def test_prefix_built_window_matches_evaluated_words():
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        small_automata(),
        st.integers(0, 5),
        st.sampled_from((z2_model, s5_model)),
    )
    def check(fsa, radius, make_model):
        while sum(1 for _ in fsa.words_up_to(radius)) > MAX_WINDOW_WORDS:
            radius -= 1
        model = make_model()
        # words_up_to lists the accepted words by length, then in the
        # alphabet's order, as a product over the alphabet does
        brute = [
            w
            for n in range(radius + 1)
            for w in itertools.product(fsa.alphabet, repeat=n)
            if fsa.accepts(w)
        ]
        assert list(fsa.words_up_to(radius)) == brute
        want: dict = {}
        for w in fsa.words_up_to(radius):
            want.setdefault(model.evaluate(w), []).append(w)
        got = WindowedLanguage(fsa, model, radius).words_by_element
        assert list(got.items()) == list(want.items())

    check()


# ---------------------------------------------------------------------------
# a model whose elements are plain ints, like the ball's ids


def z12_model():
    """Z/12 on x = 1, y = 5 and their inverses: every element is an int, so
    an element that a small ball lacks looks like one of the ball's ids."""
    return GroupModel(
        {"x": 1, "X": 11, "y": 5, "Y": 7},
        mul=lambda a, b: (a + b) % 12,
        inv=lambda a: -a % 12,
        identity=0,
    )


def test_int_elements_and_ball_ids_stay_apart():
    # X ends at 11, which has id 2; xx ends at 2, which has another id
    model = z12_model()
    fsa = Fsa(ALPHABET, 4, 0, (1, 3), [(0, "X", 1), (0, "x", 2), (2, "x", 3)])
    lang = WindowedLanguage(fsa, model, 2)
    assert lang.ball.ids[11] == 2 != lang.ball.ids[2]
    for rule in ("classical", "simultaneous"):
        report = lang.check_fellow_traveller(rule)
        assert report == reference_check_fellow_traveller(lang, rule)
    outcomes = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        small_automata(),
        st.integers(1, 4),
        st.sampled_from(("classical", "simultaneous")),
        st.data(),
    )
    def check(fsa, radius, pair_rule, data):
        while sum(1 for _ in fsa.words_up_to(radius)) > MAX_WINDOW_WORDS:
            radius -= 1
        model = z12_model()
        lang = WindowedLanguage(fsa, model, radius)
        # the whole group lies within radius 3; a smaller ball lacks some
        # of the elements, and its ids are ints below 12 as well
        ball_radius = data.draw(st.integers(1, 3))
        lang.ball = BallOracle(model, ball_radius)
        if ball_radius < longest_word(lang) + 2:
            with pytest.raises(OutOfWindow):
                lang.check_fellow_traveller(pair_rule, cap=2)
            outcomes["out of window"] += 1
            return
        want = reference_check_fellow_traveller(lang, pair_rule, cap=2)
        assert lang.check_fellow_traveller(pair_rule, cap=2) == want
        outcomes["whole ball" if len(lang.ball) == 12 else "part ball"] += 1

    check()
    assert outcomes["out of window"] >= 30
    assert outcomes["whole ball"] >= 30
