"""Seeded input generators whose answers are known by construction.

Nothing here imports hnnlab: every expected answer follows from how the
input was built, so the benchmark checks the program against facts it did
not compute with the program.

Words are tuples of nonzero ints in the library's convention: letters
a, b, c, d, t are 1..5 and a negative int is the inverse letter.

  * A product of conjugates of defining relators is trivial.
  * Inserting a t-free word whose exponent-sum vector in
    H1(surface) = Z^4 is nonzero makes it nontrivial: the result is a
    conjugate of that word, which is nontrivial in the surface group, and
    the surface group embeds in the HNN extension.
  * A word s0 t^e1 s1 ... t^ek sk with no pinch is Britton-reduced, so its
    tree distance is k.  Where e_i = -e_{i+1} the segment s_i avoids the
    edge subgroup because it moves the base point of a permutation action
    in which every generator of that subgroup fixes the base point.
"""

from __future__ import annotations

import random

A, B, C, D, T = 1, 2, 3, 4, 5
VERTEX_LETTERS = (A, B, C, D, -A, -B, -C, -D)
AMBIENT_LETTERS = VERTEX_LETTERS + (T, -T)

SURFACE_RELATOR = "AdcbCaBD"

# (u_i, v_i) with t * u_i * t^-1 = v_i: the defining data of the lattice
STABLE_PAIRS = (
    ("DaacBC", "d"),
    ("DaacAd", "aaC"),
    ("DaacbDAd", "acB"),
    ("DadCDadcAAd", "babA"),
    ("DadCAd", "bbC"),
    ("DadbCaBCdbAcAcBC", "bdCB"),
    ("bbCAAd", "cbDA"),
    ("DDaaDAd", "ccc"),
    ("DaBDad", "cdC"),
    ("DadcbbAAdcDAd", "AbCB"),
    ("DadcbADAd", "Acb"),
    ("DaadcDAd", "AdB"),
    ("DadcBCAdAAd", "BaBA"),
    ("DadcBBAAd", "BcbA"),
    ("DadcBCbAAd", "BdbA"),
    ("DaddbAcBBCDAd", "Caa"),
    ("DadAAdbADAd", "Cbb"),
    ("DaaDaCabCAAd", "abaDA"),
    ("DaaDcBBCDAd", "abba"),
    ("DaaDaBBBCDAd", "abca"),
    ("DaaDaCBCDAd", "abda"),
    ("DaacBAdbAdbAcAcBC", "adaCB"),
    ("DaacBBCDaaDAd", "adbc"),
    ("DaaCdbADAd", "aBab"),
    ("DadCDacBAcBC", "bcaB"),
    ("DadCDaDadbAd", "bcbAC"),
)

# Right action of a, b, c, d on the 12 cosets of H = <u_i> and of
# K = <v_i> (point 0 is the subgroup).  check_action() proves what the
# generators rely on: each column is a permutation, the surface relator
# fixes every point, and every subgroup generator fixes point 0.
H_ACTION = (
    (1, 5, 0, 10, 7, 11, 3, 8, 6, 2, 4, 9),
    (3, 6, 10, 5, 0, 8, 2, 1, 9, 4, 11, 7),
    (3, 0, 9, 2, 11, 8, 10, 6, 1, 4, 7, 5),
    (3, 0, 9, 11, 1, 8, 6, 7, 2, 4, 10, 5),
)
K_ACTION = (
    (1, 5, 0, 8, 7, 11, 2, 9, 4, 10, 3, 6),
    (3, 7, 10, 5, 0, 9, 4, 2, 1, 6, 11, 8),
    (5, 3, 4, 10, 8, 6, 0, 2, 1, 7, 11, 9),
    (0, 9, 3, 10, 8, 5, 6, 2, 1, 7, 11, 4),
)


def parse(text: str) -> tuple[int, ...]:
    """Compact grammar: one letter per generator, inverses uppercase."""
    return tuple(
        "abcdt".index(ch.lower()) + 1 if ch.islower() else -("abcdt".index(ch.lower()) + 1)
        for ch in text
    )


def invert(word) -> tuple[int, ...]:
    return tuple(-g for g in reversed(word))


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def exponent_vector(word) -> tuple[int, ...]:
    """Image in H1(surface) = Z^4: exponent sums of a, b, c, d."""
    v = [0, 0, 0, 0]
    for g in word:
        if abs(g) != T:
            v[abs(g) - 1] += 1 if g > 0 else -1
    return tuple(v)


SURFACE = parse(SURFACE_RELATOR)
U_WORDS = tuple(parse(u) for u, _ in STABLE_PAIRS)
V_WORDS = tuple(parse(v) for _, v in STABLE_PAIRS)
AMBIENT_RELATORS = (SURFACE,) + tuple(
    (T,) + u + (-T,) + invert(v) for u, v in zip(U_WORDS, V_WORDS)
)


class Action:
    """A right action of the surface group on finitely many points."""

    def __init__(self, columns):
        self.fwd = tuple(tuple(col) for col in columns)
        self.inv = tuple(
            tuple(col.index(p) for p in range(len(col))) for col in self.fwd
        )
        self.size = len(self.fwd[0])

    def act(self, point: int, word) -> int:
        for g in word:
            point = self.fwd[g - 1][point] if g > 0 else self.inv[-g - 1][point]
        return point

    def representatives(self) -> tuple[tuple[int, ...], ...]:
        """Shortest words carrying point 0 to each point, breadth first."""
        reps: dict[int, tuple[int, ...]] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for p in frontier:
                for g in VERTEX_LETTERS:
                    q = self.act(p, (g,))
                    if q not in reps:
                        reps[q] = reps[p] + (g,)
                        nxt.append(q)
            frontier = nxt
        return tuple(reps[p] for p in sorted(reps))


def check_action(action: Action, subgroup_words) -> None:
    for col in action.fwd:
        if sorted(col) != list(range(action.size)):
            raise ValueError("action column is not a permutation")
    for p in range(action.size):
        if action.act(p, SURFACE) != p:
            raise ValueError("surface relator moves a point")
    for w in subgroup_words:
        if action.act(0, w) != 0:
            raise ValueError("subgroup generator moves the base point")
    if len(action.representatives()) != action.size:
        raise ValueError("action is not transitive")


H = Action(H_ACTION)
K = Action(K_ACTION)
check_action(H, U_WORDS)
check_action(K, V_WORDS)


# ---------------------------------------------------------------------------
# building blocks


def random_word(rng: random.Random, letters, length: int) -> tuple[int, ...]:
    """A freely reduced word of exactly the given length."""
    out: list[int] = []
    while len(out) < length:
        g = rng.choice(letters)
        if not out or out[-1] != -g:
            out.append(g)
    return tuple(out)


def relator_conjugate(rng, relators, letters, max_conj: int) -> tuple[int, ...]:
    """g r g^-1 for a random rotation r of a relator or its inverse."""
    r = rng.choice(relators)
    if rng.random() < 0.5:
        r = invert(r)
    cut = rng.randrange(len(r))
    r = r[cut:] + r[:cut]
    g = random_word(rng, letters, rng.randrange(max_conj + 1))
    return g + r + invert(g)


def nontrivial_insert(rng: random.Random) -> tuple[int, ...]:
    """A t-free word with a nonzero exponent-sum vector."""
    while True:
        w = random_word(rng, VERTEX_LETTERS, rng.randrange(1, 9))
        if any(exponent_vector(w)):
            return w


def _strata(rng: random.Random, sizes):
    """Endless stream of sizes: every size once per round, shuffled."""
    sizes = list(sizes)
    while True:
        rng.shuffle(sizes)
        yield from sizes


def _rounds_with_inserts(rng: random.Random, sizes):
    """Endless stream of (size, insert position or None).  Each round holds
    every size four times, one of them with a nontrivial insert; the inserts'
    positions, as fractions of the word length, come from distinct strata of
    [0, 1), so every round has the same mix of sizes and positions."""
    sizes = list(sizes)
    strata = list(range(len(sizes)))
    while True:
        rng.shuffle(strata)
        cases = []
        for size, k in zip(sizes, strata):
            cases += [(size, None)] * 3
            cases.append((size, (k + rng.random()) / len(sizes)))
        rng.shuffle(cases)
        yield from cases


# ---------------------------------------------------------------------------
# workloads: each yields (input, expected) pairs forever, in rounds of a
# fixed mix (run.WORKLOADS gives the round length)


def word_problem(seed: int):
    """Products of 1..12 conjugates of the 27 ambient relators; one word in
    four also gets a t-free word with nonzero H1 image inserted."""
    rng = random.Random(seed)
    for n, at in _rounds_with_inserts(rng, range(1, 13)):
        word: tuple[int, ...] = ()
        for _ in range(n):
            word += relator_conjugate(rng, AMBIENT_RELATORS, AMBIENT_LETTERS, 3)
        if at is not None:
            i = int(at * (len(word) + 1))
            word = word[:i] + nontrivial_insert(rng) + word[i:]
        yield word, at is None


def off_subgroup_segment(rng: random.Random, action: Action, subgroup_words):
    """A word moving the base point: h * r for a subgroup generator or its
    inverse h and a non-identity coset representative r."""
    h = rng.choice(subgroup_words)
    if rng.random() < 0.5:
        h = invert(h)
    seg = free_reduce(h + rng.choice(action.representatives()[1:]))
    if action.act(0, seg) == 0:
        raise RuntimeError("segment fixes the base point")
    return seg


def reduced_path(rng: random.Random, k: int) -> tuple[int, ...]:
    """A Britton-reduced word with exactly k stable letters, three quarters
    of whose k - 1 neighbouring pairs have opposite signs."""
    flips = set(rng.sample(range(k - 1), round(0.75 * (k - 1))))
    exps = [rng.choice((1, -1))]
    for i in range(k - 1):
        exps.append(-exps[-1] if i in flips else exps[-1])
    word = random_word(rng, VERTEX_LETTERS, rng.randrange(4))
    for i, e in enumerate(exps):
        word += (T if e > 0 else -T,)
        if i + 1 < len(exps) and exps[i + 1] == -e:
            # t s t^-1 pinches iff s in H; t^-1 s t pinches iff s in K
            if e > 0:
                word += off_subgroup_segment(rng, H, U_WORDS)
            else:
                word += off_subgroup_segment(rng, K, V_WORDS)
        else:
            word += random_word(rng, VERTEX_LETTERS, rng.randrange(4))
    return word


def tree_distance(seed: int):
    """Reduced paths with k = 2..16 stable letters, with conjugates of
    ambient relators inserted; the expected distance is k."""
    rng = random.Random(seed)
    for k in _strata(rng, range(2, 17)):
        path = reduced_path(rng, k)
        m = 1 + k // 4
        # one insert per stratum of [0, 1), so they spread along the path
        # alike in every word; inserted right to left, cuts stay valid
        word = path
        for j in reversed(range(m)):
            i = int((j + rng.random()) / m * (len(path) + 1))
            piece = relator_conjugate(rng, AMBIENT_RELATORS, AMBIENT_LETTERS, 2)
            word = word[:i] + piece + word[i:]
        yield word, k


def surface_dehn(seed: int):
    """t-free products of 20..240 conjugates of the surface relator; one word
    in four gets a nonzero-H1 insert.  Expected: (trivial, exponent vector)."""
    rng = random.Random(seed)
    for n, at in _rounds_with_inserts(rng, range(20, 241, 20)):
        word: tuple[int, ...] = ()
        for _ in range(n):
            word += relator_conjugate(rng, (SURFACE,), VERTEX_LETTERS, 8)
        if at is not None:
            i = int(at * (len(word) + 1))
            word = word[:i] + nontrivial_insert(rng) + word[i:]
        yield word, (at is None, exponent_vector(word))


FSA_NAMES = ("z2-normal", "z2-adversarial")
PAIR_RULES = ("classical", "simultaneous")


def fsa_window(seed: int):
    """Every (language, rule, radius) combination, radii 6..20, once per
    round; the seed only orders them."""
    rng = random.Random(seed)
    cases = [(f, r, rad) for f in FSA_NAMES for r in PAIR_RULES for rad in range(6, 21)]
    yield from ((case, case) for case in _strata(rng, cases))
