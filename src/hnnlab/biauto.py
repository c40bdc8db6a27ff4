"""Empirical, windowed checks of automatic-structure axioms.

A regular language over a finite alphabet maps into a group through letter
images.  Everything here is checked exhaustively inside a finite window
(all accepted words up to a length bound, all group elements inside a
metric ball) and reported with concrete witnesses:

  * how many language words hit each group element (uniform finiteness),
  * whether close-by words fellow-travel, and with what constant,
  * how far accepted words are from geodesics,
  * stable translation lengths estimated from power norms.

The point of the window is honesty: nothing is extrapolated.  A property
that fails inside the window fails, full stop, and the witness replays;
a property that holds inside the window is reported with the window size.

Two pairing rules are supported for the fellow traveller check.  The
"classical" rule pairs words u, v when they start together and end at
distance at most 1, or when v ends exactly at s*end(u) for a generator s
and the u path is compared after translation by s.  The "simultaneous"
rule allows both a start offset of at most 1 and an end offset of at most
1 in the same pair.  The two rules genuinely differ: on the x-then-y
normal forms of Z^2 the classical constant is 2 while the simultaneous
rule already forces 3 (translate x^2y^2 by one x and compare with y^2).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from itertools import islice


class UnknownLetter(ValueError):
    """A word uses a letter outside the automaton's alphabet."""


class OutOfWindow(RuntimeError):
    """The computation needs a group element beyond the precomputed ball."""


def _check_length(max_len: int) -> None:
    if max_len < 0:
        raise ValueError(f"word length bound must be >= 0, got {max_len}")


class Fsa:
    """A finite-state automaton over named letters.

    States are ints 0..num_states-1, by from_json's rule: num_states and
    every state must be an exact int, not a bool, or ValueError is raised.
    Nondeterminism (several initial states or repeated (state, letter)
    transitions) is allowed: every walk over the language, and
    count_paths, reads one lazily built subset automaton (_Subsets) over
    the live states, made on first use.
    """

    def __init__(self, alphabet, num_states, initial, accepting, transitions):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters in alphabet")
        if not _is_state(num_states):
            raise ValueError(f"num_states must be an int, got {num_states!r}")
        if num_states < 0:
            raise ValueError(f"num_states must be >= 0, got {num_states}")
        self.num_states = num_states
        if not isinstance(initial, Iterable):
            initial = (initial,)
        # checked before the sets merge equal values such as 1 and 1.0
        initial, accepting = tuple(initial), tuple(accepting)
        _check_states(initial + accepting)
        self.initial = tuple(sorted(set(initial)))
        self.accepting = frozenset(accepting)
        if not all(0 <= q < num_states for q in (*self.initial, *self.accepting)):
            raise ValueError("initial or accepting state out of range")
        self._letters = frozenset(self.alphabet)
        delta: dict[tuple[int, str], set[int]] = {}
        for src, letter, dst in transitions:
            if letter not in self._letters:
                raise UnknownLetter(f"transition letter {letter!r} not in alphabet")
            _check_states((src, dst))
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError("transition endpoint out of range")
            delta.setdefault((src, letter), set()).add(dst)
        self._delta = {key: tuple(sorted(dsts)) for key, dsts in delta.items()}

    @property
    def is_deterministic(self) -> bool:
        return len(self.initial) == 1 and all(
            len(ds) == 1 for ds in self._delta.values()
        )

    def transitions(self):
        for (src, letter), dsts in sorted(self._delta.items()):
            for dst in dsts:
                yield src, letter, dst

    def step(self, states, letter):
        if letter not in self._letters:
            raise UnknownLetter(f"letter {letter!r} not in alphabet")
        out = set()
        for s in states:
            out.update(self._delta.get((s, letter), ()))
        return frozenset(out)

    def accepts(self, word) -> bool:
        states = frozenset(self.initial)
        for letter in word:
            states = self.step(states, letter)
            if not states:
                return False
        return bool(states & self.accepting)

    def determinize(self) -> "Fsa":
        """The subset automaton over the live states, in breadth-first
        order: equivalent and deterministic, and with no dead set (an empty
        language gives one state that accepts nothing)."""
        sets = self._subsets
        trans = []
        i = 0
        # reading a row numbers the sets it reaches first
        while i < len(sets.accepting):
            trans += [(i, letter, j) for letter, j, _ in sets[i]]
            i += 1
        accepting = [i for i, flag in enumerate(sets.accepting) if flag]
        return Fsa(self.alphabet, len(sets.accepting), 0, accepting, trans)

    @cached_property
    def _subsets(self) -> "_Subsets":
        return _Subsets(self)

    def words_up_to(self, max_len: int):
        """Yield all accepted words of length <= max_len (letter tuples),
        shortest first, pruning branches that cannot reach acceptance."""
        _check_length(max_len)
        return self._words_up_to(max_len)

    def _words_up_to(self, max_len: int):
        # the frontier holds every live prefix of the current length, with
        # the number of the set of states it reaches
        sets = self._subsets
        if sets.accepting[0]:
            yield ()
        frontier = [((), 0)]
        for _ in range(max_len):
            nxt = []
            for word, i in frontier:
                for letter, j, accepted in sets[i]:
                    w2 = word + (letter,)
                    if accepted:
                        yield w2
                    nxt.append((w2, j))
            frontier = nxt

    def count_paths(self, max_len: int) -> int:
        """Paths of length <= max_len from an initial state through the live
        states: a bound on the prefixes words_up_to walks.  An empty language
        still has the empty prefix."""
        _check_length(max_len)
        return next(islice(self._path_totals(), max_len, None))

    def _path_totals(self):
        """Yield count_paths(0), count_paths(1), ... without end."""
        # one int object per state: a JSON file gives each occurrence of a
        # state its own, and a dict lookup is quickest on the same object
        live = {s: s for s in self._subsets.live}
        edges = [
            (live[src], live[dst])
            for (src, _), dsts in self._delta.items()
            if src in live
            for dst in dsts
            if dst in live
        ]
        counts = dict.fromkeys([live[s] for s in self.initial if s in live], 1)
        total = len(counts) or 1
        yield total
        while True:
            nxt: dict[int, int] = {}
            for src, dst in edges:
                if src in counts:
                    nxt[dst] = nxt.get(dst, 0) + counts[src]
            counts = nxt
            total += sum(counts.values())
            yield total

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "num_states": self.num_states,
            "initial": list(self.initial),
            "accepting": sorted(self.accepting),
            "transitions": [[a, letter, b] for a, letter, b in self.transitions()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Fsa":
        """The inverse of to_json; a malformed field raises ValueError naming
        it.  States are ints (not bools), letters are strings, and initial
        may be a single state."""
        if not isinstance(data, dict):
            raise ValueError("automaton must be a JSON object")
        missing = [key for key in _FSA_FIELDS if key not in data]
        if missing:
            raise ValueError(f"automaton is missing {', '.join(missing)}")
        if not _is_state(data["num_states"]):
            raise ValueError("automaton field num_states must be an integer")
        initial = data["initial"]
        if not _is_state(initial):
            initial = _json_list(data, "initial", _is_state, "integers")
        return cls(
            _json_list(data, "alphabet", _is_letter, "strings"),
            data["num_states"],
            initial,
            _json_list(data, "accepting", _is_state, "integers"),
            _json_list(data, "transitions", _is_transition, "[int, str, int] triples"),
        )


class _Subsets(dict):
    """The subset automaton of an Fsa over its live states, built as read.

    `live` holds the states reachable from an initial state that can reach
    acceptance, found from the transitions alone.  Set 0 is the set of live
    initial states, and each later set is numbered when a row first reaches
    it; `accepting[i]` says whether set i holds an accepting state.
    `self[i]`, the row of set i, lists (letter, j, accepting[j]) for each
    letter, in alphabet order, that leads from set i to a nonempty set j of
    live states; it is computed the first time it is read.  Every set can
    reach acceptance, except set 0 of an empty language."""

    def __init__(self, fsa: Fsa):
        super().__init__()
        fwd, bwd = {}, {}
        for (src, _), dsts in fsa._delta.items():
            fwd.setdefault(src, []).extend(dsts)
            for dst in dsts:
                bwd.setdefault(dst, []).append(src)
        self.fsa = fsa
        self.live = _closure(fsa.initial, fwd) & _closure(fsa.accepting, bwd)
        first = frozenset(self.live.intersection(fsa.initial))
        self._numbering = {first: 0}
        self._sets = [first]
        self.accepting = [bool(first & fsa.accepting)]

    def __missing__(self, i):
        fsa, live = self.fsa, self.live
        numbering, accepting = self._numbering, self.accepting
        row = self[i] = []
        for letter in fsa.alphabet:
            after = fsa.step(self._sets[i], letter) & live
            if not after:
                continue
            j = numbering.get(after)
            if j is None:
                j = numbering[after] = len(self._sets)
                self._sets.append(after)
                accepting.append(bool(after & fsa.accepting))
            row.append((letter, j, accepting[j]))
        return row

    def longest(self, max_len: int) -> int:
        """The length of the longest accepted word of length <= max_len, 0
        if there is none: the sets reached by the words of each length,
        stepped one length at a time."""
        longest, reached = 0, {0}
        for length in range(1, max_len + 1):
            reached = {j for i in reached for _, j, _ in self[i]}
            if not reached:
                break
            if any(self.accepting[j] for j in reached):
                longest = length
        return longest


def _closure(seeds, edges) -> set:
    """The states reached from seeds along edges (state -> successors)."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


_FSA_FIELDS = ("alphabet", "num_states", "initial", "accepting", "transitions")


def _is_state(x) -> bool:
    return type(x) is int


def _check_states(states) -> None:
    for q in states:
        if not _is_state(q):
            raise ValueError(f"state {q!r} is not an int")


def _is_letter(x) -> bool:
    return type(x) is str


def _is_transition(x) -> bool:
    return (
        isinstance(x, (list, tuple))
        and len(x) == 3
        and _is_state(x[0])
        and _is_letter(x[1])
        and _is_state(x[2])
    )


def _json_list(data: dict, key: str, ok, entries: str) -> list:
    items = data[key]
    if not isinstance(items, (list, tuple)) or not all(map(ok, items)):
        raise ValueError(f"automaton field {key} must be a list of {entries}")
    return items


class GroupModel:
    """Concrete group with hashable elements and named letter images."""

    def __init__(self, letter_images: dict, mul, inv, identity):
        self.letter_images = dict(letter_images)
        self.mul = mul
        self.inv = inv
        self.identity = identity

    def _image(self, letter):
        try:
            return self.letter_images[letter]
        except KeyError:
            raise UnknownLetter(f"letter {letter!r} has no image") from None

    def evaluate(self, word):
        return self.path(word)[-1]

    def path(self, word, start=None):
        g = start if start is not None else self.identity
        pts = [g]
        for letter in word:
            g = self.mul(g, self._image(letter))
            pts.append(g)
        return pts


class BallOracle:
    """Word-metric ball around the identity, computed once by BFS over the
    letter images.  Norms and distances outside the ball raise OutOfWindow;
    a negative radius raises ValueError.

    Each element reached gets an id in breadth-first order (the identity is
    0), so `norms` is non-decreasing in id: `ids` maps element to id,
    `elements[i]` is element i and `norms[i]` its norm.  For each letter x,
    `right[x][i]` is the id of g_i * x, or None when that product lies
    outside the ball.  `inverse_left[x][i]` is the id of x^-1 * g_i,
    derived as (g_i^-1 * x)^-1, or None when g_i^-1 or g_i^-1 * x lies
    outside the ball; with letter images closed under inversion the ball
    is symmetric and that happens only when x^-1 * g_i itself lies
    outside.  A word of length at most the radius is a walk over these
    tables from id 0, one index per letter, with no product and no hash.
    """

    def __init__(self, model: GroupModel, radius: int):
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        self.model = model
        self.radius = radius
        mul = model.mul
        ids = self.ids = {model.identity: 0}
        norms = self.norms = [0]
        right = self.right = {name: [] for name in model.letter_images}
        # the frontier is visited in id order, so each letter's right
        # table grows by one entry per element: bind its append once
        letters = [(img, right[x].append) for x, img in model.letter_images.items()]
        frontier = [model.identity]
        for r in range(1, radius + 1):
            nxt = []
            for g in frontier:
                for img, append in letters:
                    h = mul(g, img)
                    i = ids.get(h)
                    if i is None:
                        i = ids[h] = len(norms)
                        norms.append(r)
                        nxt.append(h)
                    append(i)
            frontier = nxt
        for g in frontier:
            for img, append in letters:
                append(ids.get(mul(g, img)))
        self.elements = list(ids)
        # x^-1 * g = (g^-1 * x)^-1
        inv_id = [ids.get(model.inv(g)) for g in self.elements]
        self.inverse_left = {
            name: [
                None if j is None or table[j] is None else inv_id[table[j]]
                for j in inv_id
            ]
            for name, table in right.items()
        }

    def __len__(self):
        return len(self.ids)

    def norm(self, g) -> int:
        try:
            return self.norms[self.ids[g]]
        except KeyError:
            raise OutOfWindow(
                f"element outside the radius-{self.radius} ball"
            ) from None

    def dist(self, g, h) -> int:
        return self.norm(self.model.mul(self.model.inv(g), h))

    def elements_of_norm_at_most(self, r: int):
        return self.elements[: bisect_right(self.norms, r)]


class FiniteToOneReport(
    namedtuple(
        "FiniteToOneReport",
        "bound witness_element witness_words surjective missing window",
    )
):
    """FiniteToOneReport(bound, witness_element, witness_words, surjective, missing,
    window): the most words on one element, that element and its words, and the
    elements of the half-radius ball that no window word reaches."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.bound >= 1 and self.surjective


class FellowWitness(namedtuple("FellowWitness", "u v shift time separation")):
    """A replayable record of the worst separation found: translate the
    path of u by the shift letter (if any) and compare with the path of v
    at the given time."""

    __slots__ = ()


class FellowReport(
    namedtuple("FellowReport", "pair_rule zeta pairs_checked witness window cap")
):
    """FellowReport(pair_rule, zeta, pairs_checked, witness, window, cap): the worst
    separation zeta over the near pairs, and its witness (None if no pair separates)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.cap is None or self.zeta <= self.cap


QuasiGeodesicReport = namedtuple("QuasiGeodesicReport", "multiplicative additive window")
TauEstimate = namedtuple("TauEstimate", "value stabilized norms")


class StructureReport(
    namedtuple("StructureReport", "radius finite_to_one fellow quasigeodesic")
):
    """StructureReport(radius, finite_to_one, fellow, quasigeodesic): the three checks."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.finite_to_one.ok and self.fellow.ok


def _letter_digits(model: GroupModel) -> tuple:
    """(bits, digit): the k-th letter of model.letter_images is the digit k
    of `bits` bits.  A word's digits, its first letter the most
    significant, make one int; no letter is the digit 0."""
    bits = len(model.letter_images).bit_length()
    return bits, {name: i for i, name in enumerate(model.letter_images, 1)}


class WindowedLanguage:
    """All accepted words of length <= radius, indexed by group element.

    Fellow travelling is measured in the symmetric word metric, so the
    letter images must be closed under inversion (every image's inverse is
    itself an image); a ValueError names the first letter whose image's
    inverse is not one.  A pair (u, shift s, v) then separates by at most
    floor((|s^-1| + |e_T| + |u| + |v|) / 2) <= L + 1, where e_T is the
    offset of the two end points and L the longest word in the window: the
    triangle inequality along the walk from e_0 = s^-1 bounds each
    separation by |s^-1| plus the letters walked so far, and along the walk
    back from e_T by |e_T| plus the letters still to come.  A ball of
    radius L + 2 then holds every end, target and near key and every step
    of every walk, and radius // 2 keeps the half window that surjectivity
    is checked on; the ball has the larger of the two radii.

    The window lives on its ball's ids.  L is read from the subset
    automaton first, the ball is built, and the window is folded over the
    ball's right tables to depth L, shortest word first: a word's ball id
    is one index into its last letter's table at its prefix's id, and its
    padded digits (see _letter_digits) and its rows (the inverse-left and
    the right tables of its letters, in order) extend its prefix's.  Words
    are stored by the id they end at, so the checks read ids and `norms`
    and hash no element; `words_by_element` is built from that storage on
    first use, in the same order.  The rows belong to the ball they were
    folded on: a ball swapped into `ball` is folded over again when a check
    next reads the words, and one below radius L, which cannot hold every
    word, raises OutOfWindow there (check_fellow_traveller refuses a ball
    below L + 2 first).
    """

    def __init__(self, fsa: Fsa, model: GroupModel, radius: int):
        if radius < 0:
            raise ValueError(f"window radius must be >= 0, got {radius}")
        for letter in fsa.alphabet:
            if letter not in model.letter_images:
                raise UnknownLetter(f"no image for letter {letter!r}")
        images = set(model.letter_images.values())
        for letter, g in model.letter_images.items():
            if model.inv(g) not in images:
                raise ValueError(
                    f"the inverse of the image of letter {letter!r}"
                    " is not a letter image"
                )
        self.fsa = fsa
        self.model = model
        self.radius = radius
        # L, the longest word in the window
        self._longest = fsa._subsets.longest(radius)
        self.ball = BallOracle(model, max(self._longest + 2, radius // 2))
        self._fold = self._fold_over(self.ball)

    def _fold_over(self, ball: BallOracle) -> tuple:
        """(ball, ends, words, listed): the window folded over ball.

        `ends` lists the ids that words end at, in the order the fold first
        reaches them, and `words[k]` holds the words ending at id k (None if
        there are none) as three tuples with one item per word: its
        inverse-left rows, its own entry (index, |w|, padded digits, right
        rows) and its near entry, the same with |w| + 1.  A word's padded
        digits are its letters' digits (see _letter_digits) followed by zero
        digits to L + 1 places, and its index is its position in `listed`,
        which lists the words end by end."""
        longest = self._longest
        if ball.radius < longest:
            raise OutOfWindow(
                f"the window needs a ball of radius {longest}, not {ball.radius}"
            )
        bits, digit = _letter_digits(self.model)
        right, left = ball.right, ball.inverse_left
        sets = self.fsa._subsets
        # each live prefix of the current length as (word, number of its set
        # of states, ball id, padded digits, inverse-left rows, right rows);
        # found[k] lists the accepted ones ending at id k
        empty = ((), 0, 0, 0, (), ())
        found = {0: [empty]} if sets.accepting[0] else {}
        frontier = [empty]
        for depth in range(longest):
            # the next letter's digit is in place depth + 1 of longest + 1,
            # counted from the most significant
            place = bits * (longest - depth)
            steps = {x: (right[x], left[x], d << place) for x, d in digit.items()}
            nxt = []
            for w, i, k, code, lu, ru in frontier:
                for letter, j, accepted in sets[i]:
                    row, lx, d = steps[letter]
                    h = row[k]
                    item = (w + (letter,), j, h, code | d, lu + (lx,), ru + (row,))
                    if accepted:
                        found.setdefault(h, []).append(item)
                    nxt.append(item)
            frontier = nxt
        words: list = [None] * len(ball)
        listed: list = []
        for k, items in found.items():
            # tuples, not lists, per element: a list is two allocations,
            # and with lists ten rounds of the 60 fsa-window cases in one
            # process read about 0.6 MB more peak RSS
            lefts, own, near = [], [], []
            for w, _, _, code, lu, rv in items:
                lefts.append(lu)
                own.append((len(listed), len(w), code, rv))
                near.append((len(listed), len(w) + 1, code, rv))
                listed.append(w)
            words[k] = (tuple(lefts), tuple(own), tuple(near))
        return ball, list(found), words, listed

    def _folded(self) -> tuple:
        """The fold over `ball`, folded again if another ball was swapped in."""
        if self._fold[0] is not self.ball:
            self._fold = self._fold_over(self.ball)
        return self._fold

    @cached_property
    def words_by_element(self) -> dict:
        """Each element a window word reaches, with its words shortest first,
        in the order the words first reach the elements."""
        ball, ends, words, listed = self._fold
        return {
            ball.elements[k]: [listed[entry[0]] for entry in words[k][1]]
            for k in ends
        }

    # -- uniform finiteness -------------------------------------------------

    def check_finite_to_one(self) -> FiniteToOneReport:
        """Multiplicity bound over the window, plus surjectivity onto the
        half-radius ball (words up to twice as long as the norm get a
        chance to represent each element)."""
        ball, ends, words, listed = self._folded()
        bound, element, witness_words = 0, None, ()
        for k in ends:
            own = words[k][1]
            if len(own) > bound:
                bound, element = len(own), ball.elements[k]
                witness_words = tuple(listed[entry[0]] for entry in own)
        # ids are breadth-first: the half-radius ball is an initial run of them
        missing = tuple(
            ball.elements[k]
            for k in range(bisect_right(ball.norms, self.radius // 2))
            if words[k] is None
        )
        return FiniteToOneReport(
            bound=bound,
            witness_element=element,
            witness_words=witness_words,
            surjective=not missing,
            missing=missing,
            window=self.radius,
        )

    # -- fellow traveller ----------------------------------------------------

    def check_fellow_traveller(
        self, pair_rule: str = "classical", cap: int | None = None
    ) -> FellowReport:
        """The largest separation over all near pairs of window words.

        Every near pair is counted in `pairs_checked`, but three kinds of
        pair are not walked, since none can change the report:

          * a pair (u, s, v) whose mirror (v, s^-1, u), with the same
            separations, came earlier: v has a smaller index than u, each
            word's index being its position in `words_by_element` order;
          * a pair whose separation bound (see the class docstring) is at
            most the worst separation zeta found so far;
          * a pair whose v spells s * u (u when there is no shift) letter
            for letter over its first k letters, where the bound restarted
            at time k is at most zeta.  Each e_t with t <= k is then the
            identity (no shift) or the inverse of u's t-th letter, so
            |e_t| <= c, with c = 0 unshifted and c = 1 shifted, and from
            time k on the triangle inequality gives
            floor((c + |e_T| + |u| + |v| - 2k) / 2).  So a shifted pair
            is skipped only once zeta >= 1.  Words are compared as ints,
            one digit per letter, padded with a digit no letter has: a
            stretch that runs past the end of u or v matches only when
            v = u (no shift) or v starts with all of s * u, and the bound
            holds there too.

        The worst pair is still the first one in enumeration order.  The
        walks keep only that pair; after them, the group's own products
        date it (the witness's time is the first time the pair reaches
        its separation).

        A ball of radius below L + 2 (one swapped into `ball`) raises
        OutOfWindow before any pair is walked.  Otherwise the words are the
        window's fold over the ball (see the class docstring): each word's
        end id, padded digits and rows come from its prefix's, and every
        target s * end, near key and walk step is one lookup in the ball's
        tables.  Ball ids are breadth-first, so a walk keeps only the
        largest id it visits and reads that id's norm once, after the walk.
        Each target's near words are listed once per check as one flat list
        of entries (index of v, |v| + |e_T|, v's padded digits, v's right
        rows): first the target's own words (e_T the identity), then the
        words one letter right of it (|e_T| = 1), in letter order, once per
        letter image other than the identity.  The list is shared by every
        (end, shift) that lands on the target, and each entry by every list
        that holds it.  So the three skips above are integer operations on
        the entry, each pair is one loop iteration, and `pairs_checked`
        grows by a whole list at a time.
        """
        if pair_rule not in ("classical", "simultaneous"):
            raise ValueError(f"unknown pair rule {pair_rule!r}")
        ball = self.ball
        walk_radius = self._longest + 2
        if ball.radius < walk_radius:
            raise OutOfWindow(
                f"the walks need a ball of radius {walk_radius},"
                f" not {ball.radius}"
            )
        _, ends, words, listed = self._folded()
        model = self.model
        ids, norms = ball.ids, ball.norms
        right, left = ball.right, ball.inverse_left
        # t * x = t * y exactly when x and y have one image, and t * x = t
        # when x's image is the identity (id 0): so the ids one letter right
        # of a target are read from the tables of the distinct images other
        # than the identity, each under its first letter
        firsts: dict = {}
        for name in model.letter_images:
            firsts.setdefault(right[name][0], right[name])
        firsts.pop(0, None)
        tables = list(firsts.values())
        # the separation at time t of u shifted by s and v is the norm of
        # e_t = (s * u[:t])^-1 * v[:t]: e_0 = s^-1 and
        # e_{t+1} = x_t^-1 * e_t * y_t for the letters x_t of u and y_t of v,
        # one step in an inverse-left and one in a right table
        #
        # near_lists[k]: (pairs counted, near entries) over k and the ids
        # one letter right of it, built the first time a pair needs it
        near_lists: list = [None] * len(norms)

        def near(t):
            found = [] if words[t] is None else list(words[t][1])
            for table in tables:
                at = words[table[t]]
                if at is not None:
                    found += at[2]
            near_lists[t] = (len(found), found)
            return near_lists[t]

        # two padded words a and b agree on their first (d + 1) // 2
        # places exactly when a ^ b < agree[d]
        bits, digit = _letter_digits(model)
        width = bits * (self._longest + 1)
        agree = [
            1 << width - bits * ((d + 1) // 2) for d in range(2 * self._longest + 2)
        ]
        # a lead that agrees with no padded word in any place
        never = 1 << width
        # s * g is one inverse-left step by the letter whose image is s^-1
        named = {img: name for name, img in model.letter_images.items()}
        # no shift: e_0 is the identity, id 0; s's digit in the top place,
        # over the padded digits of u moved down one place, is s * u
        shifts = [(None, 0, None, None)]
        for name, s in sorted(model.letter_images.items()):
            s_inv = model.inv(s)
            shifts.append(
                (name, ids[s_inv], left[named[s_inv]], digit[name] << width - bits)
            )
        classical = pair_rule == "classical"
        zeta, worst, pairs = 0, None, 0
        for end in ends:
            lefts, own, _ = words[end]
            # each shift's near entries, shared by the words ending here
            targets = []
            for shift_name, e0, table, head in shifts:
                if shift_name is None:
                    # right multiplication: ends at most 1 apart
                    count, entries = near_lists[end] or near(end)
                else:
                    # left multiplication: a shifted start, and under the
                    # classical rule equal ends
                    t = table[end]
                    if not classical:
                        count, entries = near_lists[t] or near(t)
                    elif words[t] is None:
                        # no word ends there: no pair
                        continue
                    else:
                        entries = words[t][1]
                        count = len(entries)
                # 1 - |e_0|: e_0 = s^-1 is at most one letter
                slack = 1 if shift_name is None else 0
                targets.append((shift_name, e0, count, entries, slack, head))
            for (index, n, code, _), lu in zip(own, lefts):
                for shift_name, e0, count, entries, slack, head in targets:
                    pairs += count
                    # the bound is at most zeta when |v| + |e_T| <= room
                    room = 2 * zeta + slack - n
                    # the padded digits of s * u: while v spells s * u, each
                    # e_t is at most 1 - slack long, so a shifted lead needs
                    # zeta >= 1
                    if head is None:
                        lead = code
                    elif zeta:
                        lead = head | code >> bits
                    else:
                        lead = never
                    for j, size, cv, rv in entries:
                        if j < index or size <= room:
                            continue
                        # v spells s * u for the first k letters, k half of
                        # size - room rounded up: the bound from time k on
                        # is at most zeta
                        if (cv ^ lead) < agree[size - room]:
                            continue
                        # a finished word waits at its end point; the
                        # largest id on the walk has its largest norm
                        e = top = e0
                        for lx, ry in zip(lu, rv):
                            e = ry[lx[e]]
                            if e > top:
                                top = e
                        m = len(rv)
                        if n != m:
                            # the longer word's rows past the shorter
                            # word's end, each one step
                            for row in lu[m:] if n > m else rv[n:]:
                                e = row[e]
                                if e > top:
                                    top = e
                        if norms[top] > zeta:
                            zeta, worst = norms[top], (index, j, shift_name)
        witness = None
        if worst is not None:
            u, v, shift_name = listed[worst[0]], listed[worst[1]], worst[2]
            seps = _pair_separations(model, ball, u, shift_name, v)
            witness = FellowWitness(u, v, shift_name, seps.index(zeta), zeta)
        return FellowReport(
            pair_rule=pair_rule,
            zeta=zeta,
            pairs_checked=pairs,
            witness=witness,
            window=self.radius,
            cap=cap,
        )

    # -- geodesics -------------------------------------------------------------

    def quasigeodesic(self) -> QuasiGeodesicReport:
        worst = Fraction(1)
        additive = 0
        ball, ends, words, _ = self._folded()
        for k in ends:
            n = ball.norms[k]
            for _, m, _, _ in words[k][1]:
                if n == 0:
                    additive = max(additive, m)
                elif m > n:
                    worst = max(worst, Fraction(m, n))
        return QuasiGeodesicReport(
            multiplicative=worst, additive=additive, window=self.radius
        )

    # -- stable lengths -----------------------------------------------------------

    @cached_property
    def _ell_cache(self) -> dict:
        """Shortest accepted-word length per element, by breadth-first search
        over (set of states, element) pairs of the automaton's subset rows
        and the group, to depth 2 * radius + 2 whatever the ball's radius:
        an element's language length counts as inside the window when it
        is at most that."""
        best: dict = {}
        sets = self.fsa._subsets
        mul, images = self.model.mul, self.model.letter_images
        seen = {(0, self.model.identity)}
        frontier = list(seen)
        max_depth = 2 * self.radius + 2
        for depth in range(max_depth + 1):
            for i, elem in frontier:
                if sets.accepting[i] and elem not in best:
                    best[elem] = depth
            if depth == max_depth:
                break
            nxt = []
            for i, elem in frontier:
                for letter, j, _ in sets[i]:
                    node = (j, mul(elem, images[letter]))
                    if node not in seen:
                        seen.add(node)
                        nxt.append(node)
            frontier = nxt
        return best

    def ell(self, g) -> int:
        """Length of the shortest accepted word representing g."""
        try:
            return self._ell_cache[g]
        except KeyError:
            raise OutOfWindow(
                "no accepted word for the element inside the window"
            ) from None

    def power_norms(self, g, max_power: int = 6) -> tuple:
        """ell(g), ell(g^2), ..., ell(g^max_power).  A max_power that is not
        an int >= 1 raises ValueError, here and in tau_estimate and
        conjugacy_tau, which read these norms."""
        if not isinstance(max_power, int) or max_power < 1:
            raise ValueError(f"max_power must be an int >= 1, got {max_power!r}")
        out = []
        acc = self.model.identity
        for _ in range(max_power):
            acc = self.model.mul(acc, g)
            out.append(self.ell(acc))
        return tuple(out)

    def tau_estimate(self, g, max_power: int = 6) -> TauEstimate:
        """Stable word length lim ell(g^n)/n over the accepted language.

        When the last three increments agree the growth has gone linear in
        the window and the common increment is reported as the exact value;
        otherwise the best available quotient is returned unstabilized.
        """
        norms = self.power_norms(g, max_power)
        incs = [b - a for a, b in zip((0,) + norms, norms)]
        if len(incs) >= 3 and incs[-1] == incs[-2] == incs[-3]:
            return TauEstimate(Fraction(incs[-1]), True, norms)
        return TauEstimate(Fraction(norms[-1], len(norms)), False, norms)

    def conjugacy_tau(self, g, conj_norm: int = 2, max_power: int = 6) -> TauEstimate:
        """Minimum stabilized estimate over conjugates h*g*h^-1 with small h;
        the stable length is a conjugacy invariant, so conjugating can only
        help the window converge."""
        mul, inv = self.model.mul, self.model.inv
        best = None
        for h in self.ball.elements_of_norm_at_most(conj_norm):
            cand = mul(h, mul(g, inv(h)))
            try:
                est = self.tau_estimate(cand, max_power)
            except OutOfWindow:
                continue
            if est.stabilized and (best is None or est.value < best.value):
                best = est
        if best is None:
            raise OutOfWindow("no conjugate stabilized inside the window")
        return best

    def analyze(
        self, pair_rule: str = "classical", cap: int | None = None
    ) -> StructureReport:
        return StructureReport(
            radius=self.radius,
            finite_to_one=self.check_finite_to_one(),
            fellow=self.check_fellow_traveller(pair_rule, cap),
            quasigeodesic=self.quasigeodesic(),
        )


def _pair_separations(model: GroupModel, ball: BallOracle, u, shift, v) -> list:
    """The separations of shift * u and v at times 0, 1, ..., from the
    group's own products; a finished path waits at its end point.
    OutOfWindow if one lies outside the ball."""
    start = None if shift is None else model._image(shift)
    a = list(map(model.inv, model.path(u, start)))
    b = model.path(v)
    if len(a) < len(b):
        a += a[-1:] * (len(b) - len(a))
    elif len(b) < len(a):
        b += b[-1:] * (len(a) - len(b))
    return list(map(ball.norm, map(model.mul, a, b)))


def replay_fellow_witness(witness: FellowWitness, model: GroupModel) -> int:
    """Recompute the separation recorded in a witness from scratch."""
    u, v = witness.u, witness.v
    ball = BallOracle(model, len(u) + len(v) + 2)
    seps = _pair_separations(model, ball, u, witness.shift, v)
    # past both ends the pair waits at its end points
    return seps[min(witness.time, len(seps) - 1)]


# ---------------------------------------------------------------------------
# built-in languages


def z2_model() -> GroupModel:
    return GroupModel(
        letter_images={"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)},
        mul=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        inv=lambda a: (-a[0], -a[1]),
        identity=(0, 0),
    )


def z2_normal_form_fsa() -> Fsa:
    """x-run then y-run: the unique normal form x^m y^n for each (m, n)."""
    # states: 0 start, 1 positive x-run, 2 negative x-run, 3 y+, 4 y-
    trans = [
        (0, "x", 1),
        (0, "X", 2),
        (0, "y", 3),
        (0, "Y", 4),
        (1, "x", 1),
        (2, "X", 2),
        (1, "y", 3),
        (1, "Y", 4),
        (2, "y", 3),
        (2, "Y", 4),
        (3, "y", 3),
        (4, "Y", 4),
    ]
    return Fsa(("x", "X", "y", "Y"), 5, 0, (0, 1, 2, 3, 4), trans)


def z2_parity_fsa() -> Fsa:
    """An adversarial normal form: x-run first when |m| + |n| is even,
    y-run first when odd.  Still one word per element and still geodesic,
    but the words for (k, k) and (k - 1, k) head off in opposite directions,
    so no fellow traveller constant works: the separation grows linearly
    with the window radius.
    """
    # state 0 is the start; each axis order has a block of four states for
    # its first run and the next block for its second run:
    #   1..4:   x-run first     5..8:   then a y-run, accepting on even totals
    #   9..12:  y-run first     13..16: then an x-run, accepting on odd totals
    def state(block, letter, parity):
        # the last letter's sign and the parity of the length so far:
        # (+, odd), (+, even), (-, odd), (-, even)
        return block + 2 * letter.isupper() + 1 - parity

    trans, accepting = [], [0]
    for first, second, block, total_parity in (("xX", "yY", 1, 0), ("yY", "xX", 9, 1)):
        then = block + 4
        trans += [(0, a, state(block, a, 1)) for a in first]
        for p, q in ((0, 1), (1, 0)):
            for a in first:
                trans.append((state(block, a, p), a, state(block, a, q)))
                trans += [(state(block, a, p), b, state(then, b, q)) for b in second]
            trans += [(state(then, b, p), b, state(then, b, q)) for b in second]
        # a pure x-run is the even form x^m y^0 or the odd form y^0 x^m;
        # either way the word itself is accepted, and likewise pure y-runs
        accepting += range(block, then)
        accepting += [state(then, b, total_parity) for b in second]
    return Fsa(("x", "X", "y", "Y"), 17, 0, accepting, trans)


def two_words_fsa() -> Fsa:
    """Accepts exactly the two words xy and yx: the smallest language where
    some element is hit twice."""
    trans = [(0, "x", 1), (0, "y", 2), (1, "y", 3), (2, "x", 3)]
    return Fsa(("x", "X", "y", "Y"), 4, 0, (3,), trans)


BUILTIN_LANGUAGES = {
    "z2-normal": (z2_normal_form_fsa, z2_model),
    "z2-adversarial": (z2_parity_fsa, z2_model),
    "two-words": (two_words_fsa, z2_model),
}
