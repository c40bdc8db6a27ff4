"""Free group words, finite presentations, Dehn reduction for metric small
cancellation presentations, and coset enumeration carrying subgroup
decorations.

Words over a named alphabet are tuples of nonzero integers: letter g > 0
stands for generator number g-1 of the alphabet and -g for its inverse.
Two text grammars are supported.  The compact grammar writes one letter
per character with inverses uppercase ("tDaacBCT") and only applies when
every generator name is a single lowercase character.  The verbose
grammar joins tokens with "*" and allows exponents ("t*d^-1*a^2*t^-1");
it works for any generator names, in particular subgroup alphabets like
u1, ..., u26.

The enumerator is the modified Todd-Coxeter procedure: every edge
alpha^x = beta of the coset graph carries a word P over the subgroup
generators with

    rep(alpha) * x = P * rep(beta)     in the group,

so a finished table doubles as a rewriting machine sending any word that
lies in the subgroup to a word in the subgroup generators.
"""

from __future__ import annotations

import marshal
import operator
import re
import struct
from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

Word = tuple[int, ...]

# parse_word refuses longer words.  Quaternion coordinates grow with the
# word, so evaluation is superlinear: `hnn-lab trivial` on the slowest
# 4000-letter words tried, such as (at)^2000 and (atAT)^1000, takes about
# 0.1-0.2 s on a 2-core x86 host.
WORD_LETTER_LIMIT = 4000


class NotInSubgroup(ValueError):
    """A word expected to lie in the enumerated subgroup does not."""


class NotDehnPresentation(ValueError):
    """The symmetrized relators fail the metric condition C'(1/6)."""


class CapExceeded(RuntimeError):
    """Coset enumeration defined more cosets than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} cosets defined; raise the cap")
        self.cap = cap


# ---------------------------------------------------------------------------
# words


def free_reduce(*words) -> Word:
    """The free reduction of the concatenation of the words."""
    out: list[int] = []
    for w in words:
        for g in w:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
    return tuple(out)


def cyclic_reduce(word) -> Word:
    w = free_reduce(word)
    # count the cancelling end pairs, then slice once
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == -w[-1 - k]:
        k += 1
    return w[k : len(w) - k]


def invert_word(word) -> Word:
    if not word:
        return ()
    return tuple([-g for g in reversed(word)])


def _col(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _letter_of_col(col: int) -> int:
    return col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)


# Words as bytes: letter g is read as its signed byte g & 0xFF, and a
# translation table takes that byte to the coset table column _col(g), so a
# letter and its inverse differ in bit 0 only.  Columns stay below 0xFF,
# which marks every byte that is no letter of the alphabet.
_BYTE_GENERATORS = 127
# the three high bytes of a 4-byte little-endian int in -128..127, from its
# low byte: its sign, repeated
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))


@lru_cache
def _columns(ngens: int) -> bytes:
    """The table from the signed byte of each letter over the first
    min(ngens, 127) generators to its column, and from every other byte to
    0xFF."""
    table = bytearray(b"\xff" * 256)
    for x in range(1, min(ngens, _BYTE_GENERATORS) + 1):
        table[x], table[-x & 0xFF] = _col(x), _col(-x)
    return bytes(table)


# the column byte of each letter -> its signed byte, for every _columns table
_LETTERS = bytes(_letter_of_col(c) & 0xFF for c in range(256))


def _encode(w: Word, ngens: int) -> bytes | None:
    """The columns of the tuple w, one byte per letter, or None unless every
    letter is an exact int (no bool or other subclass) among the +-1 .. +-127
    letters of the alphabet.

    marshal format 2 writes no back-references: a tuple is b"(" and its
    length in 4 bytes, then each item in turn, and only an exact int of 32
    bits or fewer is written as b"i" and its 4 little-endian bytes.  Every
    other item is written under another type byte (a bool as b"T" or b"F",
    any buffer, numpy's integer scalars among them, as bytes) or refused
    with ValueError (int subclasses, objects that only have __index__).  So
    when the bytes at 5, 10, ... are all b"i", item k sits at 5 + 5k, every
    item is an exact int, and its low byte is its signed byte; the three
    bytes above repeat its sign exactly when it lies in -128..127.
    """
    try:
        d = marshal.dumps(w, 2)
    except ValueError:
        return None
    low, high = d[6::5], d[9::5]
    if not (d[5::5] == b"i" * len(w) and high == d[8::5] == d[7::5] == low.translate(_SIGN)):
        return None
    s = low.translate(_columns(ngens))
    return None if b"\xff" in s else s


def _validate_word(word, ngens: int) -> Word:
    """The letters of word as a tuple, once each is found to be a letter of
    the alphabet of ngens generators: an int g with 1 <= |g| <= ngens, bools
    and other int subclasses (IntEnum) counting as their int values.
    Anything else raises ValueError naming the first letter that is not.
    Every reader of letters checks them here; _encode is the byte form of
    this rule inside Dehn reduction."""
    w = tuple(word)
    for g in w:
        if not isinstance(g, int) or g == 0 or abs(g) > ngens:
            raise ValueError(f"letter {g!r} outside alphabet of size {ngens}")
    return w


@lru_cache
def _letter_columns(ngens: int) -> dict[int, int]:
    """Each letter of an alphabet of ngens generators -> its column."""
    return {g: _col(g) for x in range(1, ngens + 1) for g in (x, -x)}


def _free_reduce_columns(s: bytes) -> bytearray:
    """The free reduction of a word written in column bytes.

    As big integers, s minus its last letter XOR s minus its first has a 1
    byte at each i where s[i] and s[i + 1] are a letter and its inverse, so
    bytes.find jumps from one such pair to the next.  The letters between
    pairs are copied as slices; only cancelled letters cost a Python step.
    """
    n = len(s)
    pairs = (int.from_bytes(s[:-1], "big") ^ int.from_bytes(s[1:], "big")).to_bytes(
        max(n - 1, 0), "big"
    )
    out = bytearray()
    pos = 0
    while (i := pairs.find(1, pos)) >= 0:
        out += s[pos:i]
        pos = i + 2
        # the pair is gone: the letters on either side may cancel in turn
        while out and pos < n and out[-1] ^ 1 == s[pos]:
            out.pop()
            pos += 1
    out += s[pos:]
    return out


def _as_word(w, alphabet) -> Word:
    """A word given as text in either grammar or as letters checked against
    the alphabet."""
    if isinstance(w, str):
        return parse_word(w, alphabet)
    return _validate_word(w, len(alphabet))


def _reduced_words(items, alphabet) -> tuple[Word, ...]:
    """Words taken in by _as_word, read as exact ints and freely reduced."""
    return tuple(free_reduce(map(operator.index, _as_word(w, alphabet))) for w in items)


def parse_word(text: str, alphabet) -> Word:
    """Parse either grammar; the empty word is '' or '1'."""
    names = {name: idx + 1 for idx, name in enumerate(alphabet)}
    text = text.strip()
    if text in ("", "1"):
        return ()
    if text.isalpha() and all(len(n) == 1 for n in names):
        if len(text) > WORD_LETTER_LIMIT:
            raise ValueError(f"word longer than {WORD_LETTER_LIMIT} letters")
        out = []
        for ch in text:
            base = ch.lower()
            if base not in names:
                raise ValueError(f"unknown generator {base!r}")
            out.append(names[base] if ch.islower() else -names[base])
        return tuple(out)
    out = []
    for token in text.replace(" ", "").split("*"):
        if not token:
            raise ValueError("empty token in word")
        name, caret, exp_text = token.partition("^")
        if name not in names:
            raise ValueError(f"unknown generator {name!r}")
        # the exponent is an optional sign, then ASCII digits: int() alone
        # would also take underscores and non-ASCII digits
        digits = exp_text[1:] if exp_text.startswith(("+", "-")) else exp_text
        if caret and not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad exponent {exp_text!r} in {token!r}")
        exp = int(exp_text) if caret else 1
        if len(out) + abs(exp) > WORD_LETTER_LIMIT:
            raise ValueError(f"word longer than {WORD_LETTER_LIMIT} letters")
        letter = names[name] if exp >= 0 else -names[name]
        out.extend([letter] * abs(exp))
    return tuple(out)


def render_word(word, alphabet, style: str = "compact") -> str:
    if style not in ("compact", "verbose"):
        raise ValueError(f"unknown style {style!r}")
    if style == "compact" and any(len(n) != 1 or not n.islower() for n in alphabet):
        raise ValueError("compact rendering needs single-character names")
    word = _validate_word(word, len(alphabet))
    if not word:
        return "1"
    if style == "compact":
        return "".join(
            alphabet[g - 1] if g > 0 else alphabet[-g - 1].upper() for g in word
        )
    parts = []
    run_letter, run = word[0], 0
    for g in list(word) + [0]:
        if g == run_letter:
            run += 1
            continue
        name = alphabet[abs(run_letter) - 1]
        exp = run if run_letter > 0 else -run
        parts.append(name if exp == 1 else f"{name}^{exp}")
        run_letter, run = g, 1
    return "*".join(parts)


def evaluate_word(word, images, identity):
    """Fold a word through group element images (needs * and .inverse()).

    The product starts from the first letter's image, so identity is used
    only for the empty word; a one-letter word returns the image itself.
    """
    acc = None
    for g in _validate_word(word, len(images)):
        x = images[g - 1] if g > 0 else images[-g - 1].inverse()
        acc = x if acc is None else acc * x
    return identity if acc is None else acc


class Presentation:
    """A finite presentation; relators are stored freely reduced."""

    def __init__(self, generators, relators=()):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        self.relators = _reduced_words(relators, self.generators)

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def parse(self, text: str) -> Word:
        return parse_word(text, self.generators)

    def render(self, word, style: str = "compact") -> str:
        return render_word(word, self.generators, style)

    def __repr__(self):
        return f"Presentation({self.generators!r}, {len(self.relators)} relators)"


# ---------------------------------------------------------------------------
# Dehn reduction


def symmetrized_relators(presentation: Presentation) -> tuple[Word, ...]:
    """All cyclic permutations of the cyclically reduced relators and their
    inverses, deduplicated and sorted."""
    return _symmetrize(presentation.relators)


def _symmetrize(relators) -> tuple[Word, ...]:
    out = set()
    for r in relators:
        w0 = cyclic_reduce(r)
        if not w0:
            continue
        for w in (w0, invert_word(w0)):
            for k in range(len(w)):
                out.add(w[k:] + w[:k])
    return tuple(sorted(out))


def _common_prefix_len(u: Word, v: Word) -> int:
    n = 0
    for x, y in zip(u, v):
        if x != y:
            break
        n += 1
    return n


def max_piece_length(symmetrized) -> int:
    best = 0
    for i, r in enumerate(symmetrized):
        for s in symmetrized[i + 1 :]:
            best = max(best, _common_prefix_len(r, s))
    return best


def is_metric_sixth(symmetrized) -> bool:
    """C'(1/6): every piece is strictly shorter than a sixth of each relator
    it sits inside.  Since the set is closed under cyclic permutation, every
    piece shows up as a common prefix of two distinct members."""
    for i, r in enumerate(symmetrized):
        for s in symmetrized[i + 1 :]:
            if 6 * _common_prefix_len(r, s) >= min(len(r), len(s)):
                return False
    return True


@lru_cache(maxsize=16)
def _dehn_rules(relators: tuple[Word, ...], ngens: int):
    """(pattern, rules, longest) for Dehn's algorithm over column bytes, or
    None when the symmetrized relators are empty or fail C'(1/6).

    A word is written as its column bytes (_encode), so a letter and its
    inverse differ only in the low bit.  ``rules`` maps every encoded
    prefix p of a symmetrized relator r with 2|p| > |r| to the encoded
    shorter complement invert(r[|p|:]).  ``pattern`` matches exactly those
    prefixes, grouped by first letter, each relator's letters past its half
    optional and nested, so greedy.  Under C'(1/6) two relators share less
    than a sixth of either, so at most one relator has a rule prefix at any
    position: a search finds the leftmost match and the longest there, and
    no rule comes from two relators.
    """
    sym = _symmetrize(relators)
    if not sym or not is_metric_sixth(sym):
        return None
    rules: dict[bytes, bytes] = {}
    by_first: dict[bytes, list[bytes]] = {}
    for r in sym:
        half = len(r) // 2 + 1
        rel, inv = _encode(r, ngens), _encode(invert_word(r), ngens)
        for k in range(half, len(r) + 1):
            rules[rel[:k]] = inv[: len(r) - k]
        tail = b"".join(b"(?:" + re.escape(rel[k : k + 1]) for k in range(half, len(r)))
        by_first.setdefault(re.escape(rel[:1]), []).append(
            re.escape(rel[1:half]) + tail + b")?" * (len(r) - half)
        )
    pattern = re.compile(
        b"|".join(x + b"(?:" + b"|".join(alts) + b")" for x, alts in by_first.items())
    )
    return pattern, rules, max(map(len, sym))


def dehn_reduce(word, presentation: Presentation) -> Word:
    """Dehn's algorithm: repeatedly replace a subword matching strictly more
    than half of a symmetrized relator by the shorter complement, taking the
    leftmost match and the longest match there.  Under C'(1/6) the result is
    empty exactly when the word represents the identity (Greendlinger).

    The word enters as one byte per letter (_encode): marshal writes it at C
    speed, and a few slices of that output check that every letter is an
    exact int and encode it; the free reduction works on those bytes.  So
    the alphabet may have at most 127 generators; a larger one raises
    ValueError.  A word _encode refuses goes through _validate_word, which
    raises ValueError on a letter outside the alphabet; a word it passes
    holds bools or other int subclasses, read as their int values.

    One left-to-right scan (Domanski & Anshel, J. Algorithms 6, 1985) over
    the freely reduced column bytes, with every rule in one compiled
    pattern.  Each match is replaced in place in that one bytearray.  A
    replacement changes the word only from the match on.  A new match that
    starts before it keeps at most half of its relator there, or that part
    alone would have matched before; so the next search starts longest // 2
    letters back.  Every replacement shortens the word, so the scan tries
    O(longest * n) positions.  An empty complement lets the letters around
    it cancel: a column and its inverse differ in bit 0 only, and a 0xFF
    at each end of the buffer stops the cancellation there.  A match of
    ``longest`` letters is deleted without reading the rule table: a rule
    prefix is no longer than its relator, nor a relator than ``longest``,
    so such a match is a whole relator and its complement is empty.
    """
    ngens = presentation.ngens
    if ngens > _BYTE_GENERATORS:
        raise ValueError(
            f"Dehn reduction takes at most {_BYTE_GENERATORS} generators, not {ngens}"
        )
    found = _dehn_rules(presentation.relators, ngens)
    if found is None:
        raise NotDehnPresentation("relators do not satisfy C'(1/6)")
    pattern, rules, longest = found
    w = tuple(word)
    columns = _encode(w, ngens)
    if columns is None:
        # raises unless every letter is an int in the alphabet; up to 127
        # generators, _encode then takes their values as exact ints
        columns = _encode(tuple(map(operator.index, _validate_word(w, ngens))), ngens)
    s = _free_reduce_columns(columns)
    # 0xFF at both ends: no rule matches it, and neither it nor 0xFF ^ 1
    # equals a column, so no cancellation runs past the word's ends
    s.insert(0, 0xFF)
    s.append(0xFF)
    search, back = pattern.search, longest // 2
    pos = 0
    while m := search(s, pos):
        i, j = m.span()
        # a match of longest letters is a whole relator; any other reads its
        # group from the buffer, so its complement is taken before the edit.
        # The complement cancels into neither neighbour, since a letter that
        # did would extend the match; only an empty one lets them meet
        if j - i == longest or not (comp := rules[m[0]]):
            while s[i - 1] ^ 1 == s[j]:
                i -= 1
                j += 1
            del s[i:j]
        else:
            s[i:j] = comp
        pos = i - back if i > back else 0
    return struct.unpack_from(f"{len(s) - 2}b", s.translate(_LETTERS), 1)


# ---------------------------------------------------------------------------
# modified Todd-Coxeter


def _join(*words) -> Word:
    """free_reduce for freely reduced words: only the junctions cancel.

    Each word must be a freely reduced tuple, as every word the enumerator
    builds is; an unreduced word keeps its inner cancelling pairs.  Empty
    words are skipped, and a lone nonempty word is returned as it is.
    """
    out: Word | list[int] = ()
    for w in words:
        if not w:
            continue
        if not out:
            out = w
            continue
        if type(out) is tuple:
            out = list(out)
        k = 0
        while out and k < len(w) and out[-1] == -w[k]:
            out.pop()
            k += 1
        out.extend(w[k:])
    return tuple(out)


class _Enumerator:
    """Working state of the modified Todd-Coxeter enumeration (HLT style).

    Decorations live alongside the table: deco[a][c] is a word over the
    subgroup alphabet with  rep(a) * x = deco * rep(b)  for the letter x of
    column c.  Both directions of an edge are always stored together, with
    mirrored (inverse) decorations, in columns c and c ^ 1 (a letter and
    its inverse), so backward scans can read decorations straight from the
    table.  Words are scanned as column sequences.  A merged coset has an
    entry in parent and an empty row.  Every word it multiplies (a
    decoration, a parent word, a coincidence word, a subgroup letter) is
    freely reduced, so _join forms its products.
    """

    def __init__(self, ncols: int, cap: int):
        self.ncols = ncols
        self.cap = cap
        self.table: list[list[int | None]] = []
        self.deco: list[list[Word | None]] = []
        self.parent: dict[int, tuple[int, Word]] = {}
        self.pending: list[tuple[int, int, Word]] = []
        self.new_coset()

    def new_coset(self) -> int:
        if len(self.table) >= self.cap:
            raise CapExceeded(self.cap)
        self.table.append([None] * self.ncols)
        self.deco.append([None] * self.ncols)
        return len(self.table) - 1

    def find(self, a: int) -> tuple[int, Word]:
        """Root r and word w with rep(a) = w * rep(r)."""
        entry = self.parent.get(a)
        if entry is None:
            return a, ()
        root, up = self.find(entry[0])
        if root == entry[0]:
            return entry  # up is empty: the entry is already compressed
        w = _join(entry[1], up)
        self.parent[a] = (root, w)
        return root, w

    def set_edge(self, a: int, c: int, b: int, p: Word) -> None:
        assert self.table[a][c] is None and self.table[b][c ^ 1] is None
        self.table[a][c] = b
        self.deco[a][c] = p
        self.table[b][c ^ 1] = a
        self.deco[b][c ^ 1] = invert_word(p)

    def coincidence(self, lam: int, mu: int, omega: Word) -> None:
        """Record rep(lam) = omega * rep(mu) and process to completion."""
        self.pending.append((lam, mu, omega))
        while self.pending:
            l, m, w = self.pending.pop()
            lr, lw = self.find(l)
            mr, mw = self.find(m)
            if lr == mr:
                continue  # yields a relation among subgroup generators
            # rep(l) = w*rep(m):  lw*rep(lr) = w*mw*rep(mr)
            if lr < mr:
                keep, gone = lr, mr
                u = _join(invert_word(mw), invert_word(w), lw)
            else:
                keep, gone = mr, lr
                u = _join(invert_word(lw), w, mw)
            # rep(gone) = u * rep(keep)
            self.parent[gone] = (keep, u)
            u_inv = invert_word(u)
            row = self.table[gone]
            drow = self.deco[gone]
            self.table[gone] = [None] * self.ncols
            self.deco[gone] = [None] * self.ncols
            for c in range(self.ncols):
                beta = row[c]
                if beta is None:
                    continue
                # drop the mirror entry pointing back at the dead coset (a
                # loop's is gone with the row)
                if self.table[beta][c ^ 1] == gone:
                    self.table[beta][c ^ 1] = None
                    self.deco[beta][c ^ 1] = None
                br, bw = self.find(beta)
                # rep(gone)*x = p*rep(beta):  rep(keep)*x = u^-1*p*bw*rep(br)
                q = _join(u_inv, drow[c], bw)
                target = self.table[keep][c]
                if target is not None:
                    # rep(keep)*x also equals deco*rep(target)
                    self.pending.append(
                        (target, br, _join(invert_word(self.deco[keep][c]), q))
                    )
                    continue
                back = self.table[br][c ^ 1]
                if back is not None:
                    # some coset already maps to br under x
                    pb = self.deco[br][c ^ 1]
                    # rep(br)*x^-1 = pb*rep(back) => rep(back)*x = pb^-1*rep(br)
                    self.pending.append((keep, back, _join(q, pb)))
                    continue
                self.set_edge(keep, c, br, q)

    def scan_and_fill(self, alpha: int, cols: Word, value: Word) -> None:
        """Trace  rep(alpha)*word = value*rep(alpha)  along the word's
        columns, defining cosets for gaps, deducing the final missing edge,
        or merging on disagreement."""
        k = len(cols)
        while True:
            if alpha in self.parent:
                return  # the scan at the surviving root covers this one
            # rep(alpha) * word[:i] = F * rep(f) and rep(b) * word[j:] =
            # B * rep(alpha); the scans collect the inverses of the
            # nonempty decorations that make up F and B, read from the
            # mirror edges
            table, deco = self.table, self.deco
            f, f_parts, i = alpha, [], 0
            while i < k:
                nxt = table[f][cols[i]]
                if nxt is None:
                    break
                d = deco[nxt][cols[i] ^ 1]
                if d:
                    f_parts.append(d)
                f = nxt
                i += 1
            b, b_parts, j = alpha, [], k
            while j > i:
                prev = table[b][cols[j - 1] ^ 1]
                if prev is None:
                    break
                d = deco[b][cols[j - 1] ^ 1]
                if d:
                    b_parts.append(d)
                b = prev
                j -= 1
            if j > i + 1:
                self.set_edge(f, cols[i], self.new_coset(), ())
                continue
            if j == i and f == b:
                return
            # rep(f) * word[i:j] = p * rep(b), p = F^-1 * value * B^-1
            p = _join(*reversed(f_parts), value, *b_parts)
            if j == i:
                self.coincidence(f, b, p)
                continue
            self.set_edge(f, cols[i], b, p)
            return

    def verify(self, relators, subgroup_words) -> None:
        """Check the live rows and the traces of column words."""
        for a, row in enumerate(self.table):
            if a in self.parent:
                continue
            for c, b in enumerate(row):
                if b is None:
                    raise RuntimeError("incomplete table after enumeration")
                if self.table[b][c ^ 1] != a:
                    raise RuntimeError("mirror inconsistency in coset table")
            for r in relators:
                if self._trace(a, r) != a:
                    raise RuntimeError("relator fails to close at a coset")
        for h in subgroup_words:
            if self._trace(0, h) != 0:
                raise RuntimeError("subgroup generator leaves coset 0")

    def _trace(self, a: int, cols: Word) -> int | None:
        for c in cols:
            nxt = self.table[a][c]
            if nxt is None:
                return None
            a = nxt
        return a


class CosetTable(
    namedtuple(
        "CosetTable",
        "generators subgroup_names subgroup_words table decorations representatives",
    )
):
    """A finished, standardized coset table with subgroup decorations.

    Cosets are numbered in breadth-first discovery order from coset 0
    (the subgroup itself), scanning columns g0, g0^-1, g1, g1^-1, ...;
    two enumerations of the same action therefore agree entry by entry.
    An edge a -x-> b with decoration d means rep(a) * x = d * rep(b), for
    representatives rep(a) in the cosets H * representatives[a] with
    rep(0) = 1; once cosets have merged, rep(a) may differ from the word
    representatives[a] by an element of H.
    """

    __slots__ = ()

    # the subgroup's index; it shadows tuple.index, as in SchreierGraph
    @property
    def index(self) -> int:
        return len(self.table)

    def follow(self, coset: int, word) -> int:
        table, n = self.table, len(self.generators)
        columns = _letter_columns(n)
        for g in _validate_word(word, n):
            coset = table[coset][columns[g]]
        return coset

    def rewrite(self, word) -> Word:
        """Rewrite a word lying in the subgroup over the subgroup alphabet.

        Multiplies out the decorations along the scan from coset 0:
        rep(0) * word = result * rep(end), and rep(0) is empty, so the
        scan must end back at coset 0 for word to lie in the subgroup.
        """
        table, decorations, n = self.table, self.decorations, len(self.generators)
        columns = _letter_columns(n)
        a, parts = 0, []
        for g in _validate_word(word, n):
            c = columns[g]
            parts.append(decorations[a][c])
            a = table[a][c]
        if a != 0:
            raise NotInSubgroup(f"word ends at coset {a}, not at the subgroup")
        return free_reduce(*parts)

    def expand_subgroup_word(self, word) -> Word:
        """Substitute each subgroup letter by its defining ambient word."""
        words = self.subgroup_words
        return free_reduce(
            *(
                words[g - 1] if g > 0 else invert_word(words[-g - 1])
                for g in _validate_word(word, len(words))
            )
        )

    def to_json(self) -> dict:
        columns = []
        for c in range(2 * len(self.generators)):
            g = _letter_of_col(c)
            name = self.generators[abs(g) - 1]
            columns.append(name if g > 0 else f"{name}^-1")
        return {
            "generators": list(self.generators),
            "columns": columns,
            "index": self.index,
            "subgroup_generators": {
                name: render_word(w, self.generators, "verbose")
                for name, w in zip(self.subgroup_names, self.subgroup_words)
            },
            "table": [list(row) for row in self.table],
            "decorations": [
                [render_word(p, self.subgroup_names, "verbose") for p in row]
                for row in self.decorations
            ],
            "representatives": [
                render_word(r, self.generators, "verbose")
                for r in self.representatives
            ],
        }


def todd_coxeter(
    presentation: Presentation,
    subgroup_generators,
    *,
    cap: int = 1_000_000,
    subgroup_names=None,
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the given words,
    returning the standardized decorated table.

    subgroup_generators may be words or strings in either grammar.  The
    subgroup alphabet defaults to h1, h2, ...; given names must be
    distinct, one per generator.  cap, the most cosets the enumeration may
    define, must be an int >= 1; more raises CapExceeded.
    """
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be an int >= 1, got {cap!r}")
    words = _reduced_words(subgroup_generators, presentation.generators)
    if subgroup_names is None:
        subgroup_names = tuple(f"h{m+1}" for m in range(len(words)))
    else:
        subgroup_names = tuple(subgroup_names)
        if len(subgroup_names) != len(words):
            raise ValueError("one name per subgroup generator required")
        if len(set(subgroup_names)) != len(subgroup_names):
            raise ValueError("duplicate subgroup generator names")

    enum = _Enumerator(2 * presentation.ngens, cap)
    generators = [tuple(map(_col, h)) for h in words]
    relators = [tuple(map(_col, r)) for r in presentation.relators]
    for m, h in enumerate(generators):
        enum.scan_and_fill(0, h, (m + 1,))
    alpha = 0
    while alpha < len(enum.table):
        for r in relators:
            enum.scan_and_fill(alpha, r, ())
        # filling a row defines cosets and merges none
        if alpha not in enum.parent:
            for c, b in enumerate(enum.table[alpha]):
                if b is None:
                    enum.set_edge(alpha, c, enum.new_coset(), ())
        alpha += 1
    enum.verify(relators, generators)

    # standardize: renumber in BFS order from coset 0, scanning columns in
    # order.  No dead coset is reached: verify rejects a live row pointing at
    # one, and coset 0 never dies (a coincidence keeps the smaller root).
    table, deco = enum.table, enum.deco
    order = [0]
    new_of_old = {0: 0}
    reps: list[Word] = [()]
    for a in order:
        for c in range(enum.ncols):
            b = table[a][c]
            if b not in new_of_old:
                new_of_old[b] = len(order)
                order.append(b)
                reps.append(reps[new_of_old[a]] + (_letter_of_col(c),))
    if len(order) != len(table) - len(enum.parent):
        raise RuntimeError("coset graph is not connected")
    return CosetTable(
        generators=presentation.generators,
        subgroup_names=subgroup_names,
        subgroup_words=tuple(words),
        table=tuple(tuple(new_of_old[b] for b in table[a]) for a in order),
        decorations=tuple(tuple(deco[a]) for a in order),
        representatives=tuple(reps),
    )


# ---------------------------------------------------------------------------
# arithmetic Schreier graph


class SchreierGraph(namedtuple("SchreierGraph", "table representatives")):
    """Coset action computed from concrete group elements and a membership
    oracle, numbered in the same breadth-first order as CosetTable."""

    __slots__ = ()

    @property
    def index(self) -> int:
        return len(self.table)


def schreier_graph_arith(membership, images, identity, cap: int = 10_000) -> SchreierGraph:
    """Enumerate right cosets H*g by arithmetic: two elements x, y sit in the
    same coset exactly when x * y^-1 passes the membership oracle."""
    elems = [identity]
    words: list[Word] = [()]
    rows: list[list[int]] = []
    ncols = 2 * len(images)
    i = 0
    while i < len(elems):
        row = []
        for c in range(ncols):
            g = _letter_of_col(c)
            step = images[g - 1] if g > 0 else images[-g - 1].inverse()
            cand = elems[i] * step
            for j, other in enumerate(elems):
                if membership(cand * other.inverse()):
                    row.append(j)
                    break
            else:
                if len(elems) >= cap:
                    raise CapExceeded(cap)
                elems.append(cand)
                words.append(words[i] + (g,))
                row.append(len(elems) - 1)
        rows.append(row)
        i += 1
    return SchreierGraph(
        table=tuple(tuple(r) for r in rows), representatives=tuple(words)
    )


# ---------------------------------------------------------------------------
# abelianization


def smith_invariants(rows) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Row Hermite normal forms of the matrix and of its transpose alternate
    until the matrix is diagonal (Cohen, GTM 138, section 2.4).  Then each
    pair of diagonal entries (d_i, d_j), i < j, becomes (gcd, lcm): the sum
    of the Z/d_i is kept, and each entry comes to divide the next.
    """
    from .quat import _hnf_integer_rows

    a = _hnf_integer_rows([list(map(int, r)) for r in rows])
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = _hnf_integer_rows([list(col) for col in zip(*a)])
    d = [row[i] for i, row in enumerate(a)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


class AbelianStructure(namedtuple("AbelianStructure", "betti torsion")):
    """AbelianStructure(betti, torsion): Z^betti times Z/d for each d in torsion."""

    __slots__ = ()

    def __str__(self):
        parts = ["Z"] * self.betti + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "trivial"


def abelianization(presentation: Presentation) -> AbelianStructure:
    """Invariants of the abelianized group from the relator exponent matrix."""
    rows = []
    for r in presentation.relators:
        row = [0] * presentation.ngens
        for g in r:
            row[abs(g) - 1] += 1 if g > 0 else -1
        rows.append(row)
    if not rows:
        return AbelianStructure(presentation.ngens, ())
    inv = smith_invariants(rows)
    return AbelianStructure(
        betti=presentation.ngens - len(inv),
        torsion=tuple(d for d in inv if d != 1),
    )


def genus_from_index(genus: int, index: int) -> int:
    """Genus of an index-n subgroup of a genus-g surface group, by
    multiplicativity of the Euler characteristic: 2 - 2g' = n*(2 - 2g)."""
    if genus < 2 or index < 1:
        raise ValueError("need genus >= 2 and index >= 1")
    return index * (genus - 1) + 1
