"""Britton reduction against a reference route.

The reference is the split-then-restart reduction: cut the freely reduced
word into t-free segments, then scan the pairs of neighbouring stable
letters from the left, remove the first pinch found and rescan from the
start.  ``HnnGroup.britton_reduce`` instead makes one left-to-right pass
over a stack and tests each pair once, when its closing stable letter
arrives.  Both remove the leftmost pinch first, so they must return the
same forms after the same sequence of membership verdicts.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hnnlab.comb import free_reduce, invert_word
from hnnlab.hnn import (
    STABLE_PAIRS,
    T_LETTER,
    BrittonForm,
    HnnGroup,
    load_builtin_group,
)

G = load_builtin_group()


def reference_britton_reduce(w, log: list) -> BrittonForm:
    """Split into segments, then pinch the leftmost pair and rescan.

    ``log`` receives (side, segment, verdict) the first time each pair of
    stable letters is tested.  A rescan tests the pairs left of the last
    pinch again; their segments have not changed, so neither has the
    verdict, and the log leaves them out.
    """
    word = free_reduce(G.as_word(w))
    segs: list[tuple] = [()]
    exps: list[int] = []
    seg: list[int] = []
    for g in word:
        if abs(g) == T_LETTER:
            segs[-1] = tuple(seg)
            seg = []
            exps.append(1 if g > 0 else -1)
            segs.append(())
        else:
            seg.append(g)
    segs[-1] = tuple(seg)

    ids = list(range(len(exps)))  # position of each stable letter in word
    tested: dict[tuple[int, int], tuple] = {}
    changed = True
    while changed:
        changed = False
        for j in range(len(exps) - 1):
            if exps[j] != -exps[j + 1]:
                continue
            g = segs[j + 1]
            if exps[j] == 1:
                side, hit = "source", G.in_source_subgroup(g)
            else:
                side, hit = "target", G.in_target_subgroup(g)
            pair = (ids[j], ids[j + 1])
            if pair in tested:
                assert tested[pair] == g
            else:
                tested[pair] = g
                log.append((side, g, hit))
            if not hit:
                continue
            if side == "source":
                repl = G.conjugate_into_target(g)
            else:
                repl = G.conjugate_into_source(g)
            segs[j : j + 3] = [free_reduce(segs[j], repl, segs[j + 2])]
            del exps[j : j + 2]
            del ids[j : j + 2]
            changed = True
            break
    return BrittonForm(tuple(segs), tuple(exps))


def record_queries(monkeypatch) -> list:
    """Log (side, segment, verdict) for each membership query made through
    HnnGroup, in order."""
    log = []
    for side in ("source", "target"):
        name = f"in_{side}_subgroup"
        method = getattr(HnnGroup, name)

        def query(self, g, side=side, method=method):
            verdict = method(self, g)
            log.append((side, tuple(g), verdict))
            return verdict

        monkeypatch.setattr(HnnGroup, name, query)
    return log


T, T_INV = (T_LETTER,), (-T_LETTER,)
LETTERS = [(g,) for x in range(1, 6) for g in (x, -x)]
PINCHES = [T + G.vertex.parse(u) + T_INV for u, _ in STABLE_PAIRS] + [
    T_INV + G.vertex.parse(v) + T for _, v in STABLE_PAIRS
]


@st.composite
def relator_conjugates(draw):
    r = draw(st.sampled_from(G.ambient.relators))
    cut = draw(st.integers(0, len(r) - 1))
    x = sum(draw(st.lists(st.sampled_from(LETTERS), max_size=2)), ())
    return x + r[cut:] + r[:cut] + invert_word(x)


PIECES = st.one_of(
    st.sampled_from(LETTERS),
    st.sampled_from(PINCHES),
    st.sampled_from(PINCHES).map(invert_word),
    relator_conjugates(),
)
# pieces are joined without free reduction, so t T and a A meet at seams
WORDS = st.lists(PIECES, min_size=1, max_size=8).map(lambda p: sum(p, ()))


def test_one_pass_matches_reference_route(monkeypatch):
    log = record_queries(monkeypatch)
    pinched = 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(WORDS)
    def check(word):
        nonlocal pinched
        expected_log = []
        expected = reference_britton_reduce(word, expected_log)
        log.clear()
        form = G.britton_reduce(word)
        assert form == expected, G.ambient.render(word)
        assert log == expected_log, G.ambient.render(word)
        k = sum(abs(g) == T_LETTER for g in free_reduce(word))
        assert len(log) <= max(k - 1, 0)
        assert G.evaluate(form.to_word()) == G.evaluate(word)
        assert G.britton_reduce(form.to_word()) == form
        pinched += form.t_count < k

    check()
    assert pinched >= 30


def test_each_stable_letter_is_tested_once(monkeypatch):
    # the split-then-restart route made 16 queries on this word
    word = "taTb" * 4 + "tDaacBCT"
    log = record_queries(monkeypatch)
    form = G.britton_reduce(word)
    assert form.render() == "taTbtaTbtaTbtaTbd"
    assert len(log) == 9
    queries = list(log)
    expected_log = []
    assert reference_britton_reduce(word, expected_log) == form
    assert queries == expected_log


# t*g*T with g in H rewrites g over the source table's u-letters and expands
# them over the target table's v-words; T*g*t goes the other way
PINNED_WORDS = (
    "TdtDaacAdTDt",
    "tDaacBCTD",
    "tDaacBCDadAAddDaadcDAdT",
    "TdcccbDat",
    "tDadbCaBCdbAcAcBCDaaDacbCDAdDadAAdbADAdT",
    "TbdCBBaBABBct",
    "tDadcbADAdDaacBAcAdAAdDaacBAdbAdbAcAcBCT",
    "TAcbabaDAbcADAt",
    "tDaddbAcBBCDAdDadAAdcbbCAAdDaacBCT",
    "TCaaadbcDt",
    "atDadCDadcAAdTbTcdCtc",
    "ttDaacbDAdTT",
)


def test_combinatorial_route_output_is_pinned():
    # the decorations are checked for soundness elsewhere; this pins them,
    # and the Britton forms read through them, byte for byte
    form = G.britton_reduce("TdtDaacAdTDt")
    assert (form.render(), form.t_count) == ("DaacBCDaacAdcbCAAd", 0)
    forms = []
    for w in PINNED_WORDS:
        form = G.britton_reduce(w)
        forms.append([w, form.render(), form.t_count])
    # every word pinches
    assert all(t_count < w.lower().count("t") for w, _, t_count in forms)
    text = json.dumps(
        [G.source_table.to_json(), G.target_table.to_json(), forms], sort_keys=True
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "99b5b5bb0dc5beae08487b7fb633058cfc8627d27f4534c63da61be5a1ccdb9f"
