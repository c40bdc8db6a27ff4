"""End-to-end command line tests: text output, JSON schemas, exit codes,
and byte-for-byte determinism."""

import contextlib
import copy
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from hnnlab import biauto, cli, hnn
from hnnlab.biauto import BUILTIN_LANGUAGES, Fsa, z2_normal_form_fsa


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# verify


def test_verify_prints_one_line_per_relation(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS relation ")) == 27
    assert "INFO source edge subgroup has index 12" in lines
    assert "INFO target edge subgroup has index 12" in lines
    assert any(l.startswith("PASS mutant screen: 27/27") for l in lines)
    assert lines[-1] == "OK: group data verified"


def test_verify_is_deterministic(capsys):
    argv = ["verify", "--samples", "6", "--seed", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "random consequences: 6/6 trivial (seed 3)" in out1


VERIFY_SCHEMA = {
    "type": "object",
    "required": [
        "relations",
        "pair_memberships_ok",
        "source_index",
        "target_index",
        "mutants_detected",
        "mutants_total",
        "ok",
    ],
    "properties": {
        "relations": {
            "type": "array",
            "minItems": 27,
            "maxItems": 27,
            "items": {
                "type": "object",
                "required": ["index", "relator", "holds"],
                "properties": {
                    "index": {"type": "integer"},
                    "relator": {"type": "string"},
                    "holds": {"type": "boolean"},
                },
            },
        },
        "pair_memberships_ok": {"type": "boolean"},
        "source_index": {"type": "integer"},
        "target_index": {"type": "integer"},
        "ok": {"type": "boolean"},
    },
}


def test_verify_json_schema(capsys):
    code, data = run_json(capsys, ["verify", "--json", "--samples", "4"])
    assert code == 0
    validate(data, VERIFY_SCHEMA)
    assert data["ok"]
    assert data["source_index"] == 12 and data["target_index"] == 12
    assert data["mutants_detected"] == data["mutants_total"] == 27
    assert data["samples_ok"] == data["samples_total"] == 4


# ---------------------------------------------------------------------------
# classify and lengths


CLASSIFY_SCHEMA = {
    "type": "object",
    "required": ["word", "trace", "type", "order", "length_exact", "length_decimal"],
    "properties": {
        "word": {"type": "string"},
        "trace": {"type": "string"},
        "type": {"type": "string"},
        "order": {"type": ["integer", "null"]},
        "length_exact": {"type": ["string", "null"]},
        "length_decimal": {"type": ["string", "null"]},
    },
}


def test_classify_hyperbolic_generator(capsys):
    code, data = run_json(capsys, ["classify", "a", "--json"])
    assert code == 0
    validate(data, CLASSIFY_SCHEMA)
    assert data["type"] == "hyperbolic"
    assert data["trace"] == "3"
    assert data["length_exact"] == "2*log(3/2 + 1/2*sqrt(5))"
    # display string agrees with an independent float route
    assert float(data["length_decimal"]) == pytest.approx(2 * math.acosh(3 / 2))
    digits = data["length_decimal"].replace(".", "").lstrip("0")
    assert len(digits) == 50


def test_classify_stable_letter_is_elliptic(capsys):
    code, data = run_json(capsys, ["classify", "t", "--json"])
    assert code == 0
    assert data["type"] == "elliptic (infinite order)"
    assert data["trace"] == "2/3"
    assert data["length_exact"] is None and data["length_decimal"] is None


def test_lengths_detects_exact_dependence(capsys):
    code, out, _ = run(capsys, ["lengths", "a", "d"])
    assert code == 0
    assert "ratio check: 2 * len(a) = 1 * len(d)" in out
    code, data = run_json(capsys, ["lengths", "a", "d", "--json"])
    assert code == 0
    assert data["comparison"] == {"kind": "dependent", "p": 2, "q": 1}


def test_lengths_below_the_dependence_bound_are_independent_up_to_it(capsys):
    # 2 * len(a) = 1 * len(d) needs a multiplier of 2, past bound 1
    code, out, _ = run(capsys, ["lengths", "--bound", "1", "a", "d"])
    assert code == 0
    assert out.splitlines()[-1] == "ratio check: independent-up-to (bound 1)"
    code, data = run_json(capsys, ["lengths", "--bound", "1", "a", "d", "--json"])
    assert code == 0
    assert data["comparison"] == {"kind": "independent-up-to", "bound": 1}


def test_lengths_certifies_independence_across_fields(capsys):
    code, data = run_json(capsys, ["lengths", "a", "c", "--json"])
    assert code == 0
    assert data["comparison"]["kind"] == "independent-certified"
    fields = {row["length_field"] for row in data["elements"]}
    assert fields == {5, 21}


def test_lengths_default_four_generators(capsys):
    code, data = run_json(capsys, ["lengths", "--json"])
    assert code == 0
    assert [r["word"] for r in data["elements"]] == ["a", "b", "c", "d"]
    assert all(r["type"] == "hyperbolic" for r in data["elements"])
    assert data["comparison"] is None


def test_lengths_of_4000_letter_words(capsys):
    # tr^2 - 4 has about 6680 digits for both words and is never factored;
    # the second word's field parameter keeps nearly all of them, beyond
    # Python's default 4300-digit limit for int <-> str.  About 0.13 s on a
    # 2-core x86 host, two evaluations of 4000 letters.
    words = ["at" * 2000, "at" * 1999 + "tt"]
    code, out, err = run(capsys, ["lengths", "--json", *words])
    assert code == 0 and err == ""
    data = json.loads(out)
    first, second = data["elements"]
    assert first["length_field"] == 2173
    assert first["length_exact"].startswith("2*log(") and first["length_decimal"]
    assert len(str(second["length_field"])) > 6000
    assert data["comparison"] == {"kind": "independent-certified", "bound": 64}


def test_lengths_refuses_too_many_letters_in_total(capsys, monkeypatch):
    def no_evaluation(self, w):
        raise AssertionError("a word was evaluated past the letter limit")

    monkeypatch.setattr(hnn.HnnGroup, "evaluate", no_evaluation)
    code, out, err = run(capsys, ["lengths", "a^4000", "b^4000", "c"])
    assert (code, out) == (2, "")
    limit = cli._LENGTHS_LETTER_LIMIT
    assert err == f"error: total word length 8001 is above the limit {limit}\n"


def test_classify_json_loads_under_the_default_digit_limit(capsys):
    # the field parameter of (at)^1999 t^2 has over 6000 digits, more than
    # Python's default limit for int <-> str, so it is printed as a string;
    # one that fits stays an integer.  About 0.3 s, one 4000-letter evaluation.
    code, out, err = run(capsys, ["classify", "--json", "at" * 1999 + "tt"])
    assert code == 0 and err == ""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        data = json.loads(out)
    finally:
        sys.set_int_max_str_digits(before)
    field = data["length_field"]
    assert isinstance(field, str) and len(field) > 6000 and field.isdigit()
    code, data = run_json(capsys, ["classify", "--json", "at" * 13])
    assert code == 0 and data["length_field"] == 2173


# ---------------------------------------------------------------------------
# word problem commands


def test_reduce_applies_dehn_step(capsys):
    code, out, _ = run(capsys, ["reduce", "AdcbC"])
    assert code == 0
    assert out.strip() == "dbA"


def test_britton_pinches_through_both_tables(capsys):
    code, data = run_json(capsys, ["britton", "tDaacBCT", "--json"])
    assert code == 0
    assert data["normal_form"] == "d"
    assert data["t_count"] == 0
    code, data = run_json(capsys, ["britton", "tat", "--json"])
    assert code == 0
    assert data["t_count"] == 2
    assert data["exponents"] == [1, 1]


def test_trivial_exit_codes(capsys):
    code, out, _ = run(capsys, ["trivial", "AdcbCaBD"])
    assert code == 0 and out.strip() == "trivial"
    code, out, _ = run(capsys, ["trivial", "ab"])
    assert code == 1 and out.strip() == "nontrivial"


@pytest.mark.parametrize(
    "word", ["aaBCtbAtD", "aTCtDbCtD", "tCbtBAabDadcBBBC", "aaBCtbAtDtdTaBTcbAAT"]
)
def test_trivial_answers_kernel_words_nontrivial(capsys, word):
    # each word folds to +-1 (the map G -> PSL(2, R) has a kernel), and
    # stable letters survive Britton reduction: not trivial, exit 1
    code, out, err = run(capsys, ["trivial", word])
    assert (code, out, err) == (1, "nontrivial\n", "")
    code, out, err = run(capsys, ["trivial", "--json", word])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"word": word, "trivial": False}


# ---------------------------------------------------------------------------
# cosets, tree, abelianize


COSETS_SCHEMA = {
    "type": "object",
    "required": ["generators", "columns", "index", "table", "representatives"],
    "properties": {
        "index": {"type": "integer"},
        "table": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "representatives": {"type": "array", "items": {"type": "string"}},
    },
}


def test_cosets_both_sides(capsys):
    for side in ("source", "target"):
        code, data = run_json(capsys, ["cosets", "--side", side, "--json"])
        assert code == 0
        validate(data, COSETS_SCHEMA)
        assert data["index"] == 12
        assert len(data["table"]) == 12
    code, out, _ = run(capsys, ["cosets"])
    assert code == 0
    assert "index: 12" in out
    assert "subgroup genus: 13" in out


def test_tree_distances(capsys):
    code, out, _ = run(capsys, ["tree", "tat"])
    assert code == 0
    assert "distance from base vertex: 2" in out
    code, data = run_json(capsys, ["tree", "t", "at", "--json"])
    assert code == 0
    assert data["distance"] == 2 and data["same_vertex"] is False
    code, data = run_json(capsys, ["tree", "tDaacBCT", "d", "--json"])
    assert code == 0
    assert data["distance"] == 0 and data["same_vertex"] is True


def test_abelianize_both_levels(capsys):
    code, out, _ = run(capsys, ["abelianize"])
    assert code == 0
    assert out.strip() == "H1(ambient) = Z x Z/21"
    code, data = run_json(capsys, ["abelianize", "--which", "vertex", "--json"])
    assert code == 0
    assert data["betti"] == 4 and data["torsion"] == []


# ---------------------------------------------------------------------------
# fsa-check


FSA_SCHEMA = {
    "type": "object",
    "required": ["language", "radius", "rule", "finite_to_one",
                 "fellow_traveller", "quasigeodesic", "ok"],
    "properties": {
        "finite_to_one": {
            "type": "object",
            "required": ["bound", "surjective", "ok"],
        },
        "fellow_traveller": {
            "type": "object",
            "required": ["zeta", "cap", "pairs_checked", "ok", "witness"],
        },
        "ok": {"type": "boolean"},
    },
}


def test_fsa_check_passes_normal_form(capsys):
    code, data = run_json(
        capsys, ["fsa-check", "z2-normal", "--cap", "2", "--json"]
    )
    assert code == 0
    validate(data, FSA_SCHEMA)
    assert data["ok"]
    assert data["finite_to_one"]["bound"] == 1
    assert data["fellow_traveller"]["zeta"] == 2


def test_fsa_check_fails_adversarial_language(capsys):
    code, data = run_json(
        capsys,
        ["fsa-check", "z2-adversarial", "--cap", "2", "--radius", "6", "--json"],
    )
    assert code == 1
    validate(data, FSA_SCHEMA)
    assert not data["ok"]
    assert data["finite_to_one"]["ok"]  # only the fellow traveller axiom fails
    assert data["fellow_traveller"]["zeta"] == 6
    witness = data["fellow_traveller"]["witness"]
    assert witness["separation"] == 6
    code, out, _ = run(
        capsys, ["fsa-check", "z2-adversarial", "--cap", "2", "--radius", "6"]
    )
    assert code == 1
    assert "worst pair:" in out and out.splitlines()[-1] == "FAIL"


def test_fsa_check_simultaneous_rule(capsys):
    code, data = run_json(
        capsys,
        ["fsa-check", "z2-normal", "--rule", "simultaneous", "--json"],
    )
    assert code == 0
    assert data["fellow_traveller"]["zeta"] == 3


def test_fsa_check_reads_automaton_file(capsys, tmp_path):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps(z2_normal_form_fsa().to_json()))
    code, data = run_json(
        capsys, ["fsa-check", str(path), "--cap", "2", "--json"]
    )
    assert code == 0
    assert data["ok"]


def test_fsa_check_rejects_states_out_of_range(capsys, tmp_path):
    path = tmp_path / "lang.json"
    for initial, accepting in (([5], [0]), ([0], [2]), ([-1], [0])):
        data = {"alphabet": ["x"], "num_states": 2, "initial": initial,
                "accepting": accepting, "transitions": [[0, "x", 1]]}
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["fsa-check", str(path), "--radius", "2"])
        assert (code, out) == (2, "")
        assert err == "error: initial or accepting state out of range\n"


MISSING = object()
GOOD_AUTOMATON = {"alphabet": ["x"], "num_states": 2, "initial": [0],
                  "accepting": [1], "transitions": [[0, "x", 1]]}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"initial": ["0"]}, "initial"),
        ({"initial": True}, "initial"),
        ({"accepting": 1}, "accepting"),
        ({"alphabet": [["x"]]}, "alphabet"),
        ({"transitions": [[0, ["x"], 1]]}, "transitions"),
        ({"transitions": [[0, "x"]]}, "transitions"),
        ({"transitions": [[0.0, "x", 1]]}, "transitions"),
        ({"num_states": None}, "num_states"),
        ({"num_states": True}, "num_states"),
        ({"num_states": "2"}, "num_states"),
        ({"num_states": MISSING}, "num_states"),
        ([], "object"),
        ("directory", "cannot read"),
        # once accepted, and checked as an automaton with no states
        ({"num_states": -5}, "num_states must be >= 0"),
        # once a RecursionError in json.load: a traceback and exit 1
        ("nested", "nested too deeply"),
    ],
)
def test_fsa_check_rejects_malformed_automaton_files(capsys, tmp_path, change, field):
    path = tmp_path / "lang.json"
    if change == "directory":
        path.mkdir()
    elif change == "nested":
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif isinstance(change, dict):
        data = {**GOOD_AUTOMATON, **change}
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not MISSING}))
    else:
        path.write_text(json.dumps(change))
    code, out, err = run(capsys, ["fsa-check", str(path), "--radius", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_fsa_check_rejects_bad_radius(capsys, monkeypatch):
    code, out, err = run(capsys, ["fsa-check", "z2-normal", "--radius", "-1"])
    assert code == 2
    assert out == "" and err.startswith("error: window radius")

    def no_window(*args):
        raise AssertionError("a window was built for an over-limit radius")

    monkeypatch.setattr(biauto, "WindowedLanguage", no_window)
    for radius in (cli._FSA_RADIUS_LIMIT + 1, 10**9):
        code, out, err = run(
            capsys, ["fsa-check", "z2-normal", "--radius", str(radius)]
        )
        assert code == 2
        assert out == "" and "above the limit 64" in err


def test_fsa_check_rejects_negative_cap(capsys, monkeypatch):
    def no_window(*args):
        raise AssertionError("a window was built for a negative cap")

    monkeypatch.setattr(biauto, "WindowedLanguage", no_window)
    code, out, err = run(capsys, ["fsa-check", "z2-normal", "--cap", "-5"])
    assert (code, out) == (2, "")
    assert err == "error: fellow-traveller cap must be >= 0, got -5\n"


LETTERS = ("x", "X", "y", "Y")
# one state: every word over x/X/y/Y
EVERY_WORD = Fsa(LETTERS, 1, 0, (0,), [(0, x, 0) for x in LETTERS])
# a chain of 65 states, then a loop: no word of 64 letters or fewer, but
# every prefix stays live
LONG_WORDS_ONLY = Fsa(
    LETTERS,
    66,
    0,
    (65,),
    [(i, x, min(i + 1, 65)) for i in range(66) for x in LETTERS],
)


def test_fsa_check_refuses_automata_with_too_many_prefixes(
    capsys, monkeypatch, tmp_path
):
    def no_window(*args):
        raise AssertionError("a window was built for an over-limit automaton")

    monkeypatch.setattr(biauto, "WindowedLanguage", no_window)
    path = tmp_path / "lang.json"
    for fsa, radius in ((EVERY_WORD, 7), (EVERY_WORD, 64), (LONG_WORDS_ONLY, 64)):
        path.write_text(json.dumps(fsa.to_json()))
        argv = ["fsa-check", str(path), "--radius", str(radius)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.endswith(f"above the limit {cli._FSA_PREFIX_LIMIT}\n")


def test_fsa_check_stops_counting_paths_at_the_limit(capsys, tmp_path):
    # the count used to run all 64 lengths and print a 39-digit total
    path = tmp_path / "lang.json"
    path.write_text(json.dumps(EVERY_WORD.to_json()))
    code, out, err = run(capsys, ["fsa-check", str(path), "--radius", "64"])
    assert code == 2 and out == ""
    # 1 + 4 + ... + 4^7 = 21845 paths pass the limit at length 7
    assert err == (
        "error: automaton path count up to length 7 is above the limit "
        f"{cli._FSA_PREFIX_LIMIT}\n"
    )
    assert max(map(len, re.findall(r"[0-9]+", err))) <= 5


def test_fsa_check_refuses_windows_with_too_many_pairs(
    capsys, monkeypatch, tmp_path
):
    class Analyzed(Exception):
        pass

    def analyze(*args):
        raise Analyzed

    monkeypatch.setattr(biauto.WindowedLanguage, "analyze", analyze)
    for name in BUILTIN_LANGUAGES:
        with pytest.raises(Analyzed):
            cli.main(["fsa-check", name, "--radius", str(cli._FSA_RADIUS_LIMIT)])
    path = tmp_path / "lang.json"
    path.write_text(json.dumps(EVERY_WORD.to_json()))
    # radius 3: 85 window words, at most 10 for one element, so a pair
    # bound of 25 * 85 * 10 = 21250
    with pytest.raises(Analyzed):
        cli.main(["fsa-check", str(path), "--radius", "3"])
    # radius 4 (25 * 341 * 41 = 349525) and radius 6 (5461 prefixes pass,
    # but the identity alone has 441 words) are refused
    for radius in (4, 6):
        argv = ["fsa-check", str(path), "--radius", str(radius)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.endswith(f"above the limit {cli._FSA_PAIRS_LIMIT}\n")


def test_fsa_check_builds_one_automaton(capsys, monkeypatch, tmp_path):
    # the path count and the window read the file's automaton itself, not
    # copies of it
    path = tmp_path / "lang.json"
    path.write_text(json.dumps(biauto.z2_parity_fsa().to_json()))
    calls = []
    init = Fsa.__init__
    monkeypatch.setattr(
        Fsa, "__init__", lambda self, *args: calls.append(args) or init(self, *args)
    )
    code, out, _ = run(capsys, ["fsa-check", str(path), "--radius", "6"])
    assert code == 0 and "zeta=6 (no cap, 661 pairs)" in out
    assert len(calls) == 1


def test_fsa_check_declared_states_cost_nothing_by_themselves(capsys, tmp_path):
    # the live states and the path count are found from the transitions
    # alone; built over every declared state, 10**6 states took 7.7 s and
    # 631 MB
    path = tmp_path / "lang.json"
    data = {"alphabet": list(LETTERS), "num_states": 10**6, "initial": [0],
            "accepting": [0], "transitions": []}
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["fsa-check", str(path), "--radius", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert "zeta=0 (no cap, 1 pairs)" in out and out.splitlines()[-1] == "OK"


@contextlib.contextmanager
def memory_limit(budget):
    """Fail a block whose tracemalloc peak reaches budget bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, f"tracemalloc peak of {peak} bytes, budget {budget}"


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, instead of hanging, a block that runs longer than seconds."""

    def expired(*args):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_fsa_check_reads_only_regular_files(capsys, tmp_path):
    # a FIFO with no writer blocks the reader's open() forever
    fifo = tmp_path / "lang.fifo"
    os.mkfifo(fifo)
    with time_limit(5):
        code, out, err = run(capsys, ["fsa-check", str(fifo)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {str(fifo)!r}: not a regular file\n"


def test_fsa_check_reads_at_most_the_file_limit(capsys, tmp_path):
    # the automaton, padded with blanks to the limit and then one byte past it
    text = json.dumps(z2_normal_form_fsa().to_json())
    path = tmp_path / "lang.json"
    path.write_text(text.ljust(cli._FSA_FILE_LIMIT))
    code, out, err = run(capsys, ["fsa-check", str(path), "--radius", "2"])
    assert code == 0 and err == ""
    path.write_text(text.ljust(cli._FSA_FILE_LIMIT + 1))
    code, out, err = run(capsys, ["fsa-check", str(path), "--radius", "2"])
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {str(path)!r}:"
        f" more than {cli._FSA_FILE_LIMIT} bytes\n"
    )


def warm_up(capsys, *argvs):
    """Run each argv once, so that what a process builds on first use (the
    group, the Dehn rules, lazily imported layers) is not charged to the
    memory budget of a later call."""
    for argv in argvs:
        run(capsys, argv)


# the tracemalloc peak of one call in the two fuzz tests below, after their
# warm-up, measured before these budgets were set: at most 2.19 MB over the
# 300 automata (at radius 64) and 124 KB over the 400 lattice argv; each
# budget is half as much again
FSA_FUZZ_PEAK_BYTES = 3_300_000
LATTICE_FUZZ_PEAK_BYTES = 186_000

# a JSON integer of 5000 digits, spliced into the file in place of this
# string: above Python's default limit on int <-> str conversion
HUGE = "<huge>"
FUZZ_CALL_SECONDS = 2.0
FUZZ_FIELDS = ("alphabet", "num_states", "initial", "accepting", "transitions")
WRONG_TYPES = (True, 1.0, "0", None, [0], ["x", 0], {"0": 0}, 4, "xXyY")


@st.composite
def fuzz_automata(draw):
    """Automaton JSON: a well formed automaton, often nondeterministic
    (several initial states, several destinations per state and letter),
    with up to three faults: a field of the wrong type or missing, a huge,
    negative or out-of-range state, a duplicate letter or a letter with no
    x/y image."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    alphabet = draw(st.lists(st.sampled_from(LETTERS), min_size=1, unique=True))
    data = {
        "alphabet": alphabet,
        "num_states": n,
        "initial": draw(st.one_of(state, st.lists(state, min_size=1, max_size=2))),
        "accepting": draw(st.lists(state, max_size=n)),
        "transitions": draw(
            st.lists(st.tuples(state, st.sampled_from(alphabet), state), max_size=12)
        ),
    }
    faults = st.tuples(
        st.sampled_from(["state", "letter", "type", "missing"]),
        st.sampled_from(FUZZ_FIELDS),
    )
    # half the automata are well formed; in the rest the faults that edit
    # a field's list come before those that replace it
    drawn = draw(st.lists(faults, max_size=3)) if draw(st.booleans()) else []
    for fault, field in sorted(drawn, key=lambda f: f[0] in ("type", "missing")):
        if field not in data:
            continue
        if fault == "type":
            data[field] = draw(st.sampled_from(WRONG_TYPES))
        elif fault == "missing":
            del data[field]
        elif fault == "state":
            bad = draw(st.sampled_from([-1, n, n + 3, 10**30, -(2**64), HUGE]))
            if field == "num_states":
                data[field] = bad
            elif field in ("initial", "accepting"):
                data[field] = [bad]
            else:
                letter = draw(st.sampled_from(LETTERS))
                data[field] = [[bad, letter, 0], *data[field]]
        elif field == "alphabet":
            # a duplicate letter
            data[field] = [*data[field], data[field][0]]
        else:
            # a letter with no x/y image, used by a transition
            letter = draw(st.sampled_from(["z", "", "xy"]))
            data["alphabet"] = [*data["alphabet"], letter]
            data["transitions"] = [[0, letter, 0], *data["transitions"]]
    return data


def test_fsa_check_fuzzed_automata_exit_cleanly(capsys, tmp_path):
    path = tmp_path / "lang.json"
    codes = Counter()
    warm_up(capsys, ["fsa-check", "z2-normal", "--radius", "2"])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        fuzz_automata(),
        # Hypothesis favours the first choice of each
        st.sampled_from([64, 0, 65, -1]),
        st.sampled_from([None, 0, -1]),
        st.sampled_from(["classical", "simultaneous"]),
        st.booleans(),
    )
    def check(data, radius, cap, rule, as_json):
        path.write_text(json.dumps(data).replace(json.dumps(HUGE), "9" * 5000))
        argv = ["fsa-check", str(path), "--radius", str(radius), "--rule", rule]
        if cap is not None:
            argv += ["--cap", str(cap)]
        if as_json:
            argv.append("--json")
        with memory_limit(FSA_FUZZ_PEAK_BYTES), time_limit(FUZZ_CALL_SECONDS):
            code, out, err = run(capsys, argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
        elif as_json:
            assert json.loads(out)["ok"] == (code == 0)
        codes[code, radius] += 1

    check()
    # every exit code occurs, and many radius-64 windows are analyzed
    assert min(codes[0, 0], codes[1, 0], codes[2, 64]) >= 5
    assert codes[1, 64] >= 50


@st.composite
def lattice_words(draw):
    """A word argument for the lattice subcommands: compact letters of both
    cases, `*` tokens with exponents, or a fixed word; a compact word may
    carry a letter outside the alphabet, non-ASCII ones among them.  An
    accepted word has at most 200 letters."""
    kind = draw(st.sampled_from(("compact", "tokens", "fixed")))
    if kind == "fixed":
        return draw(st.sampled_from(("", " ", "\t", "1", " 1 ", "aaBCtbAtD")))
    if kind == "compact":
        word = draw(st.text(st.sampled_from("abcdtABCDT"), max_size=200))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(word)))
            word = word[:i] + draw(st.sampled_from("xzXéßΩ٣7 ")) + word[i:]
        return word
    names = st.sampled_from(("a", "b", "c", "d", "t", "A", "x", "é"))
    exponents = st.sampled_from(
        ("", "^2", "^-3", "^+1", "^0", "^", "^1_0", "^٣", "^12", "^4001", "^-5000")
    )
    tokens = draw(st.lists(st.tuples(names, exponents), min_size=1, max_size=8))
    sep = draw(st.sampled_from(("*", " * ", "**")))
    return sep.join(name + exp for name, exp in tokens)


# the choice options of the word-free lattice subcommands, each with its
# values and some it refuses
LATTICE_CHOICES = {
    "cosets": (("--side", ("source", "target", "both", "", "Source")),),
    "abelianize": (("--which", ("ambient", "vertex", "surface", "")),),
    "export": (
        ("--which", ("ambient", "vertex", "all")),
        ("--format", ("gap", "magma", "json", "tex", "")),
    ),
}


@st.composite
def lattice_argv(draw):
    command = draw(
        st.sampled_from(
            ("trivial", "britton", "reduce", "classify", "tree", "lengths", "verify")
            + tuple(LATTICE_CHOICES)
        )
    )
    if command in LATTICE_CHOICES:
        argv = [command]
        for flag, values in LATTICE_CHOICES[command]:
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(values))]
        # a stray argument: a word, a number, a flag without its value
        if draw(st.integers(0, 3)) == 0:
            argv.append(draw(st.sampled_from(("a", "-1", "--side", "--format"))))
    elif command == "verify":
        argv = [command, "--samples", str(draw(st.sampled_from((-1, 0, 2, 1001))))]
    elif command in ("tree", "lengths"):
        argv = [command, *draw(st.lists(lattice_words(), max_size=3))]
        if command == "lengths":
            argv += ["--bound", str(draw(st.sampled_from((0, 1, 1024, 1025))))]
    else:
        argv = [command, draw(lattice_words())]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def test_lattice_commands_fuzzed_argv_exit_cleanly(capsys):
    codes = Counter()
    # the group and its Dehn rules, and isom's product of small primes
    warm_up(capsys, ["reduce", "a"], ["classify", "ab"])

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(lattice_argv())
    def check(argv):
        with memory_limit(LATTICE_FUZZ_PEAK_BYTES), time_limit(FUZZ_CALL_SECONDS):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
        out, err = capsys.readouterr()
        # exit 3, the routes disagreeing, would be a defect of the lattice
        assert code in ((0, 2) if argv[0] in LATTICE_CHOICES else (0, 1, 2))
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
        elif "--json" in argv:
            json.loads(out)
        codes[argv[0], code] += 1

    check()
    # each subcommand answers, and refuses, some of its argv
    for command in ("trivial", "britton", "reduce", "classify", "tree", "lengths"):
        assert min(codes[command, 0], codes[command, 2]) >= 3
    for command in LATTICE_CHOICES:
        assert min(codes[command, 0], codes[command, 2]) >= 3
    assert codes["trivial", 1] >= 3 and codes["verify", 0] >= 3


# 4,000-letter words for `reduce`, the most `parse_word` takes: the
# relator typed out 500 times, a power, and a seeded random word
LONGEST_REDUCE_WORDS = {
    "relator-500": "AdcbCaBD" * 500,
    "a^4000": "a^4000",
    "random": "".join(random.Random(25).choice("abcdABCD") for _ in range(4000)),
}
# the tracemalloc peak of one such call under this test, measured before
# words entered Dehn reduction as bytes: 221 KB for the relator, 160 KB for
# the power, 360 KB for the random word; the budget is half as much again
REDUCE_PEAK_BYTES = 540_000


@pytest.mark.parametrize("name", LONGEST_REDUCE_WORDS)
def test_reduce_of_the_longest_words_stays_in_budget(capsys, name):
    word = LONGEST_REDUCE_WORDS[name]
    warm_up(capsys, ["reduce", "a"])
    with memory_limit(REDUCE_PEAK_BYTES), time_limit(FUZZ_CALL_SECONDS):
        code = cli.main(["reduce", word])
    out = capsys.readouterr().out
    assert code == 0
    expected = {"relator-500": "1", "a^4000": "a" * 4000}.get(name)
    if expected is not None:
        assert out == expected + "\n"


def test_lengths_bound_and_verify_samples_are_limited(capsys, monkeypatch):
    argv = ["lengths", "a", "c", "--json", "--bound"]
    code, data = run_json(capsys, argv + [str(cli._LENGTHS_BOUND_LIMIT)])
    assert code == 0
    assert data["comparison"]["bound"] == cli._LENGTHS_BOUND_LIMIT

    def no_group():
        raise AssertionError("the group was loaded for an over-limit argument")

    monkeypatch.setattr(hnn, "load_builtin_group", no_group)
    for argv, limit in (
        (argv, cli._LENGTHS_BOUND_LIMIT),
        (["verify", "--samples"], cli._VERIFY_SAMPLES_LIMIT),
    ):
        for value in (limit + 1, 10**9):
            code, out, err = run(capsys, argv + [str(value)])
            assert code == 2
            assert out == "" and f"above the limit {limit}" in err


def test_lengths_refuses_a_bound_below_one(capsys, monkeypatch):
    # a bad bound used to pass unless two hyperbolic words were compared
    def no_group():
        raise AssertionError("the group was loaded for a bound below 1")

    monkeypatch.setattr(hnn, "load_builtin_group", no_group)
    for argv in (["lengths", "--bound", "0"], ["lengths", "a", "--bound", "-3"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: bound must be >= 1\n")


def test_verify_refuses_negative_samples(capsys, monkeypatch):
    # a negative count used to run no samples and report OK
    def no_group():
        raise AssertionError("the group was loaded for a negative --samples")

    monkeypatch.setattr(hnn, "load_builtin_group", no_group)
    for argv in (["verify", "--samples", "-3"], ["verify", "--samples", "-3", "--json"]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and err == "error: --samples must be >= 0, got -3\n"


# ---------------------------------------------------------------------------
# export


def test_export_json_counts_relators(capsys):
    code, data = run_json(capsys, ["export", "--format", "json"])
    assert code == 0
    assert data["generators"] == ["a", "b", "c", "d", "t"]
    assert len(data["relators"]) == 27
    code, data = run_json(
        capsys, ["export", "--which", "vertex", "--format", "json"]
    )
    assert len(data["relators"]) == 1
    # --json prints the same presentation whatever --format says
    for fmt in ("gap", "magma", "json"):
        argv = ["export", "--which", "vertex", "--format", fmt, "--json"]
        assert run_json(capsys, argv) == (0, data)


def test_export_gap_and_magma_syntax(capsys):
    code, out, _ = run(capsys, ["export", "--format", "gap"])
    assert code == 0
    assert out.startswith('F := FreeGroup("a", "b", "c", "d", "t");;')
    assert out.rstrip().endswith("G := F / rels;;")
    assert out.count("*") > 50
    code, out, _ = run(capsys, ["export", "--format", "magma"])
    assert code == 0
    assert out.startswith("G<a, b, c, d, t> := Group<")
    assert out.rstrip().endswith(">;")


@pytest.mark.parametrize(
    "argv", [["export", "--format", "gap"], ["cosets"], ["verify"]]
)
def test_a_closed_pipe_ends_the_command_quietly(argv):
    # the reader is gone before the first byte is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parent.parent)
    with os.fdopen(write_end, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "hnnlab.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
    # no traceback, and the command's own exit code
    assert (proc.returncode, proc.stderr) == (0, "")


def test_exports_are_deterministic(capsys):
    for argv in (
        ["export", "--format", "gap"],
        ["cosets", "--json"],
        ["lengths", "a", "c", "--json"],
    ):
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


# ---------------------------------------------------------------------------
# usage errors


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, ["classify", "zz"])
    assert code == 2
    assert "error:" in err
    # t is not a surface-group letter
    code, _, err = run(capsys, ["reduce", "tat"])
    assert code == 2


def test_huge_exponent_is_usage_error(capsys):
    for cmd in ("reduce", "trivial", "britton"):
        code, out, err = run(capsys, [cmd, "a^1000000000000"])
        assert code == 2
        assert out == "" and err.startswith("error: word longer than")
        assert "Traceback" not in err


def test_bad_exponent_is_usage_error(capsys):
    for cmd in ("reduce", "trivial"):
        code, out, err = run(capsys, [cmd, "a^1_0"])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad exponent")


def test_unknown_language_is_usage_error(capsys):
    code, _, err = run(capsys, ["fsa-check", "nonsense"])
    assert code == 2
    assert "builtins" in err


def test_tree_rejects_three_words(capsys):
    code, _, err = run(capsys, ["tree", "t", "ta", "tat"])
    assert code == 2
    assert "one or two words" in err


def test_oracle_disagreement_exits_3(capsys, monkeypatch):
    group = hnn.load_builtin_group()
    tampered = copy.copy(group)
    # deliberately swapped
    tampered.source_table = group.target_table
    tampered.target_table = group.source_table
    monkeypatch.setattr(hnn, "load_builtin_group", lambda: tampered)
    code, out, err = run(capsys, ["britton", "tdT"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: membership of d: ")
    assert "Traceback" not in err


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# pinned output


# every subcommand, plain and --json, with the exit-1 and exit-2 cases of
# those that have them (argparse refuses a choice it does not know)
PINNED_ARGV = (
    [],
    ["verify"],
    ["verify", "--json"],
    ["verify", "--samples", "3", "--seed", "5"],
    ["verify", "--samples", "2", "--json"],
    ["verify", "--samples", "-1"],
    ["verify", "--samples", "1001", "--json"],
    ["classify", "a"],
    ["classify", "t"],
    ["classify", "1"],
    ["classify", "at", "--json"],
    ["classify", "aaBCtbAtD", "--json"],
    ["classify", "zz"],
    ["classify", "zz", "--json"],
    ["lengths"],
    ["lengths", "--json"],
    ["lengths", "a", "aa"],
    ["lengths", "a", "c", "--json"],
    ["lengths", "t", "a"],
    ["lengths", "a", "c", "--bound", "1"],
    ["lengths", "--bound", "0"],
    ["reduce", "AdcbC"],
    ["reduce", "AdcbC", "--json"],
    ["reduce", "aBAbcDCd"],
    ["reduce", ""],
    ["reduce", "", "--json"],
    ["reduce", "tat"],
    ["britton", "TdtDaacAdTDt"],
    ["britton", "tat", "--json"],
    ["britton", "tDaacBCT", "--json"],
    ["britton", "a^1000000000000"],
    ["trivial", "tDaacBCTD"],
    ["trivial", "aaBCtbAtD"],
    ["trivial", "tDaacBCTD", "--json"],
    ["trivial", "aaBCtbAtD", "--json"],
    ["trivial", "a^1_0"],
    ["cosets"],
    ["cosets", "--side", "target"],
    ["cosets", "--json"],
    ["cosets", "--side", "target", "--json"],
    ["cosets", "--side", "both"],
    ["tree", "atbTc"],
    ["tree", "t", "at"],
    ["tree", "atbTc", "--json"],
    ["tree", "tDaacBCT", "d", "--json"],
    ["tree", "t", "ta", "tat"],
    ["abelianize"],
    ["abelianize", "--which", "vertex"],
    ["abelianize", "--json"],
    ["abelianize", "--which", "vertex", "--json"],
    ["abelianize", "--which", "surface"],
    ["fsa-check", "z2-normal", "--radius", "6"],
    ["fsa-check", "z2-normal", "--radius", "6", "--rule", "simultaneous"],
    ["fsa-check", "z2-adversarial", "--radius", "6", "--cap", "2"],
    ["fsa-check", "z2-normal", "--radius", "6", "--json"],
    ["fsa-check", "z2-adversarial", "--radius", "6", "--cap", "2", "--json"],
    ["fsa-check", "nonsense"],
    ["fsa-check", "z2-normal", "--radius", "-1", "--json"],
    ["export"],
    ["export", "--which", "vertex"],
    ["export", "--format", "gap"],
    ["export", "--format", "magma", "--which", "vertex"],
    ["export", "--json"],
    ["export", "--format", "json", "--which", "vertex", "--json"],
    ["export", "--format", "gap", "--json"],
    ["export", "--format", "magma", "--which", "vertex", "--json"],
    ["export", "--format", "tex"],
)


def test_cli_outputs_are_pinned(capsys):
    # exit code, stdout and stderr of each argv, byte for byte; argparse's
    # own usage text belongs to the Python version, so only its first
    # word is kept
    runs = []
    for argv in PINNED_ARGV:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if err.startswith("usage: hnn-lab"):
            err = "usage"
        runs.append([argv, code, out, err])
    codes = Counter(code for _, code, _, _ in runs)
    assert set(codes) == {0, 1, 2} and codes[2] >= 12
    text = json.dumps(runs, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c0ff1f7e51a2701cee952cd73b4b15436f92d7a090f6969e7cad17d9961784d2"
