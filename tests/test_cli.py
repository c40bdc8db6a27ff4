"""End-to-end command line tests: text output, JSON schemas, exit codes,
and byte-for-byte determinism."""

import json
import math
import sys
import time

import pytest
from jsonschema import validate

from hnnlab import cli, hnn
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
    # Python's default 4300-digit limit for int <-> str.  About 10 s, two
    # evaluations of 4000 letters.
    words = ["at" * 2000, "at" * 1999 + "tt"]
    code, out, err = run(capsys, ["lengths", "--json", *words])
    assert code == 0 and err == ""
    data = json.loads(out)
    first, second = data["elements"]
    assert first["length_field"] == 2173
    assert first["length_exact"].startswith("2*log(") and first["length_decimal"]
    assert len(str(second["length_field"])) > 6000
    assert data["comparison"] == {"kind": "independent-certified", "bound": 64}


def test_classify_json_loads_under_the_default_digit_limit(capsys):
    # the field parameter of (at)^1999 t^2 has over 6000 digits, more than
    # Python's default limit for int <-> str, so it is printed as a string;
    # one that fits stays an integer.  About 3 s, one 4000-letter evaluation.
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
    ],
)
def test_fsa_check_rejects_malformed_automaton_files(capsys, tmp_path, change, field):
    path = tmp_path / "lang.json"
    if change == "directory":
        path.mkdir()
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

    monkeypatch.setattr(cli.biauto, "WindowedLanguage", no_window)
    for radius in (cli._FSA_RADIUS_LIMIT + 1, 10**9):
        code, out, err = run(
            capsys, ["fsa-check", "z2-normal", "--radius", str(radius)]
        )
        assert code == 2
        assert out == "" and "above the limit 64" in err


def test_fsa_check_rejects_negative_cap(capsys, monkeypatch):
    def no_window(*args):
        raise AssertionError("a window was built for a negative cap")

    monkeypatch.setattr(cli.biauto, "WindowedLanguage", no_window)
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

    monkeypatch.setattr(cli.biauto, "WindowedLanguage", no_window)
    path = tmp_path / "lang.json"
    for fsa, radius in ((EVERY_WORD, 7), (EVERY_WORD, 64), (LONG_WORDS_ONLY, 64)):
        path.write_text(json.dumps(fsa.to_json()))
        argv = ["fsa-check", str(path), "--radius", str(radius)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.endswith(f"above the limit {cli._FSA_PREFIX_LIMIT}\n")


def test_fsa_check_refuses_windows_with_too_many_pairs(
    capsys, monkeypatch, tmp_path
):
    class Analyzed(Exception):
        pass

    def analyze(*args):
        raise Analyzed

    monkeypatch.setattr(cli.biauto.WindowedLanguage, "analyze", analyze)
    for name in BUILTIN_LANGUAGES:
        with pytest.raises(Analyzed):
            cli.main(["fsa-check", name, "--radius", str(cli._FSA_RADIUS_LIMIT)])
    # 5461 prefixes pass, but the identity alone has 441 words
    path = tmp_path / "lang.json"
    path.write_text(json.dumps(EVERY_WORD.to_json()))
    code, out, err = run(capsys, ["fsa-check", str(path), "--radius", "6"])
    assert code == 2 and out == ""
    assert err.endswith(f"above the limit {cli._FSA_PAIRS_LIMIT}\n")


def test_fsa_check_declared_states_cost_nothing_by_themselves(capsys, tmp_path):
    # trim and count_paths used to build dicts over every declared state
    # before any cap applied: 10**6 states took 7.7 s and 631 MB
    path = tmp_path / "lang.json"
    data = {"alphabet": list(LETTERS), "num_states": 10**6, "initial": [0],
            "accepting": [0], "transitions": []}
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["fsa-check", str(path), "--radius", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert "zeta=0 (no cap, 1 pairs)" in out and out.splitlines()[-1] == "OK"


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
    tampered = hnn.HnnGroup(
        vertex=group.vertex,
        ambient=group.ambient,
        pairs=group.pairs,
        images=group.images,
        oracles=group.oracles,
        source_table=group.target_table,  # deliberately swapped
        target_table=group.source_table,
    )
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
