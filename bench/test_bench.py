"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

hnnlab = run.import_hnnlab()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def first_round(name: str, seed: int = 5):
    generator, per_round, _ = run.WORKLOADS[name]
    stream = generator(seed)
    return [next(stream) for _ in range(per_round)]


def measure_round(name: str, inputs):
    op, check = run.make_op(name, hnnlab)
    return run.measure(iter(inputs), op, check, len(inputs),
                       lambda inp: run.input_size(name, inp), rounds=1)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_one_round_of_every_workload_passes_its_checks(name):
    res = measure_round(name, first_round(name))
    assert res.attempted == run.WORKLOADS[name][1]
    assert res.failures == []


def corrupt(name: str, expected):
    if name == "word-problem":
        return not expected
    if name == "tree-distance":
        return expected + 1
    if name == "surface-dehn":
        return (not expected[0], expected[1])
    language, rule, radius = expected
    other = "simultaneous" if rule == "classical" else "classical"
    return (language, other, radius) if language == "z2-normal" else (language, rule, radius + 1)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_a_wrong_expected_answer_counts_as_a_failure(name):
    inputs = first_round(name)
    inp, expected = inputs[0]
    inputs[0] = (inp, corrupt(name, expected))
    res = measure_round(name, inputs)
    assert len(res.failures) == 1
    assert res.failures[0].startswith("wrong answer")


def test_an_exception_counts_as_a_failure():
    def op(inp):
        raise hnnlab.OracleDisagreement("routes split")

    res = run.measure(iter([(1, True), (2, True)]), op, lambda r, e: True, 2,
                      lambda inp: 1, rounds=1)
    assert res.attempted == 2 and len(res.failures) == 2
    assert res.failures[0].startswith("OracleDisagreement")


def test_tree_distance_paths_are_britton_reduced_before_insertion():
    group = hnnlab.load_builtin_group()
    rng = random.Random(11)
    for k in (2, 5, 9, 16):
        for _ in range(3):
            word = gen.reduced_path(rng, k)
            form = group.britton_reduce(word)
            assert form.t_count == k
            assert form.to_word() == gen.free_reduce(word)


def test_off_subgroup_segments_are_outside_the_subgroup():
    group = hnnlab.load_builtin_group()
    rng = random.Random(12)
    for _ in range(10):
        assert not group.in_source_subgroup(gen.off_subgroup_segment(rng, gen.H, gen.U_WORDS))
        assert not group.in_target_subgroup(gen.off_subgroup_segment(rng, gen.K, gen.V_WORDS))


def test_action_certificate_rejects_a_wrong_table():
    with pytest.raises(ValueError):
        gen.check_action(gen.K, gen.U_WORDS)  # the u_i do not fix K's base point


def test_generators_are_deterministic_in_the_seed():
    for name, (generator, per_round, _) in run.WORKLOADS.items():
        a, b, c = generator(3), generator(3), generator(4)
        first = [next(a) for _ in range(per_round)]
        assert first == [next(b) for _ in range(per_round)]
        assert first != [next(c) for _ in range(per_round)]


def test_every_layer_metric_is_reported_even_without_calls():
    metrics = spans.layer_metrics([], 1.0, 0.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v == 0 for v, _ in metrics.values())


def test_tracer_restores_originals_and_lists_missing_names(monkeypatch):
    monkeypatch.delattr(hnnlab.hnn, "evaluate_word")
    before = hnnlab.hnn.HnnGroup.__dict__["evaluate"]
    tracer = spans.Tracer(hnnlab)
    tracer.install()
    try:
        assert hnnlab.hnn.HnnGroup.__dict__["evaluate"] is not before
        assert tracer.missing == ["hnnlab.hnn.evaluate_word"]
    finally:
        tracer.uninstall()
    assert hnnlab.hnn.HnnGroup.__dict__["evaluate"] is before


def run_cli(*args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metric_names_and_units_match_benchmark_json(trace, key):
    result = run_cli("--workload", "word-problem", "--seed", "2",
                     "--seconds", "0.01", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
