"""Tests of the benchmark itself: generator determinism, inputs the program
accepts whole, and the output schema of a tiny run of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

import bench_gen
import run
from claimcheck.corpus import ingest_dump
from claimcheck.nli_data import load_claims

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = sorted(bench_gen.WORKLOADS)


def _tiny(name):
    return dataclasses.replace(bench_gen.WORKLOADS[name], pages=60, claims=12)


def test_same_seed_gives_same_bytes(tmp_path):
    for name in WORKLOADS:
        spec = _tiny(name)
        first = bench_gen.write(*bench_gen.generate(spec, 7, name), tmp_path / "a")
        again = bench_gen.write(*bench_gen.generate(spec, 7, name), tmp_path / "b")
        other = bench_gen.write(*bench_gen.generate(spec, 8, name), tmp_path / "c")
        for x, y, z in zip(first, again, other):
            assert x.read_bytes() == y.read_bytes()
            assert x.read_bytes() != z.read_bytes()


@pytest.mark.parametrize("name", WORKLOADS)
def test_program_accepts_every_generated_page_and_claim(tmp_path, name):
    spec = bench_gen.WORKLOADS[name]
    dump, claims = bench_gen.generate(spec, 0, name)
    dump_path, claims_path = bench_gen.write(dump, claims, tmp_path)
    corpus, stats = ingest_dump(dump_path)
    assert (stats.lines_skipped, stats.records_skipped) == (0, 0)
    assert stats.documents == len(dump) >= spec.pages
    instances = load_claims(claims_path)
    assert len(instances) == spec.claims
    assert {i.label for i in instances} == set(bench_gen.LABELS)
    for inst in instances:
        for group in inst.evidence_sets:
            assert all(corpus.get_sentence(ref) for ref in group)


def test_entity_claims_carry_two_mentions_half_of_them_exact():
    dump, claims = bench_gen.generate(bench_gen.WORKLOADS["entity"], 0, "entity")
    from claimcheck.ner import extract_entities, normalize_title

    titles = {normalize_title(row["id"]) for row in dump}
    mentions = [m for c in claims for m in extract_entities(c["claim"])]
    assert len(mentions) == 2 * len(claims)
    exact = sum(normalize_title(m.surface) in titles for m in mentions)
    assert exact == len(mentions) // 2


def _schema(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[key]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = run.run_workload(ROOT, name, _tiny(name), seed=0, seconds=0.1,
                              trace=trace, expected=None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _schema("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        assert (values["ner.mentions"] == 0) == (name != "entity")
    else:
        assert all(v > 0 for v in values.values())


def test_recorded_digest_mismatch_is_a_failed_operation():
    result = run.run_workload(ROOT, "lexical", _tiny("lexical"), seed=0, seconds=0.1,
                              trace=False, expected={"predictions": "0" * 64,
                                                     "index": "0" * 64})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "entity", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_checker_flags_each_invalid_prediction_row():
    dump = [{"id": "Alpha_Page", "lines": "0\tA sentence.\n1\t"}]
    claims = [{"id": n} for n in (1, 2, 3, 4)]
    checker = run.Checker(dump, claims, None)
    rows = [
        {"id": 1, "predicted_label": "SUPPORTS", "predicted_evidence": [["Alpha_Page", 0]]},
        {"id": 2, "predicted_label": "MAYBE", "predicted_evidence": []},
        {"id": 3, "predicted_label": "REFUTES", "predicted_evidence": [["Alpha_Page", 1]]},
        {"id": 4, "predicted_label": "SUPPORTS",
         "predicted_evidence": [["Alpha_Page", 0]] * 6},
    ]
    assert checker.bad_rows(rows[:1]) == ["3 claims without a prediction row"]
    assert len(checker.bad_rows(rows)) == 3
