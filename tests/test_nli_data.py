import json
from collections import Counter

import pytest

from claimcheck.corpus import Corpus, Document, SentenceRef
from claimcheck.nli_data import (
    NliExample,
    build_nli_dataset,
    load_claims,
    parse_claim_row,
    undersample,
    write_examples,
)


def one_doc_corpus(n_sentences=5):
    lines = [(i, f"sentence number {i} about things.") for i in range(n_sentences)]
    corpus = Corpus()
    corpus.add_document(Document("Only_Page", " ".join(s for _, s in lines), dict(lines)))
    return corpus


def make_instance(claim_id=1, label="SUPPORTS", refs=((("Only_Page", 0),),)):
    evidence = [[[100, 200 + j, page, line] for j, (page, line) in enumerate(group)]
                for group in refs]
    return parse_claim_row({"id": claim_id, "claim": "A thing happened.",
                            "label": label, "evidence": evidence})


class TestParsing:
    def test_four_tuple_and_pair_forms(self):
        inst = parse_claim_row({"id": 5, "claim": "c", "label": "SUPPORTS",
                                "evidence": [[[1, 2, "P", 0]], [["Q", 3]]]})
        assert inst.evidence_sets == ((SentenceRef("P", 0),), (SentenceRef("Q", 3),))

    def test_null_page_dropped(self):
        inst = parse_claim_row({"id": 6, "claim": "c", "label": "NOT ENOUGH INFO",
                                "evidence": [[[1, None, None, None]]]})
        assert inst.evidence_sets == ()

    def test_supports_without_evidence_rejected(self):
        with pytest.raises(ValueError, match="claim 7: label SUPPORTS but no grounded evidence"):
            parse_claim_row({"id": 7, "claim": "c", "label": "SUPPORTS",
                             "evidence": [[[1, None, None, None]]]})

    def test_load_fixture(self, mini_instances):
        assert len(mini_instances) == 30
        labels = Counter(i.label for i in mini_instances)
        assert labels == {"SUPPORTS": 11, "REFUTES": 10, "NOT ENOUGH INFO": 9}


class TestGeneration:
    def test_single_evidence_single_neutral(self):
        corpus = one_doc_corpus(5)
        examples, manifest = build_nli_dataset([make_instance()], corpus, seed=1)
        by_label = {e.label: e for e in examples}
        assert manifest["entailment"] == 1 and manifest["neutral"] == 1
        assert by_label["Entailment"].premise == "sentence number 0 about things."
        neutral = by_label["Neutral"]
        others = {f"sentence number {i} about things." for i in range(1, 5)}
        assert neutral.premise in others

    def test_refutes_maps_to_contradiction(self):
        corpus = one_doc_corpus(3)
        examples, _ = build_nli_dataset([make_instance(label="REFUTES")], corpus, seed=1)
        assert {e.label for e in examples} == {"Contradiction", "Neutral"}

    def test_nei_contributes_nothing(self):
        corpus = one_doc_corpus(3)
        nei = parse_claim_row({"id": 9, "claim": "c", "label": "NOT ENOUGH INFO",
                               "evidence": [[[1, None, None, None]]]})
        examples, manifest = build_nli_dataset([nei], corpus, seed=1)
        assert examples == [] and manifest["entailment"] == 0

    def test_multi_sentence_set_uses_first_only(self):
        corpus = one_doc_corpus(6)
        inst = make_instance(refs=((("Only_Page", 2), ("Only_Page", 4)),))
        examples, _ = build_nli_dataset([inst], corpus, seed=1)
        ent = [e for e in examples if e.label == "Entailment"]
        assert len(ent) == 1 and ent[0].origin == (1, "Only_Page", 2)
        # the second sentence of the set is still excluded from neutral picks
        neutral = [e for e in examples if e.label == "Neutral"]
        assert neutral[0].origin[2] not in (2, 4)

    def test_no_neutral_pool_skips_and_counts(self):
        corpus = one_doc_corpus(1)
        _, manifest = build_nli_dataset([make_instance()], corpus, seed=1)
        assert manifest["neutral"] == 0 and manifest["neutral_skipped"] == 1

    def test_unresolvable_evidence_names_instance(self):
        corpus = one_doc_corpus(2)
        inst = make_instance(claim_id=77, refs=((("Ghost_Page", 0),),))
        with pytest.raises(ValueError, match="claim 77"):
            build_nli_dataset([inst], corpus, seed=1)

    def test_neutral_never_in_any_evidence_set(self, mini_corpus, mini_instances):
        examples, _ = build_nli_dataset(mini_instances, mini_corpus, seed=13)
        by_id = {i.claim_id: i for i in mini_instances}
        neutrals = [e for e in examples if e.label == "Neutral"]
        assert neutrals
        for ex in neutrals:
            cid, page, line = ex.origin
            assert SentenceRef(page, line) not in by_id[cid].all_refs()

    def test_fixture_counts_and_skip(self, mini_corpus, mini_instances):
        _, manifest = build_nli_dataset(mini_instances, mini_corpus, seed=13)
        assert manifest["entailment"] == 18
        assert manifest["contradiction"] == 14
        assert manifest["neutral_skipped"] == 1  # the single-sentence page

    def test_regeneration_byte_identical(self, tmp_path, mini_corpus, mini_instances):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            examples, _ = build_nli_dataset(mini_instances, mini_corpus, seed=13)
            path = tmp_path / name
            write_examples(path, examples)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seed_changes_only_neutrals(self, mini_corpus, mini_instances):
        a, _ = build_nli_dataset(mini_instances, mini_corpus, seed=1)
        b, _ = build_nli_dataset(mini_instances, mini_corpus, seed=2)
        fixed_a = [e for e in a if e.label != "Neutral"]
        fixed_b = [e for e in b if e.label != "Neutral"]
        assert fixed_a == fixed_b


def ex(label, i):
    return NliExample(f"premise {i}", "hypothesis", label, (i, "P", i))


class TestUndersample:
    def test_cuts_to_minimum(self):
        examples = ([ex("Entailment", i) for i in range(10)] +
                    [ex("Contradiction", 100 + i) for i in range(4)] +
                    [ex("Neutral", 200 + i) for i in range(7)])
        out = undersample(examples, seed=3)
        assert Counter(e.label for e in out) == \
            {"Entailment": 4, "Contradiction": 4, "Neutral": 4}

    def test_balanced_input_identity_multiset(self):
        examples = ([ex("Entailment", i) for i in range(3)] +
                    [ex("Contradiction", 10 + i) for i in range(3)] +
                    [ex("Neutral", 20 + i) for i in range(3)])
        out = undersample(examples, seed=3)
        assert sorted(out, key=lambda e: e.origin) == \
            sorted(examples, key=lambda e: e.origin)

    def test_absent_class_empties_everything(self):
        examples = [ex("Entailment", 0)] + [ex("Neutral", i) for i in range(5)]
        assert undersample(examples, seed=1) == []

    def test_survivor_order_preserved(self):
        examples = ([ex("Entailment", i) for i in range(20)] +
                    [ex("Contradiction", 100 + i) for i in range(5)] +
                    [ex("Neutral", 200 + i) for i in range(9)])
        out = undersample(examples, seed=4)
        positions = [examples.index(e) for e in out]
        assert positions == sorted(positions)

    def test_empty_input(self):
        assert undersample([], seed=1) == []


def test_write_examples_shape(tmp_path):
    path = tmp_path / "out.jsonl"
    write_examples(path, [ex("Entailment", 1)])
    row = json.loads(path.read_text())
    assert row == {"premise": "premise 1", "hypothesis": "hypothesis",
                   "label": "Entailment", "origin": [1, "P", 1]}
