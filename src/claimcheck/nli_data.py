"""SNLI-style example generation from labeled claims.

SUPPORTS and REFUTES claims yield Entailment and Contradiction pairs with
the evidence sentence as premise and the claim as hypothesis; only the
first sentence of a multi-sentence evidence set is used.  Each such pair
gets one sibling Neutral pair whose premise is drawn uniformly from the
same document, excluding every sentence referenced by any of the claim's
evidence sets; when no such sentence exists the Neutral pair is skipped
and counted.  Identical (premise, hypothesis, label) triples are collapsed
into the first example made of them, and the manifest counts the examples
kept per class.  All randomness is derived from (seed, claim id), so
regeneration with the same seed is byte-identical and a claim's Neutral
picks do not depend on the other claims or their order.
"""

import random
from collections import Counter
from typing import NamedTuple

from . import LABELS
from .corpus import Corpus, SentenceRef
from .rows import parse_table, scalar_field, write_rows

NLI_LABELS = ("Entailment", "Contradiction", "Neutral")
_CLAIM_LABEL_TO_NLI = {"SUPPORTS": "Entailment", "REFUTES": "Contradiction"}


class FeverInstance(NamedTuple):
    claim_id: int | str
    claim: str
    label: str
    evidence_sets: tuple  # of tuple[SentenceRef, ...]

    def all_refs(self) -> set:
        return {ref for group in self.evidence_sets for ref in group}


class NliExample(NamedTuple):
    premise: str
    hypothesis: str
    label: str
    origin: tuple  # (claim_id, page_id, line_number)

    def to_row(self) -> dict:
        """Keys in sorted order, so the written rows are canonical."""
        return {
            "hypothesis": self.hypothesis,
            "label": self.label,
            "origin": list(self.origin),
            "premise": self.premise,
        }


def _parse_evidence(raw) -> tuple:
    """FEVER evidence arrays: groups of [ann_id, ev_id, page, line] or [page, line]."""
    if not isinstance(raw, list) or not all(isinstance(group, list) for group in raw):
        raise ValueError(f"evidence {raw!r} is not a list of lists")
    groups = []
    for group in raw:
        refs = []
        for item in group:
            if not isinstance(item, list) or len(item) not in (2, 4):
                raise ValueError(f"malformed evidence item {item!r}")
            page, line = item[-2:]
            if page is None:
                continue  # annotation without a grounded sentence
            if not isinstance(page, str) or type(line) is not int:
                raise ValueError(f"evidence item {item!r} is not [..., page_id, line]")
            refs.append(SentenceRef(page, line))
        if refs:
            groups.append(tuple(refs))
    return tuple(groups)


def parse_claim_row(row: dict) -> FeverInstance:
    claim_id, claim, label = scalar_field(row, "id"), row["claim"], row["label"]
    if not isinstance(claim, str):
        raise ValueError(f"claim {claim!r} is not a string")
    if label not in LABELS:
        raise ValueError(f"unknown label {label!r}")
    evidence = row.get("evidence")
    evidence_sets = _parse_evidence([] if evidence is None else evidence)
    if label in _CLAIM_LABEL_TO_NLI and not evidence_sets:
        raise ValueError(f"claim {claim_id}: label {label} but no grounded evidence")
    return FeverInstance(claim_id, claim, label, evidence_sets)


def load_claims(path) -> list[FeverInstance]:
    """The claims of a JSON-lines file; a malformed row or a repeated id names its line."""

    def parse(row):
        instance = parse_claim_row(row)
        return instance.claim_id, instance

    return list(parse_table(path, "claim", "claim id", parse).values())


def _resolve(corpus: Corpus, ref: SentenceRef, claim_id) -> str:
    text = corpus.get_sentence(ref)
    if not text:
        raise ValueError(
            f"claim {claim_id}: evidence ({ref.page_id!r}, {ref.line_number}) "
            "does not resolve to a non-empty corpus sentence"
        )
    return text


def build_nli_dataset(instances, corpus: Corpus, seed: int):
    """(examples, manifest): the examples kept, in the order they were made,
    and their per-class counts with the Neutral pairs skipped and the
    duplicates removed."""
    kept = {}  # (premise, hypothesis, label) -> the first NliExample made of it
    neutral_skipped = duplicates = 0

    def keep(example):
        nonlocal duplicates
        if example[:3] in kept:
            duplicates += 1
        else:
            kept[example[:3]] = example

    for inst in instances:
        nli_label = _CLAIM_LABEL_TO_NLI.get(inst.label)
        if nli_label is None:
            continue
        rng = random.Random(f"{seed}:{inst.claim_id}")
        excluded = inst.all_refs()
        for ref in dict.fromkeys(group[0] for group in inst.evidence_sets):
            keep(NliExample(_resolve(corpus, ref, inst.claim_id), inst.claim, nli_label,
                            (inst.claim_id, *ref)))
            doc = corpus.get(ref.page_id)
            pool = [r for r in doc.non_empty_refs() if r not in excluded]
            if not pool:
                neutral_skipped += 1
                continue
            pick = pool[rng.randrange(len(pool))]
            keep(NliExample(doc.sentence(pick.line_number), inst.claim, "Neutral",
                            (inst.claim_id, *pick)))

    counts = Counter(ex.label for ex in kept.values())
    manifest = {label.lower(): counts[label] for label in NLI_LABELS}
    manifest.update(neutral_skipped=neutral_skipped, duplicates_removed=duplicates)
    return list(kept.values()), manifest


def undersample(examples, seed: int) -> list:
    """Cut every class to the smallest class count, preserving order."""
    per_label = {label: [] for label in NLI_LABELS}
    for i, ex in enumerate(examples):
        per_label[ex.label].append(i)
    m = min(len(v) for v in per_label.values())
    rng = random.Random(seed)
    keep = set()
    for label in NLI_LABELS:
        idx = per_label[label]
        keep.update(idx[j] for j in sorted(rng.sample(range(len(idx)), m)))
    return [ex for i, ex in enumerate(examples) if i in keep]


def write_examples(path, examples) -> None:
    write_rows(path, (ex.to_row() for ex in examples))
