import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

from claimcheck import forest, ner
from claimcheck.corpus import Corpus, Document, ingest_dump
from claimcheck.nli_data import load_claims

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

WORDS = [
    "harbor", "light", "island", "strait", "ferry", "north", "south", "stone",
    "mill", "abbey", "tern", "reef", "chart", "captain", "storm", "winter",
    "lantern", "herring", "granite", "marsh", "jetty", "buoy", "bell", "coast",
    "keeper", "survey", "causeway", "shoal", "skerry", "regatta", "poem",
    "opera", "band", "album", "song", "museum", "painting", "novel", "film",
    "river", "town", "shore", "field", "club", "rock", "point", "deep",
    "count", "vane", "quay", "pilot", "night", "grey", "blue", "low", "iron",
]


def make_random_corpus(rng: np.random.Generator, max_docs: int = 100,
                       max_sents: int = 40, min_docs: int = 2) -> Corpus:
    """Small synthetic corpus with distinct page ids and random sentences."""
    corpus = Corpus()
    n_docs = int(rng.integers(min_docs, max_docs + 1))
    for i in range(n_docs):
        n_sents = int(rng.integers(1, max_sents + 1))
        sents = []
        for j in range(n_sents):
            n_words = int(rng.integers(3, 12))
            idx = rng.integers(0, len(WORDS), size=n_words)
            sents.append(" ".join(WORDS[w] for w in idx) + ".")
        corpus.add_document(Document(
            page_id=f"Page_{i:03d}",
            text=" ".join(sents),
            lines=dict(enumerate(sents)),
        ))
    return corpus


def levenshtein(a: str, b: str) -> int:
    """Edit distance of one pair, through the kernel that title matching runs."""
    return int(ner.edit_distances(*ner.code_points([a]), *ner.code_points([b]), [0], [0])[0])


def best_split(block, labels, n_classes=3) -> tuple:
    """(gain, column, threshold) of one node's (n, k) block, as a batch of one."""
    gains, columns, thresholds = forest.best_splits(
        block.T[np.newaxis], labels[np.newaxis], np.array([len(labels)]), n_classes)
    return float(gains[0]), int(columns[0]), float(thresholds[0])


def _normalized(raw) -> tuple:
    s, r = raw[0] / sum(raw), raw[1] / sum(raw)
    return s, r, max(0.0, 1.0 - s - r)


# (support, refute, uninformative) triples: exact ties, zeros (-0.0 too,
# which passes the [0, 1] check) and random ones
TRIPLES = st.sampled_from([
    (1 / 3, 1 / 3, 1 / 3), (0.4, 0.4, 0.2), (0.2, 0.4, 0.4), (0.4, 0.2, 0.4),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
    (-0.0, 0.5, 0.5), (0.5, -0.0, 0.5), (0.0, -0.0, 1.0), (0.7, 0.2, 0.1),
]) | st.tuples(*[st.floats(0, 1)] * 3).filter(lambda t: sum(t) > 0).map(_normalized)


@st.composite
def interleaved(draw, per_claim) -> tuple:
    """(claim index of each item, items): the items of per_claim[c], for every
    claim c, mixed in a drawn order that keeps each claim's own order."""
    owners = draw(st.permutations([c for c, items in enumerate(per_claim) for _ in items]))
    queues = [iter(items) for items in per_claim]
    return np.array(owners, dtype=np.int64), [next(queues[c]) for c in owners]


@pytest.fixture(scope="session")
def mini_corpus():
    corpus, _ = ingest_dump(DATA / "mini_wiki.jsonl")
    return corpus


@pytest.fixture(scope="session")
def mini_instances():
    return load_claims(DATA / "mini_claims.jsonl")
