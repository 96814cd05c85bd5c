"""Traced in-process run of the pipeline, for the per-layer metrics.

Calls each layer's public functions from outside, in the order the CLI's
``ingest``, ``index`` and ``e2e`` subcommands call them, and records a span
around every call: name, start, end, parent span and claim id.  Spans and
counters stay in memory and are written as one JSON file when the run ends;
``run.py`` derives the per-layer metrics from that file.

    PYTHONPATH=src python3 perfbench/bench_trace.py --dump D --claims C \\
        --workdir W --spans W/spans.json --pred W/pred.json
"""

import argparse
import json
import time
from contextlib import contextmanager
from pathlib import Path

from claimcheck import features, forest, metrics, ner, tfidf
from claimcheck.corpus import Corpus, ingest_dump
from claimcheck.entailment import BaselineScorer, score_candidates
from claimcheck.metrics import GoldInstance
from claimcheck.nli_data import load_claims
from claimcheck.tokenizer import hashed_counts, tokenize
from claimcheck.verdict import assemble


class Tracer:
    """Spans and counters, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    @contextmanager
    def span(self, name: str, claim=None):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "claim": claim}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": self.spans, "counters": self.counters}, fp)


def _count_sentence_index_builds(tracer: Tracer) -> None:
    """Count the bigram-only index builds the sentence route makes per claim."""
    build = tfidf.TfidfIndex.build

    def counting_build(items, bin_count, ngram_orders, source_checksum=""):
        if tuple(ngram_orders) == (2,):
            tracer.count("tfidf.sent_index_builds")
            tracer.count("tfidf.sent_items_hashed", len(items))
        return build(items, bin_count, ngram_orders, source_checksum)

    tfidf.TfidfIndex.build = staticmethod(counting_build)


def _retrieve(tracer, corpus, index, matcher, inst) -> list:
    """Entity route plus TF-IDF route for one claim, as the CLI unions them."""
    cid = inst.claim_id
    with tracer.span("ner.extract", cid):
        mentions = ner.extract_entities(inst.claim)
    pages = set()
    for mention in mentions:
        with tracer.span("ner.match", cid):
            hit = matcher.match(mention)
        tracer.count("ner.mentions")
        tracer.count("ner.exact", hit.distance == 0)
        pages.add(hit.page_id)
    entity = set()
    for page_id in pages:
        entity.update(corpus.get(page_id).non_empty_refs())

    with tracer.span("tfidf.doc_query", cid):
        hits = tfidf.top_k_documents(index, inst.claim, k=5)
    docs = [corpus.get(hit.item) for hit in hits]
    with tracer.span("tfidf.sent_query", cid):
        sent_hits = tfidf.top_k_sentences(docs, inst.claim, k=5,
                                          bin_count=index.bin_count)
    lexical = {hit.item for hit in sent_hits}

    tracer.count("retrieve.cands_entity_only", len(entity - lexical))
    tracer.count("retrieve.cands_tfidf_only", len(lexical - entity))
    tracer.count("retrieve.cands_both", len(entity & lexical))
    return sorted(entity | lexical)


def run(dump, claims, workdir, tracer: Tracer) -> list:
    """The three CLI steps in one process; returns the prediction rows."""
    workdir = Path(workdir)
    corpus_path, index_path = workdir / "corpus.json.gz", workdir / "index.npz"
    _count_sentence_index_builds(tracer)

    with tracer.span("cli.ingest"):
        with tracer.span("corpus.ingest"):
            corpus, _ = ingest_dump(dump)
        with tracer.span("corpus.save"):
            corpus.save(corpus_path)

    with tracer.span("cli.index"):
        with tracer.span("corpus.load"):
            corpus = Corpus.load(corpus_path)
        with tracer.span("tfidf.build"):
            index = tfidf.build_document_index(corpus)
        with tracer.span("tfidf.save"):
            index.save(index_path)

    with tracer.span("cli.e2e"):
        with tracer.span("corpus.load"):
            corpus = Corpus.load(corpus_path)
        with tracer.span("nli_data.load_claims"):
            instances = load_claims(claims)
        with tracer.span("tfidf.load"):
            index = tfidf.TfidfIndex.load(index_path)
        with tracer.span("ner.matcher_init"):
            matcher = ner.TitleMatcher(corpus)

        cands = {}
        with tracer.span("retrieve"):
            for inst in instances:
                with tracer.span("retrieve.claim", inst.claim_id):
                    cands[inst.claim_id] = _retrieve(tracer, corpus, index, matcher, inst)

        scorer = BaselineScorer()
        scored, fvs = {}, {}
        for inst in instances:
            cid = inst.claim_id
            with tracer.span("entailment.score", cid):
                scored[cid] = score_candidates(scorer, cid, inst.claim, cands[cid], corpus)
            tracer.count("entailment.pairs", len(scored[cid]))
            with tracer.span("features", cid):
                fvs[cid] = features.features(scored[cid])

        with tracer.span("forest.train"):
            sampled = forest.sample_training_claims(instances, seed=0)
            samples = [forest.TrainingSample(fvs[i.claim_id], i.label) for i in sampled]
            model = forest.train(samples, forest.ForestConfig())
        tracer.count("forest.train_samples", len(samples))

        verdicts = []
        for inst in instances:
            cid = inst.claim_id
            with tracer.span("forest.predict", cid):
                label, _ = model.predict(fvs[cid])
            with tracer.span("verdict.assemble", cid):
                verdict = assemble(cid, label, scored[cid])
            tracer.count("verdict.overrides", verdict.override_applied)
            verdicts.append(verdict)

        with tracer.span("metrics.score"):
            gold = [GoldInstance(i.claim_id, i.label,
                                 tuple(frozenset(g) for g in i.evidence_sets))
                    for i in instances]
            metrics.score(gold, verdicts)

    with open(dump, encoding="utf-8") as fp:
        texts = [json.loads(line)["text"] for line in fp]
    ngrams = 0
    with tracer.span("tokenizer.hash"):
        for text in texts:
            tokens = tokenize(text)
            hashed_counts(tokens, (1, 2), tfidf.DEFAULT_BIN_COUNT)
            ngrams += len(tokens) + max(len(tokens) - 1, 0)
    tracer.count("tokenizer.ngrams", ngrams)
    return [v.to_row() for v in verdicts]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("--claims", required=True)
    parser.add_argument("--workdir", required=True, help="where corpus and index go")
    parser.add_argument("--spans", required=True, help="spans and counters JSON out")
    parser.add_argument("--pred", required=True, help="prediction rows JSON out")
    args = parser.parse_args(argv)
    tracer = Tracer()
    rows = run(args.dump, args.claims, args.workdir, tracer)
    tracer.dump(args.spans)
    with open(args.pred, "w", encoding="utf-8") as fp:
        json.dump(rows, fp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
