"""Command-line pipeline: ingest, index, retrieve, gen-nli, features, train,
predict, score, and an e2e subcommand that chains the stages in memory.
Each stage is one function, shared by e2e and the staged subcommands.

All randomness flows from explicit --seed flags; reruns with identical
inputs and seeds produce byte-identical output files.

Start-up is most of a small run's time, so this module's level imports only
the standard library and the numpy-free ``rows`` and ``corpus``, and each
function imports the stage modules it runs: ``ingest`` and ``score`` load
no numpy, ``index`` only ``tfidf`` and what it imports, and ``e2e`` every
stage module.

The process entry, ``entry``, owns the process; ``main`` runs one
subcommand and changes neither the environment nor the collector's state.
``entry`` sets ``OPENBLAS_NUM_THREADS`` to 1, unless the caller set it,
before any stage module imports numpy. OpenBLAS reads it once, when numpy
loads, and otherwise starts a worker thread per extra CPU, which spin-waits
and takes CPU from the main thread. No stage calls a BLAS routine
(``tests/test_reach.py`` fails on one), so the pool does no work: on a
2-vCPU x86 machine, one thread cut the CPU and the wall time of a cold
``e2e`` on the ``entity`` workload by about a sixth. Only the process entry
sets it; a program that imports ``claimcheck`` as a library, or calls
``main``, keeps its own BLAS threads.

``entry`` then runs ``main`` with the cyclic garbage collector off. A run
makes no cyclic garbage that grows with its input: with the collector off,
``gc.collect()`` after a run on ``data/`` finds 491 objects for ``ingest``,
837 for ``index`` and 958 for ``e2e``, as many as on a copy four times its
size (``tests/test_cli.py`` holds this), while with it on an ``e2e`` on the
``entity`` workload set off 39 collections (5-7 ms), about 31 of them as
the stage modules imported. ``entry`` also freezes the heap before the
interpreter shuts down, so that the shutdown's final collection has nothing
to traverse: that ``e2e`` then took 5.2-5.7 ms from ``main``'s return to
its exit, against 20-24 ms spent mostly collecting over numpy's and the
standard library's objects (2-vCPU x86 machine, ten runs each).
"""

import argparse
import gc
import logging
import os
import sys
from collections import Counter
from pathlib import Path

from . import DEFAULT_BIN_COUNT, DEFAULT_CLASS_COUNTS, rows
from .corpus import Corpus, SentenceRef, ingest_dump, read_saved

log = logging.getLogger("claimcheck")

K_DOCS = 5  # documents per claim from the TF-IDF route
K_SENTS = 5  # sentences kept from those documents


def _is_saved_corpus(path) -> bool:
    """Whether path is a saved corpus file (gzip magic bytes), not a raw dump."""
    if not Path(path).is_file():
        return False
    with open(path, "rb") as fh:
        return fh.read(2) == b"\x1f\x8b"


def load_corpus_any(path) -> Corpus:
    """A saved corpus file, else a raw JSON-lines dump."""
    if _is_saved_corpus(path):
        return Corpus.load(path)
    corpus, _ = ingest_dump(path)
    return corpus


def _make_extractor(args):
    from . import ner
    return None if args.ner_file is None else ner.FileEntityExtractor.load(args.ner_file)


def _make_scorer(args):
    from .entailment import BaselineScorer, FileScorer
    return BaselineScorer() if args.prob_file is None else FileScorer.load(args.prob_file)


def _forest_config(args) -> tuple:
    """(ForestConfig, per-class sample counts) from the training flags."""
    from .forest import ForestConfig
    try:
        counts = tuple(int(c) for c in args.sample_counts.split(","))
    except ValueError:
        counts = ()
    if len(counts) != 3 or any(c < 0 for c in counts):
        raise ValueError("--sample-counts needs three non-negative integers, "
                         f"got {args.sample_counts!r}")
    return ForestConfig(trees=args.trees, max_depth=args.max_depth, seed=args.seed), counts


# -- stages ------------------------------------------------------------------


def retrieve_candidates(corpus, index, instances, *, extractor=None) -> tuple:
    """(table, claims, rows): the union of the entity route and the TF-IDF
    route, as pairs of claim index (into instances) and row of the run's one
    sentence table, claim by claim and rows ascending within a claim.  Both
    routes pick pages, and the table holds every picked page."""
    import numpy as np

    from . import ner, tfidf
    claim_texts = [inst.claim for inst in instances]
    docs, empty_queries = tfidf.top_documents(index, claim_texts, K_DOCS)
    lexical_pages = [sorted(hit.item for hit in hits) for hits in docs]
    entity_pages, matching = ner.matched_pages(corpus, [
        ner.claim_mentions(inst.claim, extractor=extractor, claim_id=inst.claim_id)
        for inst in instances])
    table = corpus.sentence_table(set().union(*lexical_pages, *entity_pages))
    lexical = tfidf.sentence_route(table.texts,
                                   [[table.spans[p] for p in ps] for ps in lexical_pages],
                                   claim_texts, index.bin_count, K_SENTS)
    # each pair as the key claim * n + row, n the table's row count
    n = max(len(table.texts), 1)
    first, count = np.array([table.spans[p] for ps in entity_pages for p in ps],
                            dtype=np.int64).reshape(-1, 2).T
    entity = (np.repeat(np.arange(len(instances), dtype=np.int64) * n,
                        list(map(len, entity_pages))).repeat(count)
              + tfidf.concat_ranges(first, count))
    found = np.array([c * n + hit.item for c, hits in enumerate(lexical) for hit in hits],
                     dtype=np.int64)
    # their union, as np.union1d gives it without loading numpy.ma
    keys = np.sort(np.concatenate([entity, found]))
    claims, rows = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    both = entity.size + found.size - claims.size
    n_claims = max(len(instances), 1)
    log.info("retrieved candidates for %d claims (%.1f sentences/claim)",
             len(instances), claims.size / n_claims)
    log.info("%d claims had an empty TF-IDF query; sentences/claim: %.1f entity route only, "
             "%.1f TF-IDF only, %.1f both", empty_queries,
             (entity.size - both) / n_claims, (found.size - both) / n_claims, both / n_claims)
    distances = matching.distances
    log.info("matched %d mentions to titles (%d exact) with %d edit distances in %d rounds; "
             "mentions by match distance: %s", distances.total(), distances[0],
             matching.verified, matching.rounds, dict(sorted(distances.items())))
    return table, claims, rows


def score_claims(scorer, instances, table, claims, rows) -> tuple:
    """(scored pairs, feature matrix) of the pairs of claim instances[claims[i]]
    and table row rows[i]; matrix row c is instances[c]'s."""
    from .entailment import score_pairs
    from .features import feature_matrix
    pairs = score_pairs(scorer, instances, table, claims, rows)
    X = feature_matrix(pairs.claims, pairs.triples, len(instances))
    log.info("scored %d candidate pairs over %d claims (%d all-uninformative)",
             pairs.claims.size, len(instances),
             int(((X[:, 0] == 0) & (X[:, 1] == 0)).sum()))
    return pairs, X


def train_model(instances, X, config, counts) -> tuple:
    """(forest, number of training claims) from a per-class sample of the
    claims, feature matrix row i being instances[i]'s."""
    from . import forest
    sampled = forest.sample_training_claims(instances, seed=config.seed, counts=counts)
    row_of = {inst.claim_id: r for r, inst in enumerate(instances)}
    model = forest.fit(X[[row_of[inst.claim_id] for inst in sampled]],
                       [inst.label for inst in sampled], config)
    log.info("%s", trained_summary(model, len(sampled)))
    return model, len(sampled)


def trained_summary(model, n_samples: int) -> str:
    return (f"trained {model.config.trees} trees ({model.node_count} nodes, "
            f"depth {model.depth}) on {n_samples} claims")


def write_predictions(path, instances, X, pairs, model) -> list:
    """Label each claim, assemble its evidence and write the prediction rows;
    feature matrix row i and pair claim index i are instances[i]'s."""
    from .verdict import assemble_all
    labels, _ = model.predict_all(X)
    verdicts = assemble_all([inst.claim_id for inst in instances], labels, pairs)
    log.info("assembled %d verdicts (%d overrides to NOT ENOUGH INFO)",
             len(verdicts), sum(v.override_applied for v in verdicts))
    rows.write_rows(path, (v.to_row() for v in verdicts))
    print(f"wrote {len(verdicts)} predictions -> {path}")
    return verdicts


def report_scores(instances, verdicts, json_path) -> None:
    """Print the score table against the gold claims; also save it as JSON if asked."""
    from . import metrics
    gold = [metrics.GoldInstance(i.claim_id, i.label, tuple(frozenset(g) for g in i.evidence_sets))
            for i in instances]
    report = metrics.score(gold, verdicts)
    print(report.format_table())
    if json_path:
        rows.write_json(json_path, report.to_dict())


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    corpus, stats = ingest_dump(args.dump)
    corpus.save(args.out)
    print(f"ingested {stats.documents} documents "
          f"({stats.lines_skipped} lines skipped, "
          f"{stats.records_skipped} records skipped) -> {args.out}")
    return 0


def cmd_index(args) -> int:
    from . import tfidf
    if _is_saved_corpus(args.corpus):  # streamed: no page is kept once it is hashed
        index = tfidf.index_pages(*read_saved(args.corpus), bin_count=args.bins)
    else:
        index = tfidf.build_document_index(ingest_dump(args.corpus)[0], bin_count=args.bins)
    index.save(args.out)
    print(f"indexed {index.item_count} documents into {args.bins} bins -> {args.out}")
    return 0


def _load_index(args, corpus):
    from . import tfidf
    if not args.index:
        return tfidf.build_document_index(corpus, bin_count=args.bins)
    index = tfidf.TfidfIndex.load(args.index)
    if (index.source_checksum != tfidf.corpus_checksum(corpus.source_checksums)
            or index.item_ids != corpus.page_ids()):
        raise ValueError(f"index {args.index} was built from a different corpus than "
                         f"{args.corpus}; rebuild it with 'claimcheck index'")
    if index.ngram_orders != tfidf.DOC_NGRAM_ORDERS:
        raise ValueError(f"index {args.index} holds n-gram orders {list(index.ngram_orders)}, "
                         f"not a document index's {list(tfidf.DOC_NGRAM_ORDERS)}")
    return index


def cmd_retrieve(args) -> int:
    from .nli_data import load_claims
    corpus = load_corpus_any(args.corpus)
    instances = load_claims(args.claims)
    index = _load_index(args, corpus)
    table, claims, sentences = retrieve_candidates(corpus, index, instances,
                                                   extractor=_make_extractor(args))
    refs = [ref.as_pair() for ref in table.refs(sentences)]
    ends = [0, *claims.searchsorted(range(len(instances)), side="right").tolist()]
    rows.write_rows(args.out, ({"id": inst.claim_id, "candidates": refs[ends[c]:ends[c + 1]]}
                               for c, inst in enumerate(instances)))
    print(f"wrote candidates for {len(instances)} claims -> {args.out}")
    return 0


def cmd_gen_nli(args) -> int:
    from . import nli_data
    corpus = load_corpus_any(args.corpus)
    instances = nli_data.load_claims(args.claims)
    examples, generated = nli_data.build_nli_dataset(instances, corpus, seed=args.seed)
    balanced = nli_data.undersample(examples, seed=args.seed)
    counts = Counter(ex.label for ex in balanced)
    manifest = {"seed": args.seed, "generated": generated,
                "balanced": {label.lower(): counts[label] for label in nli_data.NLI_LABELS}}
    nli_data.write_examples(args.out, balanced)
    rows.write_json(args.manifest, manifest)
    log.info("generated %d examples, kept %d after balancing",
             len(examples), len(balanced))
    print(f"wrote {len(balanced)} balanced examples -> {args.out} "
          f"(manifest -> {args.manifest})")
    return 0


def cmd_features(args) -> int:
    from .corpus import table_of_refs
    from .entailment import triple_rows
    from .nli_data import load_claims
    corpus = load_corpus_any(args.corpus)
    by_id = {inst.claim_id: inst for inst in load_claims(args.claims)}

    def parse(row):
        claim_id = rows.scalar_field(row, "id")
        if claim_id not in by_id:
            raise ValueError(f"unknown claim id {claim_id!r}")
        refs = [SentenceRef(*rows.sentence_ref(p, l)) for p, l in row["candidates"]]
        seen = set()
        for ref in refs:
            if not corpus.get_sentence(ref):
                raise ValueError(f"candidate {ref.as_pair()!r} is not a non-empty "
                                 "sentence of the corpus")
            if ref in seen:
                raise ValueError(f"repeated candidate {ref.as_pair()!r}")
            seen.add(ref)
        return claim_id, (by_id[claim_id], refs)

    by_claim = rows.parse_table(args.candidates, "candidates", "claim id", parse)
    instances = [inst for inst, _ in by_claim.values()]
    table, sentences = table_of_refs([ref for _, refs in by_claim.values() for ref in refs],
                                     corpus.get_sentence)
    claims = [c for c, (_, refs) in enumerate(by_claim.values()) for _ in refs]
    pairs, _ = score_claims(_make_scorer(args), instances, table, claims, sentences)
    rows.write_rows(args.out, triple_rows([i.claim_id for i in instances], pairs))
    print(f"wrote {len(sentences)} scored rows of {len(instances)} claims -> {args.out}")
    return 0


def _read_scored_rows(path, instances) -> tuple:
    """(scored pairs, feature matrix) of instances from a scored-row file,
    each pair's claim index pointing into instances; rows of other claims are
    left out, and a claim without rows gets the all-zero feature row.  Pairs
    are sorted by (claim index, page, line), the order e2e scores them in, so
    the summed features keep e2e's bits whatever the file's row order."""
    import numpy as np

    from .corpus import table_of_refs
    from .entailment import ScoredPairs, read_scored
    from .features import feature_matrix
    index_of = {inst.claim_id: c for c, inst in enumerate(instances)}
    kept = sorted((index_of[claim_id], page, line, triple)
                  for (claim_id, page, line), triple in read_scored(path).items()
                  if claim_id in index_of)
    table, sentences = table_of_refs([(page, line) for _, page, line, _ in kept])
    pairs = ScoredPairs(np.array([c for c, *_ in kept], dtype=np.int64),
                        np.array(sentences, dtype=np.int64),
                        np.array([t for *_, t in kept], dtype=np.float64).reshape(-1, 3),
                        table)
    return pairs, feature_matrix(pairs.claims, pairs.triples, len(instances))


def cmd_train(args) -> int:
    from . import forest
    from .nli_data import load_claims
    config, counts = _forest_config(args)
    instances = load_claims(args.claims)
    _, X = _read_scored_rows(args.scored, instances)
    model, n_samples = train_model(instances, X, config, counts)
    forest.save(model, args.out)
    print(f"{trained_summary(model, n_samples)} -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    from . import forest
    from .nli_data import load_claims
    instances = load_claims(args.claims)
    pairs, X = _read_scored_rows(args.scored, instances)
    write_predictions(args.out, instances, X, pairs, forest.load(args.model))
    return 0


def cmd_score(args) -> int:
    from .metrics import prediction_from_row
    from .nli_data import load_claims
    instances = load_claims(args.gold)
    gold_ids = {inst.claim_id for inst in instances}

    def parse(row):
        prediction = prediction_from_row(row)
        if prediction.claim_id not in gold_ids:
            raise ValueError(f"unknown claim id {prediction.claim_id!r}")
        return prediction.claim_id, prediction

    predictions = rows.parse_table(args.pred, "prediction", "claim id", parse)
    report_scores(instances, list(predictions.values()), args.json_out)
    return 0


def cmd_e2e(args) -> int:
    from . import forest
    from .nli_data import load_claims
    config, counts = _forest_config(args)
    corpus = load_corpus_any(args.corpus)
    instances = load_claims(args.claims)
    index = _load_index(args, corpus)
    candidates = retrieve_candidates(corpus, index, instances, extractor=_make_extractor(args))
    pairs, X = score_claims(_make_scorer(args), instances, *candidates)
    if args.model:
        model = forest.load(args.model)
    else:
        model, _ = train_model(instances, X, config, counts)
    verdicts = write_predictions(args.out, instances, X, pairs, model)
    report_scores(instances, verdicts, args.report)
    return 0


# -- argument parsing --------------------------------------------------------


def _add_retrieval_flags(p):
    p.add_argument("--index", help="saved index file (otherwise built in memory)")
    p.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT,
                   help="hash bins when building in memory (default %(default)s)")
    p.add_argument("--ner-file",
                   help="JSON-lines {id, entities} annotations (otherwise heuristic NER)")


def _add_scorer_flags(p):
    p.add_argument("--prob-file",
                   help="JSON-lines entailment probabilities (otherwise the baseline scorer)")


def _add_train_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--sample-counts", default=",".join(map(str, DEFAULT_CLASS_COUNTS)),
                   help="per-class claim sample sizes (SUPPORTS,REFUTES,NEI; "
                        "default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Claim verification pipeline over a sentence-segmented corpus.")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a JSON-lines dump into a corpus file")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build and save the document TF-IDF index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT,
                   help="hash bins (default %(default)s)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="collect candidate sentences per claim")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--out", required=True)
    _add_retrieval_flags(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("gen-nli", help="build the balanced NLI example file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_nli)

    p = sub.add_parser("features", help="score candidates into per-candidate probability rows")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--candidates", required=True, help="retrieve output")
    p.add_argument("--out", required=True)
    _add_scorer_flags(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the forest on the features of scored rows")
    p.add_argument("--claims", required=True)
    p.add_argument("--scored", required=True, help="per-candidate probability rows")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label claims and assemble evidence")
    p.add_argument("--claims", required=True)
    p.add_argument("--scored", required=True, help="per-candidate probability rows")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("score", help="score a prediction file against gold claims")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("e2e", help="run the whole pipeline on a claims file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", help="saved model (otherwise trained in memory)")
    p.add_argument("--report", help="write the score report as JSON")
    _add_retrieval_flags(p)
    _add_scorer_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_e2e)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the environment and the collector stay as the
    caller has them."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry, of ``python -m claimcheck.cli`` and of the
    ``claimcheck`` command: OpenBLAS held to one thread, then main on
    sys.argv with the collector left off, then the heap frozen, so that the
    interpreter's collections at shutdown have nothing to traverse."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before a stage imports numpy
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
