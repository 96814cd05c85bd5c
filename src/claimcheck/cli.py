"""Command-line pipeline: ingest, index, retrieve, gen-nli, features, train,
predict, score, and an e2e subcommand that chains the stages in memory.
Each stage is one function, shared by e2e and the staged subcommands.

All randomness flows from explicit --seed flags; reruns with identical
inputs and seeds produce byte-identical output files.
"""

import argparse
import logging
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import features as features_mod
from . import forest, metrics, ner, nli_data, rows, tfidf
from .corpus import Corpus, SentenceRef, ingest_dump
from .entailment import (BaselineScorer, FileScorer, ScoredPairs, score_pairs,
                         triple_from_row, triple_rows)
from .forest import ForestConfig
from .metrics import GoldInstance
from .nli_data import load_claims
from .verdict import assemble_all, prediction_from_row

log = logging.getLogger("claimcheck")

K_DOCS = 5  # documents per claim from the TF-IDF route
K_SENTS = 5  # sentences kept from those documents


def load_corpus_any(path) -> Corpus:
    """A saved corpus file (gzip magic bytes), else a raw JSON-lines dump."""
    if Path(path).is_file():
        with open(path, "rb") as fh:
            if fh.read(2) == b"\x1f\x8b":
                return Corpus.load(path)
    corpus, _ = ingest_dump(path)
    return corpus


def _make_extractor(args):
    return None if args.ner_file is None else ner.FileEntityExtractor.load(args.ner_file)


def _make_scorer(args):
    return BaselineScorer() if args.prob_file is None else FileScorer.load(args.prob_file)


def _forest_config(args) -> tuple:
    """(ForestConfig, per-class sample counts) from the training flags."""
    try:
        counts = tuple(int(c) for c in args.sample_counts.split(","))
    except ValueError:
        counts = ()
    if len(counts) != 3 or any(c < 0 for c in counts):
        raise ValueError("--sample-counts needs three non-negative integers, "
                         f"got {args.sample_counts!r}")
    return ForestConfig(trees=args.trees, max_depth=args.max_depth, seed=args.seed), counts


# -- stages ------------------------------------------------------------------


def retrieve_candidates(corpus, index, instances, *, extractor=None):
    """Union of the entity route and the TF-IDF route, per claim."""
    lexical, empty_queries = tfidf.top_k_sentences_batch(
        corpus, index, [inst.claim for inst in instances], k_docs=K_DOCS, k_sents=K_SENTS)
    mentions = [ner.claim_mentions(inst.claim, extractor=extractor, claim_id=inst.claim_id)
                for inst in instances]
    # built only when a mention needs it, and not held through the TF-IDF
    # routes' peak memory
    matcher = ner.TitleMatcher(corpus) if any(mentions) else None
    out = {}
    entity_only = tfidf_only = both = 0
    for inst, mentioned, hits in zip(instances, mentions, lexical):
        entity = set(ner.mention_sentences(corpus, mentioned, matcher))
        found = {hit.item for hit in hits}
        entity_only += len(entity - found)
        tfidf_only += len(found - entity)
        both += len(entity & found)
        out[inst.claim_id] = sorted(entity | found)
    claims = max(len(out), 1)
    log.info("retrieved candidates for %d claims (%.1f sentences/claim)",
             len(out), (entity_only + tfidf_only + both) / claims)
    log.info("%d claims had an empty TF-IDF query; sentences/claim: %.1f entity route only, "
             "%.1f TF-IDF only, %.1f both", empty_queries, entity_only / claims,
             tfidf_only / claims, both / claims)
    distances = matcher.distances if matcher else Counter()
    log.info("matched %d mentions to titles (%d exact); mentions by match distance: %s",
             distances.total(), distances[0], dict(sorted(distances.items())))
    return out


def score_claims(scorer, corpus, instances, candidates) -> tuple:
    """(scored pairs, feature matrix, candidate counts) of claims instances[i]
    with candidate refs candidates[i]; matrix row i is instances[i]'s."""
    pairs = score_pairs(scorer, instances, candidates, corpus)
    X, n = features_mod.feature_matrix(pairs.claims, pairs.triples, len(instances))
    log.info("scored %d candidate pairs over %d claims (%d all-uninformative)",
             len(pairs.refs), len(instances), int(((X[:, 0] == 0) & (X[:, 1] == 0)).sum()))
    return pairs, X, n


def train_model(instances, X, config, counts) -> tuple:
    """(forest, number of training claims) from a per-class sample of the
    claims, feature matrix row i being instances[i]'s."""
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
    labels, _ = model.predict_all(X)
    verdicts = assemble_all([inst.claim_id for inst in instances], labels, pairs)
    log.info("assembled %d verdicts (%d overrides to NOT ENOUGH INFO)",
             len(verdicts), sum(v.override_applied for v in verdicts))
    rows.write_rows(path, (v.to_row() for v in verdicts))
    print(f"wrote {len(verdicts)} predictions -> {path}")
    return verdicts


def report_scores(instances, verdicts, json_path) -> None:
    """Print the score table against the gold claims; also save it as JSON if asked."""
    gold = [GoldInstance(i.claim_id, i.label, tuple(frozenset(g) for g in i.evidence_sets))
            for i in instances]
    report = metrics.score(gold, verdicts)
    print(report.format_table())
    if json_path:
        rows.write_json(json_path, report.to_dict())


def _feature_row(claim_id, values, n) -> dict:
    row = {"claim_id": claim_id, "n": n}
    row.update(zip(features_mod.FEATURE_NAMES, values))
    return row


def _features_from_row(row):
    values = [float(rows.number_field(row, name)) for name in features_mod.FEATURE_NAMES]
    if not all(map(math.isfinite, values)):
        raise ValueError("feature values must be finite")
    return rows.scalar_field(row, "claim_id"), (values, rows.number_field(row, "n", count=True))


def _read_feature_rows(path, instances) -> tuple:
    """(feature matrix, list of candidate counts n) of instances, row i and
    count i from instances[i]'s feature row."""
    by_id = rows.parse_table(path, "feature", "claim id", _features_from_row)
    missing = [i.claim_id for i in instances if i.claim_id not in by_id]
    if missing:
        raise ValueError(f"{path} has no feature rows for claim ids {missing[:5]}...")
    found = [by_id[i.claim_id] for i in instances]
    return (np.array([values for values, _ in found],
                     dtype=np.float64).reshape(-1, len(features_mod.FEATURE_NAMES)),
            [n for _, n in found])


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    corpus, stats = ingest_dump(args.dump)
    corpus.save(args.out)
    print(f"ingested {stats.documents} documents "
          f"({stats.lines_skipped} lines skipped, "
          f"{stats.records_skipped} records skipped) -> {args.out}")
    return 0


def cmd_index(args) -> int:
    corpus = load_corpus_any(args.corpus)
    index = tfidf.build_document_index(corpus, bin_count=args.bins)
    index.save(args.out)
    print(f"indexed {index.item_count} documents into {args.bins} bins -> {args.out}")
    return 0


def _load_index(args, corpus):
    if not args.index:
        return tfidf.build_document_index(corpus, bin_count=args.bins)
    index = tfidf.TfidfIndex.load(args.index)
    if index.source_checksum != tfidf.corpus_checksum(corpus):
        raise ValueError(f"index {args.index} was built from a different corpus than "
                         f"{args.corpus}; rebuild it with 'claimcheck index'")
    if index.ngram_orders != tfidf.DOC_NGRAM_ORDERS:
        raise ValueError(f"index {args.index} holds n-gram orders {list(index.ngram_orders)}, "
                         f"not a document index's {list(tfidf.DOC_NGRAM_ORDERS)}")
    return index


def cmd_retrieve(args) -> int:
    corpus = load_corpus_any(args.corpus)
    instances = load_claims(args.claims)
    index = _load_index(args, corpus)
    cands = retrieve_candidates(corpus, index, instances, extractor=_make_extractor(args))
    rows.write_rows(args.out, ({"id": inst.claim_id,
                                "candidates": [r.as_pair() for r in cands[inst.claim_id]]}
                               for inst in instances))
    print(f"wrote candidates for {len(instances)} claims -> {args.out}")
    return 0


def cmd_gen_nli(args) -> int:
    corpus = load_corpus_any(args.corpus)
    instances = load_claims(args.claims)
    examples, generated = nli_data.build_nli_dataset(instances, corpus, seed=args.seed)
    balanced = nli_data.undersample(examples, seed=args.seed)
    counts = {label: 0 for label in nli_data.NLI_LABELS}
    for ex in balanced:
        counts[ex.label] += 1
    manifest = {
        "seed": args.seed,
        "generated": generated,
        "balanced": {k.lower(): v for k, v in counts.items()},
    }
    nli_data.write_examples(args.out, balanced)
    rows.write_json(args.manifest, manifest)
    log.info("generated %d examples, kept %d after balancing",
             len(examples), len(balanced))
    print(f"wrote {len(balanced)} balanced examples -> {args.out} "
          f"(manifest -> {args.manifest})")
    return 0


def cmd_features(args) -> int:
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
    pairs, X, n = score_claims(_make_scorer(args), corpus, instances,
                               [refs for _, refs in by_claim.values()])
    rows.write_rows(args.out, (_feature_row(inst.claim_id, values, count) for inst, values, count
                               in zip(instances, X.tolist(), n.tolist())))
    if args.scored_out:
        rows.write_rows(args.scored_out, triple_rows([i.claim_id for i in instances], pairs))
    print(f"wrote {len(instances)} feature rows -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config, counts = _forest_config(args)
    instances = load_claims(args.claims)
    X, _ = _read_feature_rows(args.features, instances)
    model, n_samples = train_model(instances, X, config, counts)
    forest.save(model, args.out)
    print(f"{trained_summary(model, n_samples)} -> {args.out}")
    return 0


def _read_scored_rows(path, instances) -> ScoredPairs:
    """The scored pairs of a scored-row file, in file order, each claim index
    pointing into instances; rows of other claims are left out."""
    index_of = {inst.claim_id: c for c, inst in enumerate(instances)}
    table = rows.parse_table(path, "scored", "(claim id, page id, line)", triple_from_row)
    kept = [(index_of[claim_id], SentenceRef(page, line), triple)
            for (claim_id, page, line), triple in table.items() if claim_id in index_of]
    return ScoredPairs(np.array([c for c, _, _ in kept], dtype=np.int64),
                       [ref for _, ref, _ in kept],
                       np.array([t for _, _, t in kept], dtype=np.float64).reshape(-1, 3))


def cmd_predict(args) -> int:
    instances = load_claims(args.claims)
    pairs = _read_scored_rows(args.scored, instances)
    X, n = _read_feature_rows(args.features, instances)
    scored = np.bincount(pairs.claims, minlength=len(instances)).tolist()
    for inst, count, expected in zip(instances, scored, n):
        if count != expected:
            raise ValueError(f"{args.scored} has {count} scored rows for claim "
                             f"{inst.claim_id!r}, but its feature row in {args.features} "
                             f"has n {expected}")
    write_predictions(args.out, instances, X, pairs, forest.load(args.model))
    return 0


def cmd_score(args) -> int:
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
    config, counts = _forest_config(args)
    corpus = load_corpus_any(args.corpus)
    instances = load_claims(args.claims)
    index = _load_index(args, corpus)
    cands = retrieve_candidates(corpus, index, instances, extractor=_make_extractor(args))
    pairs, X, _ = score_claims(_make_scorer(args), corpus, instances,
                               [cands[inst.claim_id] for inst in instances])
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
    p.add_argument("--bins", type=int, default=tfidf.DEFAULT_BIN_COUNT,
                   help="hash bins when building in memory (default 2^24)")
    p.add_argument("--ner-file",
                   help="JSON-lines {id, entities} annotations (otherwise heuristic NER)")


def _add_scorer_flags(p):
    p.add_argument("--prob-file",
                   help="JSON-lines entailment probabilities (otherwise the baseline scorer)")


def _add_train_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--sample-counts", default=",".join(map(str, forest.DEFAULT_CLASS_COUNTS)),
                   help="per-class claim sample sizes (SUPPORTS,REFUTES,NEI)")


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
    p.add_argument("--bins", type=int, default=tfidf.DEFAULT_BIN_COUNT)
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

    p = sub.add_parser("features", help="score candidates and compute feature vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--candidates", required=True, help="retrieve output")
    p.add_argument("--out", required=True)
    p.add_argument("--scored-out", help="also dump per-candidate probability rows")
    _add_scorer_flags(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the forest on feature rows")
    p.add_argument("--claims", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label claims and assemble evidence")
    p.add_argument("--claims", required=True)
    p.add_argument("--features", required=True)
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
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
