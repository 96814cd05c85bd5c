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
from pathlib import Path

from . import features as features_mod
from . import forest, metrics, ner, nli_data, rows, tfidf
from .corpus import Corpus, SentenceRef, ingest_dump
from .entailment import (BaselineScorer, FileScorer, ScoredCandidate, score_candidates,
                         triple_from_row, triple_rows)
from .forest import ForestConfig, TrainingSample
from .metrics import GoldInstance
from .nli_data import load_claims
from .verdict import assemble, prediction_from_row

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
    counts = tuple(int(c) for c in args.sample_counts.split(","))
    if len(counts) != 3 or any(c < 0 for c in counts):
        raise ValueError("--sample-counts needs three non-negative integers, "
                         f"got {args.sample_counts!r}")
    return ForestConfig(trees=args.trees, max_depth=args.max_depth, seed=args.seed), counts


# -- stages ------------------------------------------------------------------


def retrieve_candidates(corpus, index, instances, *, extractor=None):
    """Union of the entity route and the TF-IDF route, per claim."""
    lexical, empty_queries = tfidf.top_k_sentences_batch(
        corpus, index, [inst.claim for inst in instances], k_docs=K_DOCS, k_sents=K_SENTS)
    matcher = ner.TitleMatcher(corpus)  # not held through the TF-IDF routes' peak memory
    out = {}
    entity_only = tfidf_only = both = 0
    for inst, hits in zip(instances, lexical):
        entity = set(ner.candidate_sentences_for_claim(
            corpus, inst.claim, matcher=matcher, extractor=extractor, claim_id=inst.claim_id))
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
    distances = matcher.distances
    log.info("matched %d mentions to titles (%d exact); mentions by match distance: %s",
             distances.total(), distances[0], dict(sorted(distances.items())))
    return out


def score_claims(scorer, corpus, pairs) -> list:
    """(instance, scored candidates, feature vector) per (instance, refs) pair, in order."""
    out = []
    for inst, refs in pairs:
        cands = score_candidates(scorer, inst.claim_id, inst.claim, refs, corpus)
        out.append((inst, cands, features_mod.features(cands)))
    log.info("scored %d candidate pairs over %d claims (%d all-uninformative)",
             sum(len(cands) for _, cands, _ in out), len(out),
             sum(fv.f1 == 0 and fv.f2 == 0 for _, _, fv in out))
    return out


def train_model(instances, fvs, config, counts) -> tuple:
    """(forest, number of training claims) from a per-class sample of the claims."""
    sampled = forest.sample_training_claims(instances, seed=config.seed, counts=counts)
    samples = [TrainingSample(fvs[i.claim_id], i.label) for i in sampled]
    model = forest.train(samples, config)
    log.info("%s", trained_summary(model, len(samples)))
    return model, len(samples)


def trained_summary(model, n_samples: int) -> str:
    return (f"trained {model.config.trees} trees ({model.node_count} nodes, "
            f"depth {model.depth}) on {n_samples} claims")


def write_predictions(path, instances, fvs, scored_by_id, model) -> list:
    """Label each claim, assemble its evidence and write the prediction rows."""
    labels, _ = model.predict_all([fvs[inst.claim_id] for inst in instances])
    verdicts = [assemble(inst.claim_id, label, scored_by_id.get(inst.claim_id, []))
                for inst, label in zip(instances, labels)]
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


def _feature_row(claim_id, fv) -> dict:
    row = {"claim_id": claim_id, "n": fv.n}
    row.update({name: getattr(fv, name) for name in features_mod.FEATURE_NAMES})
    return row


def _features_from_row(row):
    values = [float(rows.number_field(row, name)) for name in features_mod.FEATURE_NAMES]
    if not all(map(math.isfinite, values)):
        raise ValueError("feature values must be finite")
    fv = features_mod.FeatureVector(*values, n=rows.number_field(row, "n", count=True))
    return rows.scalar_field(row, "claim_id"), fv


def _read_feature_rows(path, instances) -> dict:
    """Feature vectors by claim id; every claim of instances needs one."""
    fvs = rows.parse_table(path, "feature", "claim id", _features_from_row)
    missing = [i.claim_id for i in instances if i.claim_id not in fvs]
    if missing:
        raise ValueError(f"no feature rows for claim ids {missing[:5]}...")
    return fvs


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

    pairs = rows.parse_table(args.candidates, "candidates", "claim id", parse)
    scored = score_claims(_make_scorer(args), corpus, pairs.values())
    rows.write_rows(args.out, (_feature_row(inst.claim_id, fv) for inst, _, fv in scored))
    if args.scored_out:
        rows.write_rows(args.scored_out, (row for inst, cands, _ in scored
                                          for row in triple_rows(inst.claim_id, cands)))
    print(f"wrote {len(scored)} feature rows -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config, counts = _forest_config(args)
    instances = load_claims(args.claims)
    fvs = _read_feature_rows(args.features, instances)
    model, n_samples = train_model(instances, fvs, config, counts)
    forest.save(model, args.out)
    print(f"{trained_summary(model, n_samples)} -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    instances = load_claims(args.claims)
    scored_by_id: dict = {}
    for (claim_id, page, line), triple in rows.parse_table(
            args.scored, "scored", "(claim id, page id, line)", triple_from_row).items():
        scored_by_id.setdefault(claim_id, []).append(  # in file order
            ScoredCandidate(SentenceRef(page, line), triple))
    fvs = _read_feature_rows(args.features, instances)
    write_predictions(args.out, instances, fvs, scored_by_id, forest.load(args.model))
    return 0


def cmd_score(args) -> int:
    instances = load_claims(args.gold)
    predictions = list(rows.parse_rows(args.pred, "prediction", prediction_from_row))
    report_scores(instances, predictions, args.json_out)
    return 0


def cmd_e2e(args) -> int:
    config, counts = _forest_config(args)
    corpus = load_corpus_any(args.corpus)
    instances = load_claims(args.claims)
    index = _load_index(args, corpus)
    cands = retrieve_candidates(corpus, index, instances, extractor=_make_extractor(args))
    scored = score_claims(_make_scorer(args), corpus,
                          ((inst, cands[inst.claim_id]) for inst in instances))
    scored_by_id = {inst.claim_id: sc for inst, sc, _ in scored}
    fvs = {inst.claim_id: fv for inst, _, fv in scored}
    if args.model:
        model = forest.load(args.model)
    else:
        model, _ = train_model(instances, fvs, config, counts)
    verdicts = write_predictions(args.out, instances, fvs, scored_by_id, model)
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
