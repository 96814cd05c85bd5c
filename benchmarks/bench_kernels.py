"""Times the numeric kernels and the n-gram hasher on synthetic inputs.

Runs the multi-query edit-distance kernel on every pair of a few queries
and every title (beside title matching, which verifies only the titles the
bigram filter leaves, timed apart for exact, one-edit and far-off
mentions, each kind matched in one call), block cosine accumulation,
the batched split search of one training step, grouped run sums, the batch
n-gram hash of texts (against ``tokenize`` and the per-occurrence reference
loop ``hashed_counts``), one batch call of the baseline scorer over a
table of about 3000 rows and 3600 pairs (``entailment.score_pairs``), the
scoring of a run's candidate pairs into its
feature matrix (``cli.score_claims``, as ``e2e`` calls it), assembling the
verdicts of those pairs under seeded labels (``verdict.assemble_all``),
training the default forest and loading its saved model file, saving a
corpus file, loading it (page ids only), loading it and parsing every
page, building the document index of that corpus, both TF-IDF routes
over that index for claims drawn from its sentences
(``cli.retrieve_candidates``, as ``e2e`` calls it, with no mentions), and the document route alone at FEVER-like scale (``top_documents``
of ROUTE_SCALE times --claims claims over an index of ROUTE_SCALE times
--texts one-text pages: 3000 claims and 20,000 pages by default), on
seeded inputs, and prints the best-of-N wall time of each.  A
third column gives the peak of the memory one more call allocates, as
``tracemalloc`` traces it; for the index build a fourth column gives that
peak over the bytes of the arrays it returns.  The last four rows run the
``ingest``, ``index`` and ``e2e`` subcommands on the ``data/`` fixture, and
``index`` on a saved corpus of perfbench's ``bulk`` workload (seed 11,
5048 pages), each in a new interpreter, so that they time start-up and
imports next to the kernels; for them one more child gives its own peak
RSS as the peak, and its user + system CPU time in a fourth column, where a
thread that spins beside the main one shows as added CPU time.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --titles 50000 --repeat 7
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import claimcheck
from claimcheck import cli, forest, ner, tfidf, verdict
from claimcheck.corpus import Corpus, Document, SentenceRef, ingest_dump, table_of_refs
from claimcheck.entailment import BaselineScorer, score_pairs
from claimcheck.features import FEATURE_NAMES
from claimcheck.nli_data import FeverInstance
from claimcheck.tokenizer import hashed_counts, ngram_bins, tokenize

BLOCK_QUERIES = 8  # queries scored together by block_accumulate
CANDIDATES = 5  # candidate sentences per claim of the scoring run
LINES_PER_PAGE = 10  # sentences per page of the scoring run's corpus
PAIR_ROWS = 3000  # table rows of the score_pairs batch
ROUTE_SCALE = 4  # claims and pages of the top_documents row, per --claims and --texts
SPLIT_COLUMNS = 4  # columns a forest node searches: ceil(sqrt(12 features))
SPLIT_NODES = 50  # nodes of one training step: one per tree of the default forest
TITLE_QUERIES = 10  # edit_distances queries, and title_match mentions of each kind
TITLE_LETTERS = list("abcdefghijklmnopqrstuvwxyz _()")
DATA = Path(__file__).resolve().parent.parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BULK_SEED = 11  # of the start_index row's corpus


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def traced_peak(fn) -> tuple:
    """(peak bytes that one call of fn allocates, as tracemalloc traces them,
    what the call returns)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def make_title_workload(rng, n_titles):
    """n_titles titles of 5 to 25 letters, and the edit_distances inputs that
    pair each of the first TITLE_QUERIES titles, as queries, with every title."""
    titles = ["".join(rng.choice(TITLE_LETTERS, size=rng.integers(5, 26)))
              for _ in range(n_titles)]
    queries = titles[:TITLE_QUERIES]
    pairs = np.arange(len(queries) * n_titles)
    return titles, (*ner.code_points(queries), *ner.code_points(titles),
                    pairs // n_titles, pairs % n_titles)


def make_mention_workload(rng, titles):
    """A TitleMatcher over the titles, and TITLE_QUERIES mentions of each kind:
    titles, titles with one letter replaced, and 15 digits (far from all)."""
    corpus = Corpus()
    for title in dict.fromkeys(titles):
        corpus.add_document(Document(title, "", {}))
    picks = [titles[i] for i in rng.integers(0, len(titles), size=2 * TITLE_QUERIES)]
    edited = []
    for title in picks[TITLE_QUERIES:]:
        at = int(rng.integers(0, len(title)))
        letter = rng.choice([c for c in TITLE_LETTERS[:26] if c != title[at]])
        edited.append(title[:at] + str(letter) + title[at + 1:])
    far = ["".join(rng.choice(list("0123456789"), size=15)) for _ in range(TITLE_QUERIES)]
    matcher = ner.TitleMatcher(corpus)
    return {kind: (matcher, [ner.EntityMention(surface) for surface in surfaces])
            for kind, surfaces in [("exact", picks[:TITLE_QUERIES]), ("one_edit", edited),
                                   ("far", far)]}


def make_postings_workload(rng, n_items, n_postings, n_queries):
    """A postings index and a block of n_queries queries of 48 bins each."""
    n_bins = max(n_postings // 8, 16)
    splits = np.sort(rng.integers(0, n_postings, size=n_bins - 1))
    uniq_offsets = np.concatenate(([0], splits, [n_postings])).astype(np.int64)
    post_items = rng.integers(0, n_items, size=n_postings).astype(np.int32)
    post_weights = rng.random(n_postings)
    n_query = min(48, n_bins)
    q_row = np.repeat(np.arange(n_queries, dtype=np.int64), n_query)
    q_pos = np.concatenate([np.sort(rng.choice(n_bins, size=n_query, replace=False))
                            for _ in range(n_queries)])
    q_weights = rng.random(q_pos.size)
    starts = uniq_offsets[q_pos]
    return (q_row, starts, uniq_offsets[q_pos + 1] - starts, q_weights, post_items,
            post_weights, n_queries, n_items)


def make_runs_workload(rng, n_runs):
    """Runs of 0 to 60 values, as item norms sum the squares of 0 to 60 weights."""
    lengths = rng.integers(0, 61, size=n_runs)
    return rng.random(lengths.sum()), lengths


def make_split_workload(rng, n_samples):
    """One batched training step: SPLIT_NODES nodes of n_samples samples each."""
    blocks = rng.random((SPLIT_NODES, SPLIT_COLUMNS, n_samples))
    labels = rng.integers(0, 3, size=(SPLIT_NODES, n_samples))
    return blocks, labels, np.full(SPLIT_NODES, n_samples), 3


def make_token_workload(rng, n_items, vocab_size=5000, exponent=1.3):
    """Token lists of 5 to 40 tokens drawn Zipf-like from a fixed vocabulary."""
    vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyzäж"), size=rng.integers(2, 11)))
             for _ in range(vocab_size)]
    sizes = rng.integers(5, 41, size=n_items).tolist()
    ranks = np.minimum(rng.zipf(exponent, size=sum(sizes)), vocab_size) - 1
    flat = [vocab[r] for r in ranks.tolist()]
    ends = np.cumsum(sizes).tolist()
    return [flat[end - size:end] for size, end in zip(sizes, ends)]


def make_text_workload(token_lists):
    """Each token list as a sentence that ``tokenize`` reads back as it: joined,
    capitalized and ended with a full stop, every other one spelt in ASCII
    (a for ä, z for ж), so both of ``ngram_bins``' paths run."""
    ascii_letters = str.maketrans("äж", "az")
    texts = [" ".join(tokens) for tokens in token_lists]
    return [(text.translate(ascii_letters) if i % 2 else text).capitalize() + "."
            for i, text in enumerate(texts)]


def make_scoring_workload(rng, token_lists, n_claims):
    """A scoring run: the token lists as sentences of LINES_PER_PAGE-line pages,
    n_claims claims of 4 to 12 of their tokens, and CANDIDATES sorted sentences
    per claim, drawn at random, so claims share some of them; as
    ``cli.score_claims`` takes them: claims, sentence table and pairs."""
    corpus = Corpus()
    for start in range(0, len(token_lists), LINES_PER_PAGE):
        lines = {n: " ".join(tokens)
                 for n, tokens in enumerate(token_lists[start:start + LINES_PER_PAGE])}
        corpus.add_document(Document(f"Page_{start // LINES_PER_PAGE:05d}", "", lines))
    refs = [SentenceRef(doc.page_id, n) for doc in corpus.documents() for n in doc.lines]
    vocab = sorted({token for tokens in token_lists for token in tokens})
    instances = [FeverInstance(c, " ".join(rng.choice(vocab, size=rng.integers(4, 13))),
                               "NOT ENOUGH INFO", ()) for c in range(n_claims)]
    size = min(CANDIDATES, len(refs))
    candidates = [sorted(refs[i] for i in rng.choice(len(refs), size=size, replace=False).tolist())
                  for _ in instances]
    table, rows = table_of_refs([ref for group in candidates for ref in group],
                                corpus.get_sentence)
    return (instances, table, np.repeat(np.arange(n_claims), size),
            np.array(rows, dtype=np.int64))


def score_claims(instances, table, claims, rows):
    """cli.score_claims with a new baseline scorer, as one ``e2e`` makes it."""
    return cli.score_claims(BaselineScorer(), instances, table, claims, rows)


def make_pairs_workload(rng, texts, n_claims):
    """One batch of pairs for the baseline scorer: the table of the first
    PAIR_ROWS texts as LINES_PER_PAGE-line pages, n_claims claims of 4 to 12
    of their words, and 1 to 8 distinct rows per claim, drawn at random."""
    corpus = Corpus()
    for start in range(0, min(len(texts), PAIR_ROWS), LINES_PER_PAGE):
        lines = dict(enumerate(texts[start:min(start + LINES_PER_PAGE, PAIR_ROWS)]))
        corpus.add_document(Document(f"Page_{start // LINES_PER_PAGE:05d}", "", lines))
    table = corpus.sentence_table(corpus.page_ids())
    words = sorted({word for text in texts for word in text.split()})
    instances = [FeverInstance(c, " ".join(rng.choice(words, size=rng.integers(4, 13))),
                               "NOT ENOUGH INFO", ()) for c in range(n_claims)]
    sizes = rng.integers(1, 9, size=n_claims).clip(max=len(table.texts))
    rows = [np.sort(rng.choice(len(table.texts), size=n, replace=False)) for n in sizes.tolist()]
    return (BaselineScorer(), instances, table, np.repeat(np.arange(n_claims), sizes),
            np.concatenate([np.zeros(0, dtype=np.int64), *rows]))


def make_verdict_workload(rng, scoring):
    """The claim ids, seeded labels and scored pairs of the scoring run, as
    ``e2e`` hands them to assemble_all."""
    instances = scoring[0]
    pairs, _ = score_claims(*scoring)
    labels = [forest.LABELS[c] for c in rng.integers(0, len(forest.LABELS), size=len(instances))]
    return [inst.claim_id for inst in instances], labels, pairs


def make_forest_workload(rng, n_claims, model_path):
    """A seeded (n_claims, 12) feature matrix with random labels, and the
    default forest's model file trained on it, saved at model_path."""
    X = rng.random((n_claims, len(FEATURE_NAMES)))
    labels = [forest.LABELS[c] for c in rng.integers(0, len(forest.LABELS), size=n_claims)]
    forest.save(forest.fit(X, labels), model_path)
    return X, labels


def make_corpus_workload(rng, n_sentences, path):
    """A corpus of LINES_PER_PAGE-sentence pages drawn like the hasher's token
    lists, each page's text its sentences joined, also saved at path."""
    token_lists = make_token_workload(rng, n_sentences)
    corpus = Corpus()
    for start in range(0, n_sentences, LINES_PER_PAGE):
        sentences = [" ".join(tokens) for tokens in token_lists[start:start + LINES_PER_PAGE]]
        corpus.add_document(Document(f"Page_{start // LINES_PER_PAGE:05d}", " ".join(sentences),
                                     dict(enumerate(sentences))))
    corpus.source_checksums["dump.jsonl"] = "0" * 64
    corpus.save(path)
    return corpus


def make_route_workload(rng, corpus, n_claims):
    """The corpus, its document index and n_claims of its sentences, drawn at
    random as claims (``FeverInstance``s)."""
    sentences = [doc.sentence(n) for doc in corpus.documents() for n in doc.lines]
    claims = [FeverInstance(i, sentences[s], "NOT ENOUGH INFO", ())
              for i, s in enumerate(rng.integers(0, len(sentences), size=n_claims).tolist())]
    return corpus, tfidf.build_document_index(corpus), claims


def make_document_route_workload(rng, n_pages, n_claims):
    """A document index over n_pages pages, each the text of one token list,
    and n_claims claims, each 4 to 12 leading tokens of a page drawn at
    random, with ``e2e``'s k_docs.  The tokens follow a Zipf law of exponent
    1.1 over n_pages words, which gives a claim about 0.55 postings per page
    (11,000 over 20,000 pages), as the generated 21,500-page corpus of
    ``perfbench/bench_gen.py`` gives its claims."""
    token_lists = make_token_workload(rng, n_pages, vocab_size=n_pages, exponent=1.1)
    pages = ((f"Page_{i:06d}", " ".join(tokens)) for i, tokens in enumerate(token_lists))
    index = tfidf.TfidfIndex.build(pages, claimcheck.DEFAULT_BIN_COUNT, tfidf.DOC_NGRAM_ORDERS)
    claims = [" ".join(token_lists[i][:int(rng.integers(4, 13))])
              for i in rng.integers(0, n_pages, size=n_claims).tolist()]
    return index, claims, cli.K_DOCS


def tfidf_route(corpus, index, instances):
    """``cli.retrieve_candidates`` with no mentions, so that it runs the TF-IDF
    route alone: the document route, one sentence table over the pages it
    picked, the sentence route and the union of the pairs."""
    return cli.retrieve_candidates(corpus, index, instances, extractor=lambda claim_id: [])


def load_and_parse(path):
    """Corpus.load, then every page parsed, as the stages of a run that reads all would."""
    corpus = Corpus.load(path)
    for _ in corpus.documents():
        pass
    return corpus


def hash_batch(texts, bin_count=2**24):
    return ngram_bins(texts, (1, 2), bin_count)


def hash_loop(texts, bin_count=2**24):
    return [hashed_counts(tokenize(text), (1, 2), bin_count) for text in texts]


# Runs the process entry on its arguments, as `python -m claimcheck.cli` does,
# collector policy and frozen heap at shutdown included, then writes the peak
# RSS of its own memory (VmHWM, in kB) as the last line of stderr. Linux
# carries a parent's peak RSS into the ru_maxrss of a child it spawns, so from
# this process, which holds numpy and the inputs of every row, ru_maxrss
# reads this process's peak.
CHILD = ("import sys\n"
         "from claimcheck import cli\n"
         "code = cli.entry()\n"
         "with open('/proc/self/status', encoding='ascii') as fh:\n"
         "    print(next(line for line in fh if line.startswith('VmHWM:')).split()[1],\n"
         "          file=sys.stderr)\n"
         "sys.exit(code)\n")


def run_child(*argv) -> tuple:
    """Run one subcommand in a new interpreter that imports this claimcheck;
    (its peak RSS in bytes, its user + system CPU seconds)."""
    env = {**os.environ, "PYTHONPATH": str(Path(claimcheck.__file__).resolve().parent.parent)}
    proc = subprocess.Popen([sys.executable, "-c", CHILD, "-q", *map(str, argv)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read()  # to the end, so the child never blocks on a full pipe
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not wait again
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, stderr=err)
    return int(err.split()[-1]) * 1024, usage.ru_utime + usage.ru_stime


def make_bulk_corpus(workdir) -> Path:
    """perfbench's bulk workload at BULK_SEED, ingested into a saved corpus."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench_gen
    finally:
        sys.path.remove(str(PERFBENCH))
    dump, claims = bench_gen.generate(bench_gen.WORKLOADS["bulk"], BULK_SEED, "bulk")
    dump_path, _ = bench_gen.write(dump, claims, Path(workdir) / "bulk")
    corpus = Path(workdir) / "bulk.json.gz"
    ingest_dump(dump_path)[0].save(corpus)
    return corpus


def start_up_cases(workdir):
    """The fixture's ingest, index and e2e children, in the order they chain,
    and the index child of the bulk corpus."""
    corpus, index = Path(workdir) / "fixture.json.gz", Path(workdir) / "fixture.npz"
    bulk = make_bulk_corpus(workdir)
    return [
        ("start_ingest (data/ fixture)", run_child,
         ("ingest", "--dump", DATA / "mini_wiki.jsonl", "--out", corpus)),
        ("start_index (data/ fixture)", run_child,
         ("index", "--corpus", corpus, "--out", index)),
        ("start_e2e (data/ fixture)", run_child,
         ("e2e", "--corpus", corpus, "--index", index, "--claims", DATA / "mini_claims.jsonl",
          "--out", Path(workdir) / "fixture-pred.jsonl")),
        (f"start_index (bulk seed {BULK_SEED} saved corpus)", run_child,
         ("index", "--corpus", bulk, "--out", Path(workdir) / "bulk.npz")),
    ]


def build_cases(rng, args, workdir):
    titles, pairs = make_title_workload(rng, args.titles)
    postings = make_postings_workload(rng, args.items, args.postings, BLOCK_QUERIES)
    split_step = make_split_workload(rng, args.samples)
    tokens = make_token_workload(rng, args.texts)
    runs = make_runs_workload(rng, args.items)
    matching = make_mention_workload(rng, titles)
    scoring = make_scoring_workload(rng, tokens, args.claims)
    model_path = Path(workdir) / "model.json"
    training = make_forest_workload(rng, args.claims, model_path)
    corpus_path = Path(workdir) / "corpus.json.gz"
    corpus = make_corpus_workload(rng, args.texts, corpus_path)
    pages = len(corpus.page_ids())
    verdicts = make_verdict_workload(rng, scoring)
    route = make_route_workload(rng, corpus, args.claims)
    documents = make_document_route_workload(rng, ROUTE_SCALE * args.texts,
                                             ROUTE_SCALE * args.claims)
    texts = make_text_workload(tokens)
    n_tokens = sum(map(len, tokens))
    batch = make_pairs_workload(rng, texts, args.claims)
    return [
        (f"edit_distances ({min(TITLE_QUERIES, args.titles)} queries x {args.titles} titles)",
         ner.edit_distances, pairs),
        *((f"title_match_{kind} ({args.titles} titles, {TITLE_QUERIES} mentions)",
           ner.TitleMatcher.match_all, inputs) for kind, inputs in matching.items()),
        (f"block_accumulate ({args.postings} postings, {BLOCK_QUERIES} queries)",
         tfidf.block_accumulate, postings),
        (f"best_split ({SPLIT_NODES} nodes x {args.samples} samples x {SPLIT_COLUMNS} columns)",
         forest.best_splits, split_step),
        (f"row_sums ({args.items} runs)", tfidf.row_sums, runs),
        (f"ngram_bins ({len(texts)} texts, {n_tokens} tokens)", hash_batch, (texts,)),
        (f"hashed_counts_loop ({len(texts)} texts, {n_tokens} tokens)", hash_loop, (texts,)),
        (f"score_pairs ({len(batch[2].texts)} rows, {batch[3].size} pairs)", score_pairs,
         batch),
        (f"score_claims ({args.claims} claims x {CANDIDATES} candidates)", score_claims,
         scoring),
        (f"assemble_all ({args.claims} claims x {CANDIDATES} candidates)", verdict.assemble_all,
         verdicts),
        (f"forest_fit ({args.claims} claims, default config)", forest.fit, training),
        (f"forest_load ({args.claims} claims, default config)", forest.load, (model_path,)),
        (f"corpus_save ({pages} pages, {args.texts} sentences)", Corpus.save,
         (corpus, Path(workdir) / "saved.json.gz")),
        (f"corpus_load ({pages} pages, {args.texts} sentences, ids only)", Corpus.load,
         (corpus_path,)),
        (f"corpus_load_parse ({pages} pages, every page parsed)", load_and_parse,
         (corpus_path,)),
        (f"index_build ({pages} pages)", tfidf.build_document_index, (corpus,)),
        (f"tfidf_route ({args.claims} claims, {pages} pages)", tfidf_route, route),
        (f"top_documents ({len(documents[1])} claims, {documents[0].item_count} pages)",
         tfidf.top_documents, documents),
        *start_up_cases(workdir),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--titles", type=int, default=20000)
    parser.add_argument("--items", type=int, default=50000)
    parser.add_argument("--postings", type=int, default=1_000_000)
    parser.add_argument("--samples", type=int, default=1000, help="samples per split node")
    parser.add_argument("--texts", type=int, default=5000,
                        help="texts to hash, and sentences of the saved corpus")
    parser.add_argument("--claims", type=int, default=750,
                        help="claims of the scoring run, of the forest's training matrix "
                             "and of the TF-IDF route")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        cases = build_cases(rng, args, workdir)
        width = max(len(name) for name, *_ in cases)
        header = f"{'kernel':<{width}}  {'time':>10}  {'peak':>10}  {'cpu|ratio':>10}"
        print(header)
        print("-" * len(header))
        for name, fn, inputs in cases:
            elapsed = best_of(lambda: fn(*inputs), args.repeat)
            row = f"{name:<{width}}  {elapsed * 1e3:>8.2f}ms"
            if fn is run_child:  # the child's own peak RSS, and its CPU time
                peak, cpu = fn(*inputs)
                print(f"{row}  {peak / 2**20:>8.2f}MB  {cpu * 1e3:>8.2f}ms")
                continue
            peak, result = traced_peak(lambda: fn(*inputs))
            row = f"{row}  {peak / 2**20:>8.2f}MB"
            if isinstance(result, tfidf.TfidfIndex):  # the peak per byte the build returns
                returned = sum(getattr(result, array).nbytes for array in tfidf._ARRAYS)
                row = f"{row}  {peak / returned:>9.2f}x"
            print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
