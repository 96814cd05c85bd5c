"""Pipeline benchmark: seeded synthetic workloads through the real CLI.

Each run generates a workload's dump and claims from ``--seed`` and runs
the program's CLI as child processes, one at a time, with CLI defaults for
every flag except paths:

    claimcheck ingest -> claimcheck index -> claimcheck e2e --corpus --index

The first ``SETUPS`` passes run all three; later passes repeat ``e2e``
alone, until ``--seconds`` is used up.  Every pass is checked: each child
exits 0, the predictions and ``index.npz`` hash to the digests recorded in
``digests.json`` for that workload and seed (or, for a seed with no record,
to the digests of the run's first pass), and every prediction row is valid
against the generated corpus.  A pass failing any check counts as a failed
operation.  End-to-end metrics are medians over passes.  With ``--trace 1``
the run also starts ``bench_trace.py``, which calls the layers in process
with a span around each call, and reports the per-layer metrics instead.

Run from the repository root:

    python3 perfbench/run.py --workload lexical --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # table of every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import bench_gen

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK = ".perfbench_work"
DEADLINE_S = 170.0  # every run ends within 180 s, whatever its --seconds
# Set-ups per run; the rest of the time repeats e2e alone, so a workload
# whose set-up is slow (bulk) still gets many e2e samples.
SETUPS = 3
# The shared machine's speed drifts by up to a third over minutes, which no
# number of passes inside one run averages out.  Each pass therefore first
# times bench_calib.py, and set-up and e2e times are scaled by
# CALIB_REF_S / (the run's median calibration time): they read as seconds on
# a machine where the calibration takes CALIB_REF_S, its typical time here.
CALIB_REF_S = 0.45
MIB = 1 << 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "claims_per_s": "claims/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "label_accuracy": "ratio",
    "fever_score": "ratio",
}

PER_LAYER_UNITS = {
    "corpus.ingest_s": "s",
    "corpus.save_s": "s",
    "corpus.load_s": "s",
    "corpus.pages": "count",
    "corpus.sentences": "count",
    "tokenizer.ngrams_per_s": "ngrams/s",
    "tfidf.build_s": "s",
    "tfidf.save_s": "s",
    "tfidf.load_s": "s",
    "tfidf.doc_query_ms.p50": "ms",
    "tfidf.doc_query_ms.p95": "ms",
    "tfidf.sent_query_ms.p50": "ms",
    "tfidf.sent_query_ms.p95": "ms",
    "tfidf.sent_index_builds": "count",
    "tfidf.sent_items_hashed": "count",
    "tfidf.postings": "count",
    "ner.match_ms.p50": "ms",
    "ner.match_ms.p95": "ms",
    "ner.matcher_init_s": "s",
    "ner.mentions": "count",
    "ner.exact_share": "ratio",
    "retrieve.cands_entity_only": "cands/claim",
    "retrieve.cands_tfidf_only": "cands/claim",
    "retrieve.cands_both": "cands/claim",
    "entailment.pairs": "count",
    "entailment.us_per_pair": "us",
    "features.us_per_claim": "us",
    "forest.train_s": "s",
    "forest.train_samples": "count",
    "forest.predict_us_per_claim": "us",
    "verdict.us_per_claim": "us",
    "verdict.overrides": "count",
    "metrics.score_s": "s",
    "cli.ingest_s": "s",
    "cli.index_s": "s",
    "cli.e2e_s": "s",
    "trace.overhead_share": "ratio",
}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def percentile(values, q) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


class Runner:
    """Starts the program's child processes one at a time and reaps each."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def run(self, argv) -> tuple:
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        log = self.workdir / "children.log"
        start = time.perf_counter()
        with open(log, "ab") as fp:
            proc = subprocess.Popen(argv, stdout=fp, stderr=subprocess.STDOUT,
                                    cwd=self.root, env=self.env)
        killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            # per-child ru_maxrss; RUSAGE_CHILDREN would report the run's maximum
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{' '.join(map(str, argv[1:4]))} exited {proc.returncode}:\n{tail}",
                  file=sys.stderr)
        return elapsed, proc.returncode, usage.ru_maxrss * 1024 / MIB

    def cli(self, *args) -> tuple:
        return self.run([sys.executable, "-m", "claimcheck.cli", *map(str, args)])


class Checker:
    """Validates prediction rows and output digests of every pass."""

    def __init__(self, dump, claims, expected: dict | None):
        self.sentences = {}
        for row in dump:
            for entry in row["lines"].split("\n"):
                number, text = entry.split("\t")[:2]
                if text:
                    self.sentences[(row["id"], int(number))] = text
        self.claim_ids = {c["id"] for c in claims}
        self.expected = dict(expected) if expected else None

    def bad_rows(self, rows) -> list:
        """Reasons, one per invalid row or missing claim."""
        bad = []
        seen = set()
        for row in rows:
            try:
                cid = row["id"]
                if cid in seen or cid not in self.claim_ids:
                    raise ValueError("unknown or repeated claim id")
                seen.add(cid)
                if row["predicted_label"] not in bench_gen.LABELS:
                    raise ValueError(f"label {row['predicted_label']!r}")
                evidence = row["predicted_evidence"]
                if len(evidence) > 5:
                    raise ValueError(f"{len(evidence)} evidence pairs")
                for page, line in evidence:
                    if not isinstance(line, int) or (page, line) not in self.sentences:
                        raise ValueError(f"evidence {[page, line]} is no corpus sentence")
            except (KeyError, TypeError, ValueError) as exc:
                bad.append(f"row {row!r:.120}: {exc}")
        missing = len(self.claim_ids) - len(seen)
        if missing:
            bad.append(f"{missing} claims without a prediction row")
        return bad

    def digests_match(self, digests: dict) -> bool:
        """Against the recorded digests, or the first pass's when none are."""
        if self.expected is None:
            self.expected = dict(digests)
        for key, value in digests.items():
            if self.expected.get(key) != value:
                print(f"{key} digest {value} != expected {self.expected.get(key)}",
                      file=sys.stderr)
                return False
        return True


def read_rows(path) -> list:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def run_pass(runner: Runner, checker: Checker, dump_path, claims_path, setup: bool) -> dict:
    """One e2e child, after ingest and index children when ``setup``."""
    w = runner.workdir
    corpus, index, pred, report = (w / "corpus.json.gz", w / "index.npz",
                                   w / "pred.jsonl", w / "report.json")
    steps = {"e2e": ("e2e", "--corpus", corpus, "--index", index, "--claims", claims_path,
                     "--out", pred, "--report", report)}
    if setup:
        steps = {"ingest": ("ingest", "--dump", dump_path, "--out", corpus),
                 "index": ("index", "--corpus", corpus, "--out", index), **steps}
    for path in (corpus, index) if setup else ():
        path.unlink(missing_ok=True)
    pred.unlink(missing_ok=True)
    report.unlink(missing_ok=True)

    out = {"ok": False, "rss": 0.0}
    out["calib"], code, _ = runner.run([sys.executable, str(HERE / "bench_calib.py")])
    if code != 0:
        return out
    for name, args in steps.items():
        out[name], code, rss = runner.cli(*args)
        out["rss"] = max(out["rss"], rss)
        if code != 0:
            return out
    rows = read_rows(pred)
    bad = checker.bad_rows(rows)
    for reason in bad[:5]:
        print(f"invalid prediction: {reason}", file=sys.stderr)
    digests = {"predictions": sha256(pred)}
    if setup:
        digests["index"] = sha256(index)
        out["artifact_mb"] = (corpus.stat().st_size + index.stat().st_size) / MIB
    out["ok"] = not bad and checker.digests_match(digests)
    with open(report, encoding="utf-8") as fp:
        scores = json.load(fp)
    out.update(rows=rows, digests=digests, label_accuracy=scores["label_accuracy"],
               fever_score=scores["fever_score"])
    return out


def unscaled(passes) -> dict:
    """Raw medians behind the scaled metrics; printed for reference."""
    good = [p for p in passes if p["ok"]]
    return {
        "calib_s": statistics.median(p["calib"] for p in good),
        "setup_wall_s": statistics.median(p["ingest"] + p["index"] for p in good
                                          if "ingest" in p),
        "e2e_wall_s": statistics.median(p["e2e"] for p in good),
        "passes": len(good),
    }


def end_to_end(passes, n_claims) -> dict:
    good = [p for p in passes if p["ok"]]
    raw = unscaled(passes)
    slow = raw["calib_s"] / CALIB_REF_S  # how many times slower than the reference
    return {
        "setup_s": raw["setup_wall_s"] / slow,
        "claims_per_s": n_claims * slow / raw["e2e_wall_s"],
        "peak_rss_mb": max(p["rss"] for p in passes),
        "artifact_mb": good[0]["artifact_mb"],
        "label_accuracy": good[0]["label_accuracy"],
        "fever_score": good[0]["fever_score"],
    }


def per_layer(trace: dict, passes, n_claims, counts: dict) -> dict:
    """Per-layer metrics from the traced run's spans and counters, the
    untraced passes, and counts taken from the inputs and the saved index."""
    spans, counters = trace["spans"], trace["counters"]
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])

    def total(name):
        return sum(by_name.get(name, [0.0]))

    def mean(name):
        return statistics.fmean(by_name[name])

    def ms(name, q):
        return percentile([d * 1e3 for d in by_name.get(name, [])], q)

    good = [p for p in passes if p["ok"]]
    untraced = {k: statistics.median(p[k] for p in good if k in p)
                for k in ("ingest", "index", "e2e")}
    traced = total("cli.ingest") + total("cli.index") + total("cli.e2e")
    mentions = counters.get("ner.mentions", 0)
    claims = max(n_claims, 1)
    return {
        "corpus.ingest_s": total("corpus.ingest"),
        "corpus.save_s": total("corpus.save"),
        "corpus.load_s": mean("corpus.load"),
        "corpus.pages": counts["corpus.pages"],
        "corpus.sentences": counts["corpus.sentences"],
        "tokenizer.ngrams_per_s": counters["tokenizer.ngrams"] / total("tokenizer.hash"),
        "tfidf.build_s": total("tfidf.build"),
        "tfidf.save_s": total("tfidf.save"),
        "tfidf.load_s": total("tfidf.load"),
        "tfidf.doc_query_ms.p50": ms("tfidf.doc_query", 50),
        "tfidf.doc_query_ms.p95": ms("tfidf.doc_query", 95),
        "tfidf.sent_query_ms.p50": ms("tfidf.sent_query", 50),
        "tfidf.sent_query_ms.p95": ms("tfidf.sent_query", 95),
        "tfidf.sent_index_builds": counters.get("tfidf.sent_index_builds", 0),
        "tfidf.sent_items_hashed": counters.get("tfidf.sent_items_hashed", 0),
        "tfidf.postings": counts["tfidf.postings"],
        "ner.match_ms.p50": ms("ner.match", 50),
        "ner.match_ms.p95": ms("ner.match", 95),
        "ner.matcher_init_s": total("ner.matcher_init"),
        "ner.mentions": mentions,
        "ner.exact_share": counters.get("ner.exact", 0) / mentions if mentions else 0.0,
        "retrieve.cands_entity_only": counters.get("retrieve.cands_entity_only", 0) / claims,
        "retrieve.cands_tfidf_only": counters.get("retrieve.cands_tfidf_only", 0) / claims,
        "retrieve.cands_both": counters.get("retrieve.cands_both", 0) / claims,
        "entailment.pairs": counters.get("entailment.pairs", 0),
        "entailment.us_per_pair":
            total("entailment.score") * 1e6 / max(counters.get("entailment.pairs", 0), 1),
        "features.us_per_claim": total("features") * 1e6 / claims,
        "forest.train_s": total("forest.train"),
        "forest.train_samples": counters.get("forest.train_samples", 0),
        "forest.predict_us_per_claim": total("forest.predict") * 1e6 / claims,
        "verdict.us_per_claim": total("verdict.assemble") * 1e6 / claims,
        "verdict.overrides": counters.get("verdict.overrides", 0),
        "metrics.score_s": total("metrics.score"),
        "cli.ingest_s": untraced["ingest"],
        "cli.index_s": untraced["index"],
        "cli.e2e_s": untraced["e2e"],
        "trace.overhead_share": (traced - sum(untraced.values())) / sum(untraced.values()),
    }


def traced_run(runner: Runner, dump_path, claims_path) -> tuple:
    """Run bench_trace.py in its own process; (ok, spans, rows, index digest)."""
    w = runner.workdir / "traced"
    w.mkdir(exist_ok=True)
    spans, pred = w / "spans.json", w / "pred.json"
    _, code, _ = runner.run([sys.executable, str(HERE / "bench_trace.py"),
                             "--dump", dump_path, "--claims", claims_path,
                             "--workdir", w, "--spans", spans, "--pred", pred])
    if code != 0:
        return False, None, None, None
    with open(spans, encoding="utf-8") as fp:
        trace = json.load(fp)
    with open(pred, encoding="utf-8") as fp:
        rows = json.load(fp)
    return True, trace, rows, sha256(w / "index.npz")


def postings_in(index_path) -> int:
    """Postings count from the saved index (format v1 keeps ``post_items``)."""
    import numpy as np

    with np.load(index_path, allow_pickle=False) as data:
        return int(data["post_items"].shape[0])


def load_digests() -> dict:
    if DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as fp:
            return json.load(fp)
    return {}


def run_workload(root: Path, name: str, spec, seed: int, seconds: float, trace: bool,
                 expected: dict | None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    started = time.monotonic()
    workdir = root / WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        dump, claims = bench_gen.generate(spec, seed, name)
        dump_path, claims_path = bench_gen.write(dump, claims, workdir)
        checker = Checker(dump, claims, expected)
        runner = Runner(root, workdir, started + DEADLINE_S)

        # the traced run gets the second half of the time
        budget = seconds / 2 if trace else seconds
        passes = []
        while True:
            t0 = time.monotonic()
            setup = len(passes) < SETUPS
            passes.append(run_pass(runner, checker, dump_path, claims_path, setup))
            last = time.monotonic() - t0
            if not passes[-1]["ok"] or time.monotonic() - started + last > budget:
                break

        attempted, failed = len(passes), sum(not p["ok"] for p in passes)
        if failed == attempted:
            return {"correct": False, "attempted": attempted, "failed": failed,
                    "metrics": {}}
        first = passes[0]
        if not trace:
            values = end_to_end(passes, len(claims))
            units = END_TO_END_UNITS
        else:
            attempted += 1
            ok, spans, rows, index_digest = traced_run(runner, dump_path, claims_path)
            if not ok or rows != first["rows"] or index_digest != first["digests"]["index"]:
                print("traced run disagrees with the CLI run", file=sys.stderr)
                failed += 1
                return {"correct": False, "attempted": attempted, "failed": failed,
                        "metrics": {}}
            shutil.copy(workdir / "traced" / "spans.json",
                        root / WORK / f"trace-{name}-{seed}.json")
            counts = {"corpus.pages": len(dump), "corpus.sentences": len(checker.sentences),
                      "tfidf.postings": postings_in(workdir / "traced" / "index.npz")}
            values = per_layer(spans, passes, len(claims), counts)
            units = PER_LAYER_UNITS
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "digests": first["digests"],
            "unscaled": unscaled(passes),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="claimcheck pipeline benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in digests.json for the seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "claimcheck" / "cli.py").is_file():
        print("error: run from the repository root (src/claimcheck not found)",
              file=sys.stderr)
        return 2

    digests = load_digests()
    names = sorted(bench_gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        expected = None if args.record else digests.get(name, {}).get(str(args.seed))
        result = run_workload(root, name, bench_gen.WORKLOADS[name], args.seed,
                              args.seconds, bool(args.trace), expected)
        recorded = result.pop("digests", None)
        for key, value in result.pop("unscaled", {}).items():
            print(f"{name:8} {key:28} {value:14.6g} (unscaled)")
        if args.record and result["correct"]:
            digests.setdefault(name, {})[str(args.seed)] = recorded
            with open(DIGESTS, "w", encoding="utf-8") as fp:
                json.dump(digests, fp, indent=2, sort_keys=True)
                fp.write("\n")
        for metric, m in result["metrics"].items():
            print(f"{name:8} {metric:28} {m['value']:14.6g} {m['unit']}")
        print(f"{name:8} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
