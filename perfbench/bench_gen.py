"""Seeded synthetic dumps and claim files for the pipeline benchmark.

Pages have multi-word capitalized titles and sentence-split text in the
FEVER dump shape (``id``, ``text``, ``lines`` with link metadata after a
second tab).  Some sentences cite other titles.  Claims are drawn from
sentences: SUPPORTS verbatim or paraphrased, REFUTES by inserting a
negation, NOT ENOUGH INFO recombined from two pages with null evidence.

Difficulty is stratified by claim index, not drawn at random, so the share
of hard claims is the same for every seed and the quality metrics move
little from seed to seed.  The seed picks the vocabulary, the titles and
which pages the claims come from.

    python3 perfbench/bench_gen.py --workload entity --seed 0 --out /tmp/gen
"""

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")

_ONSETS = ["b", "br", "d", "dr", "f", "g", "gr", "h", "k", "kr", "l", "m", "n",
           "p", "r", "s", "st", "t", "tr", "v", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ei", "ou"]
_CODAS = ["", "", "l", "m", "n", "r", "s", "th", "nd", "rk"]

_VERBS = ["built", "founded", "charted", "named", "mapped", "settled", "raised",
          "opened", "restored", "described"]
_ADJS = ["known", "noted", "praised", "famous", "valued", "remembered"]
_PREPS = ["near", "beside", "above", "below", "across", "behind"]


@dataclass(frozen=True)
class Spec:
    """Sizes and shape of one workload's generated input."""

    pages: int
    claims: int
    mentions_per_claim: int  # 2: claims cite two titles; 0: no capitalized run
    exact_share: float = 1.0  # share of title mentions left unedited


WORKLOADS = {
    "entity": Spec(pages=200, claims=72, mentions_per_claim=2, exact_share=0.5),
    "lexical": Spec(pages=1500, claims=750, mentions_per_claim=0),
    "bulk": Spec(pages=5000, claims=90, mentions_per_claim=0),
}

LINES_PER_PAGE = (4, 8)


class _Words:
    """Unique pseudo-words, lowercase, built from syllables."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def word(self, syllables: int, codas=_CODAS) -> str:
        while True:
            w = "".join(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                        + self.rng.choice(codas) for _ in range(syllables))
            if w not in self.used:
                self.used.add(w)
                return w


@dataclass
class _Page:
    title: str  # words joined by spaces; page id uses underscores
    topic: list  # content words its sentences draw on
    sentences: list  # (text, cited page id or "")

    @property
    def page_id(self) -> str:
        return self.title.replace(" ", "_")


def _fact(rng, topic, extra, kind) -> str:
    """A sentence with one auxiliary verb and no capital beyond its first token."""
    a, b, c, d = rng.sample(topic, 4)
    e = rng.choice(extra)
    kind %= 4
    if kind == 0:
        return f"It was {rng.choice(_VERBS)} by the {a} {b} in {rng.randrange(1700, 2000)}."
    if kind == 1:
        return f"It is {rng.choice(_ADJS)} for the {a} {b} of the {c} {e}."
    if kind == 2:
        return f"The {a} {b} was {rng.choice(_VERBS)} {rng.choice(_PREPS)} the {c} {d}."
    return f"Its {a} {e} has {rng.randrange(2, 40)} {b} {c}."


def _cite(rng, page, other, topic) -> str:
    a, b = rng.sample(topic, 2)
    return (f"{page.title} was {rng.choice(_VERBS)} {rng.choice(_PREPS)} "
            f"{other.title} with the {a} {b}.")


def _negate(sentence: str) -> str:
    """Insert ``not`` after the sentence's auxiliary verb."""
    words = sentence.split(" ")
    for i, w in enumerate(words):
        if w in ("was", "is", "has"):
            return " ".join(words[: i + 1] + ["not"] + words[i + 1:])
    raise ValueError(f"no auxiliary in {sentence!r}")


def _edit_title(rng, title: str, titles: set) -> str:
    """One substituted letter inside a title word; never another title."""
    while True:
        words = title.split(" ")
        wi = rng.randrange(len(words))
        w = words[wi]
        ci = rng.randrange(1, len(w))
        ch = rng.choice([c for c in "aeioulnrst" if c != w[ci]])
        words[wi] = w[:ci] + ch + w[ci + 1:]
        edited = " ".join(words)
        if edited.casefold() not in titles:
            return edited


def generate(spec: Spec, seed: int, name: str = "") -> tuple:
    """(dump rows, claim rows) for a spec; equal arguments give equal rows.

    Lengths follow fixed patterns (syllables per word, words per title,
    lines per page, which lines cite a title, sentence templates), so sizes
    and costs barely move between seeds; the seed picks the letters and
    which words, titles and pages are combined.
    """
    if spec.mentions_per_claim not in (0, 2):
        raise ValueError("claims cite either two titles or none")
    rng = random.Random(f"claimcheck-bench:{name}:{seed}")
    words = _Words(rng)
    vocab = [words.word((2, 2, 3)[k % 3]) for k in range(max(400, spec.pages))]
    # open syllables keep titles short: matching cost grows with mention length
    title_words = [words.word(2, codas=[""]).capitalize()
                   for _ in range(max(200, spec.pages // 2))]

    pages: list = []
    seen_titles: set = set()
    while len(pages) < spec.pages:
        title = " ".join(rng.sample(title_words, (2, 2, 3)[len(pages) % 3]))
        if title.casefold() not in seen_titles:
            seen_titles.add(title.casefold())
            pages.append(_Page(title, rng.sample(vocab, 6), []))
    lo, hi = LINES_PER_PAGE
    for p, page in enumerate(pages):
        for k in range(lo + p % (hi - lo + 1)):
            if (p + k) % 10 < 3:  # three lines in ten cite another title
                other = pages[(p + 1 + rng.randrange(len(pages) - 1)) % len(pages)]
                page.sentences.append((_cite(rng, page, other, page.topic), other.page_id))
            else:
                page.sentences.append((_fact(rng, page.topic, vocab, p + k), ""))

    claim_pages = rng.sample(pages, spec.claims)
    claims = []
    for i, page in enumerate(claim_pages):
        label = LABELS[i % 3]
        group = (i // 3) % 4
        hard = group == 3  # a quarter of each label is a hard case
        lookalike = group < 2  # half of the claim pages get a look-alike page
        claims.append(_claim(rng, spec, i, label, hard, lookalike, page, pages,
                             vocab, seen_titles))

    dump = []
    for page in pages:
        rows = [f"{n}\t{text}" + (f"\t{cited}" if cited else "")
                for n, (text, cited) in enumerate(page.sentences)]
        if len(page.sentences) % 3 == 0:
            rows.append(f"{len(page.sentences)}\t")  # blank trailing row, as in FEVER
        dump.append({"id": page.page_id,
                     "text": " ".join(text for text, _ in page.sentences),
                     "lines": "\n".join(rows)})
    rng.shuffle(dump)
    return dump, claims


def _claim(rng, spec, i, label, hard, lookalike, page, pages, vocab, titles) -> dict:
    cid = i + 1
    cites = bool(spec.mentions_per_claim)
    lines = [n for n, (_, cited) in enumerate(page.sentences) if bool(cited) == cites]
    if not lines:
        other = pages[(pages.index(page) + 1) % len(pages)]
        page.sentences.append((_cite(rng, page, other, page.topic), other.page_id)
                              if cites else (_fact(rng, page.topic, vocab, i), ""))
        lines = [len(page.sentences) - 1]
    line = rng.choice(lines)
    source, cited = page.sentences[line]
    other = page
    while other is page or other.page_id == cited:
        other = rng.choice(pages)
    mentions = [page.title, cited.replace("_", " ")]

    if label == "NOT ENOUGH INFO":
        if hard:  # built like a hard SUPPORTS claim, so the label is ambiguous
            text = _swap_word(rng, source, page.topic, other.topic)
        elif cites:
            mentions[1] = other.title
            text = _cite(rng, page, other, other.topic)
        else:
            text = _fact(rng, page.topic[:3] + other.topic[:3], vocab, i // 3)
        evidence = [[[1000 + cid, None, None, None]]]
    else:
        text = _swap_word(rng, source, page.topic, vocab) if hard else source
        if label == "REFUTES":
            text = _negate(text)
        evidence = [[[1000 + cid, 2000 + cid, page.page_id, line]]]

    if lookalike:
        # a look-alike page stating the claim's source with the opposite polarity
        shuffled = rng.sample(page.title.split(" "), len(page.title.split(" ")))
        twin = " ".join(shuffled + [rng.choice(vocab).capitalize()])
        while twin.casefold() in titles:
            twin = f"{twin} {rng.choice(vocab).capitalize()}"
        titles.add(twin.casefold())
        body = [(_negate(source), page.page_id), (_fact(rng, page.topic, vocab, i), "")]
        pages.append(_Page(twin, page.topic, body))

    if cites:
        for j, title in enumerate(mentions):
            slot = i * len(mentions) + (i + j) % len(mentions)
            # stratified, so each seed edits the same share of mentions
            if int((slot + 1) * spec.exact_share) == int(slot * spec.exact_share):
                edited = _edit_title(rng, title, titles)
                # the claim's subject opens it; the cited title is the last title in it
                if j == 0:
                    text = edited + text[len(title):]
                else:
                    head, _, tail = text.rpartition(title)
                    text = head + edited + tail
    return {"id": cid, "label": label, "claim": text, "evidence": evidence}


def _swap_word(rng, sentence, topic, pool) -> str:
    """Replace one topic word of the sentence with a word from pool."""
    words = sentence.rstrip(".").split(" ")
    k = rng.choice([k for k, w in enumerate(words) if w in topic])
    words[k] = rng.choice([w for w in pool if w not in topic])
    return " ".join(words) + "."


def write(dump, claims, out_dir) -> tuple:
    """Write dump.jsonl and claims.jsonl; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_path, claims_path = out / "dump.jsonl", out / "claims.jsonl"
    for path, rows in ((dump_path, dump), (claims_path, claims)):
        with open(path, "w", encoding="utf-8") as fp:
            for row in rows:
                fp.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
                fp.write("\n")
    return dump_path, claims_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    dump, claims = generate(WORKLOADS[args.workload], args.seed, args.workload)
    paths = write(dump, claims, args.out)
    print(f"wrote {len(dump)} pages and {len(claims)} claims -> "
          + ", ".join(map(str, paths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
