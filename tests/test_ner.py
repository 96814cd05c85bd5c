import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimcheck import ner
from claimcheck.corpus import Corpus, Document, SentenceRef

from conftest import levenshtein


def lev_oracle(a: str, b: str) -> int:
    """Full DP table, kept deliberately naive."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1,
                              table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[m][n]


def small_corpus(titles):
    corpus = Corpus()
    for t in titles:
        corpus.add_document(Document(t, "text", {0: "s0", 1: "", 2: "s2"}))
    return corpus


class TestExtractEntities:
    def test_simple_name(self):
        assert [m.surface for m in ner.extract_entities("Tilda Swinton is a vegan.")] == \
            ["Tilda Swinton"]

    def test_no_capitalized_runs(self):
        assert ner.extract_entities("the cat sat") == []

    def test_sentence_initial_single_token_dropped(self):
        assert [m.surface for m in ner.extract_entities("Paris is in France.")] == \
            ["France"]

    def test_sentence_initial_multi_token_run_kept(self):
        got = [m.surface for m in ner.extract_entities("Soul Food is a film.")]
        assert got == ["Soul Food"]

    def test_leading_stopword_stripped(self):
        got = [m.surface for m in
               ner.extract_entities("He visited The Grey Fleet yesterday.")]
        assert got == ["Grey Fleet"]

    def test_run_of_leading_stopwords_only_dropped(self):
        assert ner.extract_entities("Birds fly over The A.") == []

    def test_dedup_preserves_first_appearance(self):
        got = [m.surface for m in
               ner.extract_entities("Edda Sorel met Vint Okker and Edda Sorel left.")]
        assert got == ["Edda Sorel", "Vint Okker"]

    def test_punctuation_edges_trimmed(self):
        got = [m.surface for m in ner.extract_entities("It mentions (Harbor Light).")]
        assert got == ["Harbor Light"]


class TestFileExtractor:
    def test_passthrough(self, tmp_path):
        p = tmp_path / "ents.jsonl"
        p.write_text(json.dumps({"id": 7, "entities": ["Soul Food"]}) + "\n")
        extractor = ner.FileEntityExtractor.load(p)
        assert [m.surface for m in extractor(7)] == ["Soul Food"]
        assert extractor(8) == []

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "ents.jsonl"
        p.write_text('{"id": 1}\n')
        with pytest.raises(ValueError, match="line 1"):
            ner.FileEntityExtractor.load(p)


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_against_dp_oracle(self):
        rng = np.random.default_rng(31)
        alphabet = list("abcdeå")
        for _ in range(300):
            a = "".join(rng.choice(alphabet, size=rng.integers(0, 31)))
            b = "".join(rng.choice(alphabet, size=rng.integers(0, 31)))
            assert levenshtein(a, b) == lev_oracle(a, b)

    def test_metric_properties(self):
        rng = np.random.default_rng(32)
        alphabet = list("abcd")
        for _ in range(300):
            a, b, c = ("".join(rng.choice(alphabet, size=rng.integers(0, 15)))
                       for _ in range(3))
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestTitleMatching:
    def test_normalized_exact_match(self):
        corpus = small_corpus(["Tilda_Swinton", "Unrelated"])
        hit = ner.TitleMatcher(corpus).match(ner.EntityMention("Tilda Swinton"))
        assert hit.page_id == "Tilda_Swinton" and hit.distance == 0

    def test_exact_match_dominates(self):
        corpus = small_corpus(["X", "XY"])
        hit = ner.TitleMatcher(corpus).match(ner.EntityMention("X"))
        assert hit.page_id == "X" and hit.distance == 0

    def test_parenthetical_variant_loses_on_distance(self):
        corpus = small_corpus(["Soul_Food", "Soul_Food_(film)"])
        matcher = ner.TitleMatcher(corpus)
        hit = matcher.match(ner.EntityMention("Soul Food"))
        assert hit.page_id == "Soul_Food" and hit.distance == 0
        assert levenshtein("soul food", "soul food (film)") == 7

    def test_tie_breaks_shorter_then_lexicographic(self):
        corpus = small_corpus(["abcd", "abce", "abcde"])
        hit = ner.TitleMatcher(corpus).match(ner.EntityMention("abcf"))
        assert hit.distance == 1
        assert hit.page_id == "abcd"  # both 4-char titles tie, lexicographic wins
        hit = ner.TitleMatcher(small_corpus(["aab", "ab"])).match(ner.EntityMention("aa"))
        assert (hit.page_id, hit.distance) == ("ab", 1)  # shorter beats lexicographic

    def test_result_minimal_over_all_titles(self, mini_corpus):
        matcher = ner.TitleMatcher(mini_corpus)
        norm = [ner.normalize_title(p) for p in matcher.page_ids]
        for surface in ["Stora Velt", "Kettle Hulm", "the ember regata", "Vesna"]:
            hit = matcher.match(ner.EntityMention(surface))
            q = ner.normalize_title(surface)
            assert hit.distance == min(lev_oracle(q, t) for t in norm)

    def test_lone_surrogate_title(self):
        # JSON can carry "\ud800"; ord() accepts it, plain utf-32 encoding does not
        corpus = small_corpus(["Ab\ud800", "Abc"])
        matcher = ner.TitleMatcher(corpus)
        hit = matcher.match(ner.EntityMention("Ab\ud800"))
        assert hit.page_id == "Ab\ud800" and hit.distance == 0
        assert matcher.match(ner.EntityMention("Abd")).distance == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ner.TitleMatcher(Corpus())

    def test_verifies_only_titles_that_pass_the_count_filter(self, monkeypatch):
        # 150 titles of 11..13 letters that share no bigram with the mentions,
        # a few near "harbor light", and 40-letter titles far from every length
        rng = np.random.default_rng(3)
        filler = sorted({"".join(rng.choice(list("wxyz"), size=rng.integers(11, 14)))
                         for _ in range(150)})
        near = ["Harbor_Light", "Harbor_Night", "Harbour_Light", "Harbor_Lights", "Arbor_Ligh"]
        far = ["w" * 40, "x" * 40]
        matcher = ner.TitleMatcher(small_corpus(filler + near + far))
        rounds, kernel = [], ner.edit_distances

        def spy(q_codes, q_offsets, t_codes, t_offsets, q_rows, t_rows):
            rounds.append(sorted(matcher.page_ids[t] for t in t_rows.tolist()))
            return kernel(q_codes, q_offsets, t_codes, t_offsets, q_rows, t_rows)

        monkeypatch.setattr(ner, "edit_distances", spy)
        assert matcher.match(ner.EntityMention("Harbor Light")).distance == 0
        assert rounds == [] and matcher.verified == 0  # exact titles are looked up

        # one edit: of the titles within 1 of its length, only those that share
        # at least m - 1 - 2 of its m - 1 bigram occurrences are verified
        query = "harbor lighx"
        window = [p for p in matcher.page_ids if abs(len(p) - len(query)) <= 1]
        passing = sorted(p for p in window
                         if shared_bigrams(query, ner.normalize_title(p)) >= len(query) - 3)
        hit = matcher.match(ner.EntityMention(query))
        assert (hit.page_id, hit.distance) == ("Harbor_Light", 1)
        assert rounds == [passing] and len(window) > 100
        assert passing == ["Harbor_Light", "Harbor_Lights", "Harbour_Light"]  # not _Night
        assert (matcher.verified, matcher.rounds) == (3, 1)

        # far off: no bigram is shared, so the first round starts at radius
        # ceil((10 - 1) / 2) = 5 with every title of length 5..15; the best, 10
        # (to Arbor_Ligh), widens it to 0..20, which holds no title more; every
        # title of the final window is verified once, and the 40-letter ones never
        rounds.clear()
        hit = matcher.match(ner.EntityMention("0123456789"))
        window = sorted(p for p in matcher.page_ids if abs(len(p) - 10) <= hit.distance)
        assert (hit.page_id, hit.distance) == ("Arbor_Ligh", 10) and len(rounds) == 2
        assert sorted(rounds[0] + rounds[1]) == window == sorted(filler + near)
        assert (matcher.verified, matcher.rounds) == (3 + len(window), 3)
        assert matcher.distances == {0: 1, 1: 1, 10: 1}

    def test_memory_does_not_grow_with_titles_times_longest_title(self):
        # a padded matrix of every title would be 2001 x 5000 int32, 38 MB
        corpus = small_corpus([f"Title_{i:04d}" for i in range(2000)] + ["L" * 5000])
        tracemalloc.start()
        try:
            matcher = ner.TitleMatcher(corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        hit = matcher.match(ner.EntityMention("Title 0x17"))
        assert (hit.page_id, hit.distance) == full_scan(matcher, "Title 0x17")
        assert (hit.page_id, hit.distance) == ("Title_0017", 1)


def full_scan(matcher, surface):
    """(page id, distance) of the first sorted title at the minimum oracle distance."""
    query = ner.normalize_title(surface)
    dists = [lev_oracle(query, ner.normalize_title(p)) for p in matcher.page_ids]
    pick = dists.index(min(dists))
    return matcher.page_ids[pick], dists[pick]


# "ß" casefolds to "ss" and "_" normalizes to " ", so lengths change; "\ud800"
# is a lone surrogate, which JSON can carry
LETTERS = st.sampled_from(["a", "A", "b", "B", "_", " ", "ß", "\ud800"])
TITLES = st.lists(LETTERS, min_size=1, max_size=9).map("".join)


@st.composite
def title_queries(draw):
    """Distinct page ids, and a query drawn apart or made from one title by
    0 to 4 insertions, deletions and substitutions."""
    titles = draw(st.lists(TITLES, min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        query = list(draw(st.sampled_from(titles)))
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(query)))
            op = draw(st.sampled_from(["insert", "delete", "substitute"]))
            if op == "insert":
                query.insert(at, draw(LETTERS))
            elif query:
                at = min(at, len(query) - 1)
                query[at:at + 1] = [] if op == "delete" else [draw(LETTERS)]
        query = "".join(query)
    else:
        query = draw(st.lists(LETTERS, min_size=1, max_size=16).map("".join))
    return titles, query


@settings(max_examples=400, deadline=None)
@given(case=title_queries())
@example(case=(["ab", "abcd", "abcdefgh"], "abc"))  # a tie at distance 1 across lengths
@example(case=(["xyzzz", "x"], "xyz"))  # a tie at distance 2, lengths 1 and 5
@example(case=(["bbbb", "aaaaaaa"], "aaaa"))  # best distance 3 comes from |Δlen| 3
@example(case=(["abcd", "ab"], "abxy"))  # a tie at 2 that only the widened scan finds
@example(case=(["A_b", "a_B", "ab"], "a b"))  # two ids with one normalized title
@example(case=(["A_b", "a_B"], "a B_"))
@example(case=(["ß", "ssa", "s"], "SS"))  # casefold makes the title longer
@example(case=(["ßß", "sssss"], "ßs"))
@example(case=(["a", "abababab"], "bbbbb"))  # no title within 1 of the query's length
@example(case=(["a\ud800", "ab", "\ud800"], "\ud800b"))  # lone surrogates
@example(case=(["aa", "b", "ab"], "a"))  # a one-character query
@example(case=(["aa", "b"], "_"))
def test_match_equals_full_scan(case):
    titles, query = case
    if not query.strip():
        return  # no mention has a blank surface
    matcher = ner.TitleMatcher(small_corpus(titles))
    hit = matcher.match(ner.EntityMention(query))
    assert (hit.page_id, hit.distance) == full_scan(matcher, query)


def shared_bigrams(a: str, b: str) -> int:
    """Bigram occurrences that a and b share, counted with multiplicity."""
    grams_a, grams_b = (Counter(s[i:i + 2] for i in range(len(s) - 1)) for s in (a, b))
    return sum((grams_a & grams_b).values())


def edited(draw, text: str) -> str:
    """text after 0 to 4 drawn insertions, deletions and substitutions."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            chars.insert(at, draw(LETTERS))
        elif chars:
            at = min(at, len(chars) - 1)
            chars[at:at + 1] = [] if op == "delete" else [draw(LETTERS)]
    return "".join(chars)


@st.composite
def mention_runs(draw):
    """Distinct page ids, and a run of 1 to 10 claims of one to three mentions:
    titles edited 0 to 4 times, queries drawn apart, and queries of one to
    three characters, too short for the bigram filter to rule out a title."""
    titles = draw(st.lists(TITLES, min_size=1, max_size=12, unique=True))
    claims = []
    for _ in range(draw(st.integers(1, 10))):
        queries = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["edited", "apart", "short"]))
            if kind == "edited":
                queries.append(edited(draw, draw(st.sampled_from(titles))))
            else:
                size = 16 if kind == "apart" else 3
                queries.append(draw(st.lists(LETTERS, min_size=1, max_size=size).map("".join)))
        claims.append([q for q in queries if q.strip()])
    return titles, claims


@settings(max_examples=300, deadline=None)
@given(case=mention_runs())
@example(case=(["xyzzz", "x", "abcd", "ab"], [["xyz"], ["abxy"], ["xyz", "abxy"]]))  # 2-ties
@example(case=(["bbbb", "aaaaaaa", "a"], [["aaaa"], ["bbbbbbbbb"], ["b"]]))  # a tie at 3
@example(case=(["ß", "ssa", "s", "ßß", "sssss"], [["SS"], ["ßs"], ["ß"]]))  # casefold
@example(case=(["a\ud800", "ab", "\ud800", "\ud800\ud800b"],
               [["\ud800b"], ["b\ud800"], ["\ud800"]]))  # lone surrogates
@example(case=(["aa", "b", "ab", "A_b"], [["a"], ["_"], ["B"], ["ba", "a b"]]))  # short queries
def test_one_call_matches_every_mention_as_a_full_scan(case):
    titles, claims = case
    corpus = small_corpus(titles)
    mentions = [[ner.EntityMention(q) for q in queries] for queries in claims]
    pages, counts = ner.matched_pages(corpus, mentions)
    matcher = ner.TitleMatcher(corpus)
    want = [[full_scan(matcher, q) for q in queries] for queries in claims]
    assert pages == [{page for page, _ in hits} for hits in want]
    assert counts.distances == Counter(d for hits in want for _, d in hits)
    inexact = {ner.normalize_title(q) for queries in claims for q in queries} - \
        {ner.normalize_title(t) for t in titles}
    assert counts.verified <= len(inexact) * len(titles)
    assert (counts.rounds == 0) == (not inexact)


def candidates(corpus, claim):
    """The entity route's candidates for one claim, as cli.retrieve_candidates
    lists them: the sentence table of the pages its mentions match."""
    pages = ner.matched_pages(corpus, [ner.claim_mentions(claim)])[0][0]
    table = corpus.sentence_table(pages)
    return table.refs(np.arange(len(table.texts)))


class TestCandidateSentences:
    def test_single_entity_expands_document(self):
        corpus = small_corpus(["Alpha_Beta"])
        refs = candidates(corpus, "Facts about Alpha Beta here.")
        # line 1 is empty and must be excluded
        assert refs == [SentenceRef("Alpha_Beta", 0), SentenceRef("Alpha_Beta", 2)]

    def test_no_entities_empty(self, mini_corpus):
        assert candidates(mini_corpus, "the cat sat") == []

    def test_two_entities_same_document_dedup(self):
        corpus = small_corpus(["Alpha_Beta"])
        refs = candidates(corpus, "Both Alpha Beta and Alpha Beta look identical.")
        assert len(refs) == len(set(refs)) == 2

    def test_sorted_output(self, mini_corpus):
        refs = candidates(mini_corpus, "Some facts about Stora Velt and Kettle Holm.")
        assert refs == sorted(refs)
        assert SentenceRef("Kettle_Holm", 0) in refs
