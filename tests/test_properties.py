"""Property-based tests (SURVEY §5): invariants that must hold for ALL
inputs, not just fixtures.  Mirrors the reference's differential-testing
habit (fast/slow EMD cross-check, ``dictionary_langid/datatypes.py:337-341``).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from language_identification_ray.functions.textnorm import truncate_text
from language_identification_ray.functions.tokenizer import (
    BatchTokens,
    sentence_split,
    tokenize,
)

TEXT = st.text(max_size=400)
# digit-free text for scrub idempotence: clamping digit runs can legitimately
# create new phone-shaped strings, so idempotence is only claimed off-digits
TEXT_NO_DIGITS = st.text(
    alphabet=st.characters(blacklist_categories=("Nd", "Nl", "No", "Cs")), max_size=300
)


@settings(max_examples=200, deadline=None)
@given(TEXT, st.integers(min_value=1, max_value=200))
def test_truncate_never_exceeds_byte_cap(text, cap):
    out = truncate_text(text, max_bytes_length=cap)
    assert len(out.encode("utf-8")) <= cap
    # result is a (stripped) substring of the input — truncate_text strips
    # edge whitespace after cutting, per the reference contract
    assert out in text


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_tokenize_partitions_the_string(text):
    toks = tokenize(text, words_only=False)
    assert "".join(toks) == text


@settings(max_examples=100, deadline=None)
@given(st.lists(TEXT, max_size=8))
def test_batch_tokens_match_per_doc_tokenize(texts):
    bt = BatchTokens(texts)
    for d, words in bt.iter_doc_words():
        assert words == tokenize(texts[d], words_only=True)
    counts = bt.words_per_doc()
    for d, t in enumerate(texts):
        assert counts[d] == len(tokenize(t, words_only=True))


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_sentences_are_substrings(text):
    for s in sentence_split(text):
        assert s in text


@settings(max_examples=100, deadline=None)
@given(TEXT_NO_DIGITS)
def test_scrub_is_idempotent_on_text(text):
    from language_identification_ray.stages.scrub import Scrubber

    sc = Scrubber()
    once, *_ = sc.scrub_one(text)
    twice, *_ = sc.scrub_one(once)
    assert twice == once


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200), st.text(max_size=200))
def test_minhash_est_bounds_and_symmetry(a, b):
    from language_identification_ray.stages.dedup import MinHasher, jaccard, word_shingles

    mh = MinHasher(32)
    sa, sb = mh.signature(word_shingles(a)), mh.signature(word_shingles(b))
    est = mh.est_jaccard(sa, sb)
    assert 0.0 <= est <= 1.0
    assert est == mh.est_jaccard(sb, sa)
    assert jaccard(word_shingles(a), word_shingles(b)) == jaccard(
        word_shingles(b), word_shingles(a)
    )


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=100), st.text(max_size=100))
def test_edit_distance_metric_properties(a, b):
    from language_identification_ray.functions.strings import levenshtein

    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert (d == 0) == (a == b)
    assert d <= max(len(a), len(b))


@settings(max_examples=100, deadline=None)
@given(st.lists(TEXT, max_size=8))
def test_word_ids_exact_dictionary_encoding(texts):
    """word_ids is an EXACT dict-encode: same id ⟺ same word string, and the
    representative slices decode to the id's word."""
    bt = BatchTokens(texts)
    uid, ustarts, ulens = bt.word_ids()
    words = [bt.joined[s:e] for s, e in zip(bt.word_starts, bt.word_ends)]
    by_str = {}
    for w, i in zip(words, uid):
        assert by_str.setdefault(w, i) == i  # same string → same id
    assert len(by_str) == len(ustarts)  # distinct strings → distinct ids
    for w, i in by_str.items():
        s, l = int(ustarts[i]), int(ulens[i])
        assert bt.joined[s : s + l] == w


def test_word_ids_long_shared_prefix_distinct():
    """Words sharing a 70-codepoint prefix but differing later get distinct
    ids, and repeats of each share one id — the encoder compares whole words,
    not a bounded prefix."""
    base = "x" * 70
    a, b, c = base + "aaa", base + "bbb", base + "aaa"
    bt = BatchTokens([f"{a} {b} {c} {a}"])
    uid, ustarts, ulens = bt.word_ids()
    assert uid[0] == uid[2] == uid[3] and uid[0] != uid[1]
    assert len(ustarts) == 2


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(max_size=120), min_size=1, max_size=6),
    st.lists(st.sampled_from(["en", "de", "tr", "zh", "xx", None]), min_size=6, max_size=6),
)
def test_quality_stats_match_per_doc_reference(texts, langs):
    """Differential: the vectorized QualityStats kernels must equal the
    per-document reference semantics (frozenset membership per occurrence,
    Counter 3-grams, _count_sentences regex, str.split line scan)."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa

    from language_identification_ray.stages.quality import QualityStats, _count_sentences
    from language_identification_ray.state.stopwords import STOPWORDS

    langs = langs[: len(texts)]
    out = QualityStats()(pa.table(
        {"text": pa.array(texts, pa.string()), "lang": pa.array(langs, pa.string())}
    ))
    stop_union = frozenset().union(*STOPWORDS.values())
    bt = BatchTokens(texts)
    n_words = bt.words_per_doc()
    for d, words in bt.iter_doc_words():
        t = texts[d]
        low = [w.lower() for w in words]
        stop = STOPWORDS.get(langs[d]) or stop_union
        hits = sum(1 for w in low if w in stop)
        assert out["q_stopword_hits"][d].as_py() == hits
        exp_dup = 0.0
        if len(low) >= 3:
            grams = Counter(zip(low, low[1:], low[2:]))
            exp_dup = (len(low) - 2 - len(grams)) / (len(low) - 2)
        assert out["q_dup_ngram_frac"][d].as_py() == exp_dup
        exp_sent = max(_count_sentences(t), 1 if n_words[d] else 0) if t else 0
        assert out["q_n_sentences"][d].as_py() == exp_sent
        if not t:
            exp_mlf = 0.0
        elif "\n" in t:
            exp_mlf = max(len(line) for line in t.split("\n")) / len(t)
        else:
            exp_mlf = 1.0
        assert out["q_max_line_frac"][d].as_py() == exp_mlf


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(max_size=600), max_size=6))
def test_loglik_batch_bit_identical_to_score_doc(texts):
    """The batch-hoisted encode/hash path must stay BIT-identical to the
    scalar _score_doc (same gather, same float64 pairwise sum per doc)."""
    import numpy as np

    from language_identification_ray.stages.langid import NgramDetector, SCORE_MAX_CHARS

    det = NgramDetector()
    rows = np.arange(len(det.langs))
    ll = det.loglik_batch(texts, rows)
    for d, t in enumerate(texts):
        assert np.array_equal(ll[d], det._score_doc(t[:SCORE_MAX_CHARS]))


def _per_doc_score_arrays(model, texts):
    """(w0, w1, w2, doc) built per document through lm_sentences + padding —
    the construction the batch-level LM prep must reproduce exactly."""
    import numpy as np

    from language_identification_ray.functions.kneser_ney import BOS, EOS, lm_sentences

    tid = model._idx["tid"]
    bos, eos = tid[BOS], tid[EOS]
    ids, doc_of, valid = [], [], []
    for d, text in enumerate(texts):
        for toks in lm_sentences(text or ""):
            seq = [bos, bos] + [tid.get(t, 0) for t in toks] + [eos]
            ids.extend(seq)
            doc_of.extend([d] * len(seq))
            valid.extend([False, False] + [True] * (len(seq) - 2))
    I = np.asarray(ids, np.int64)
    D = np.asarray(doc_of, np.int64)
    pos = np.flatnonzero(np.asarray(valid, bool))
    if not len(ids):
        return tuple(np.empty(0, np.int64) for _ in range(4))
    return I[pos - 2], I[pos - 1], I[pos], D[pos]


def _assert_lm_prep_matches_per_doc(texts):
    import numpy as np

    from language_identification_ray.functions.kneser_ney import BOS, EOS
    from language_identification_ray.stages.perplexity import PerplexityScorer

    model = PerplexityScorer().model
    model._build_index()
    tid = model._idx["tid"]
    got = model._prep_score_arrays(texts, tid, tid[BOS], tid[EOS])
    expected = _per_doc_score_arrays(model, texts)
    assert len(got) == 4
    for a, b in zip(expected, got):
        assert np.array_equal(a, b)
    return model


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.text(st.characters(blacklist_categories=()), max_size=150), max_size=5
    )
)
def test_lm_prep_arrays_match_per_doc_path(texts):
    """The batch-level LM score-array builder must produce EXACTLY the
    (w0, w1, w2, doc) arrays the per-document lm_sentences + padding loop
    yields, in the same order (the bincount fold then matches bit-for-bit).
    The alphabet includes lone surrogates (category Cs)."""
    _assert_lm_prep_matches_per_doc(texts)


def test_lm_prep_surrogates_match_per_doc_path():
    """Lone surrogates (surrogateescape-decoded bytes) are boundaries on the
    batch path, exactly as lm_sentences drops them — no crash, no change in
    tokenization, and the documents are still scored."""
    model = _assert_lm_prep_matches_per_doc(
        ["caf\udce9", "caf\udce9 test. ok", "\ud83d\ude00x \udfff-y' z"]
    )
    ppl = model.perplexity_batch(["caf\udce9 test. ok", "plain text here."])
    assert all(p == p for p in ppl)  # scored, not NaN


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.text(max_size=20)), min_size=0, max_size=50
    )
)
def test_null_safe_key_roundtrip(values):
    """tag → restore is the identity for ANY nullable string key column —
    including the collision pair None vs '' — so every two-key groupby
    preserves SQL GROUP BY key semantics."""
    import pyarrow as pa

    from language_identification_ray.pipelines.analysis import (
        _restore_key,
        _tag_key,
    )

    batch = pa.table({"lang": pa.array(values, pa.string())})
    tagged = _tag_key(batch, "lang", ())
    # ("", False) and ("", True) must stay distinct group keys
    keys = list(zip(tagged["lang_key"].to_pylist(), tagged["lang_null"].to_pylist()))
    assert len({(k, n) for k, n in keys}) == len(set(values))
    restored = _restore_key(tagged, "lang", ())
    assert restored["lang"].to_pylist() == values


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=40))
def test_ntile_closed_form_matches_remainder_rule(n, B):
    """stratified_sample's closed-form bucket must equal the SQL ntile
    definition for every (n, B): the first n%B buckets hold n//B+1 rows,
    the rest n//B; every rank lands in exactly one bucket, sizes ordered."""
    import numpy as np

    if n == 0:
        return
    rnk = np.arange(1, n + 1, dtype=np.int64)
    q, big = n // B, n % B
    thresh = big * (q + 1)
    bucket = np.where(
        rnk <= thresh,
        (rnk - 1) // (q + 1) + 1,
        big + (rnk - thresh - 1) // max(q, 1) + 1,
    )
    # naive ntile: deal ranks into buckets of size q+1 (first `big`) then q
    sizes = [q + 1] * big + [q] * (B - big)
    sizes = [s for s in sizes if s > 0]
    naive = np.repeat(np.arange(1, len(sizes) + 1, dtype=np.int64), sizes)
    assert np.array_equal(bucket, naive)
    assert bucket.min() == 1 and bucket.max() == min(B, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_ordered_pair_expansion_covers_all_pairs(seg_sizes):
    """source_unigram_kl's vectorized ordered-pair expansion must produce
    exactly the a≠b pairs of each segment, no dupes, no cross-segment."""
    import numpy as np

    from language_identification_ray.pipelines.analysis import _segment_aranges

    v = np.asarray(seg_sizes, dtype=np.int64)
    seg_start = np.concatenate([[0], np.cumsum(v)[:-1]])
    m = v * (v - 1)
    if int(m.sum()) == 0:
        return
    q = _segment_aranges(np.zeros(len(m), dtype=np.int64), m)
    vv = np.repeat(v, m)
    ss = np.repeat(seg_start, m)
    i = q // (vv - 1)
    r = q % (vv - 1)
    j = r + (r >= i)
    got = set(zip((ss + i).tolist(), (ss + j).tolist()))
    expect = set()
    for s, size in zip(seg_start.tolist(), v.tolist()):
        for a in range(s, s + size):
            for b in range(s, s + size):
                if a != b:
                    expect.add((a, b))
    assert got == expect and len(got) == int(m.sum())


# every code point str.isspace() accepts, plus newline-adjacent edge cases
# (NUL, a lone surrogate) and a few non-space letters between them
_WS_ALPHABET = [chr(c) for c in range(0x110000) if chr(c).isspace()] + [
    "\n", "\x00", "\ud800", "a", "é", "中",
]


def _collapse_regex_form(text: str) -> str:
    import re

    text = re.sub(r"[^\S\n]+", " ", text)
    return re.sub(r"[^\S\n]*\n[\s]*", "\n", text).strip()


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(_WS_ALPHABET), max_size=80))
def test_collapse_whitespace_matches_regex_form(text):
    from language_identification_ray.stages.decode import collapse_whitespace

    assert collapse_whitespace(text) == _collapse_regex_form(text)
