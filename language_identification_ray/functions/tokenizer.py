"""Vectorized Unicode tokenization over Arrow/numpy batches.

Semantics follow the reference tokenizer (reference ``tokenizer.py:148-178``:
word chars = Unicode categories L* + M*; whitespace = Unicode spaces;
everything else — punctuation, symbols, digits-as-separate-class, and
unprintables — is a token boundary) but the implementation is batch-first:
texts in a batch are joined into one codepoint array, classified with a single
dense-table gather, and word boundaries come from one vectorized diff — no
per-character Python loop (the reference walks chars one at a time,
``tokenizer.py:254-347``; that is GIL-bound and does not scale).

Digits: the reference's ``is_word_char`` excludes Nd/Nl/No, so ``unicode61``-
style words never contain digits; we match that (class 3 is a boundary).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from language_identification_ray.state.scripts import load_chartables

# char classes baked by scripts/gen_chartables.py
CLS_PUNCT = 0
CLS_WORD = 1
CLS_SPACE = 2
CLS_DIGIT = 3
CLS_UNPRINTABLE = 4


def codepoints(text: str) -> np.ndarray:
    """str → uint32 codepoint array (zero-copy-ish via UTF-32 encode).
    Lone surrogates (surrogateescape-decoded bytes) become '?' (encode-replace) instead
    of raising mid-batch."""
    return np.frombuffer(text.encode("utf-32-le", errors="replace"), dtype=np.uint32)


def classify(text: str) -> np.ndarray:
    charclass, _ = load_chartables()
    return charclass[codepoints(text)]


def segment_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated aranges ``[s0, s0+l0) ++ [s1, s1+l1) ++ ...`` (int64),
    vectorized (no per-segment Python).  Zero-length segments contribute
    nothing.  Used for batch-level char gathers over word slices."""
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    nz = lens > 0
    if not nz.all():
        starts, lens = starts[nz], lens[nz]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ptr = np.cumsum(lens)[:-1]
    out[0] = starts[0]
    # at each segment boundary, jump from (prev start + prev len - 1) + 1
    out[ptr] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


def dict_encode_segments(
    cps: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact dictionary encoding of non-overlapping, ascending codepoint
    segments of ``cps``.

    Returns ``(uid, ustarts, ulens)``: ``uid`` is int64[n_segments] with
    ``uid[i] == uid[j]`` iff segments i and j are codepoint-identical, ids
    numbered in order of first occurrence; ``ustarts``/``ulens`` locate that
    first occurrence of each distinct segment.

    The segments are viewed zero-copy as the even elements of a
    ``LargeBinaryArray`` over the UTF-32 buffer (offsets = interleaved
    segment starts and ends × 4), gathered with one ``take`` and encoded by
    Arrow's hash kernel, which compares bytes — exact by construction."""
    m = len(starts)
    if m == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    offsets = np.empty(2 * m, dtype=np.int64)
    offsets[0::2] = starts * 4
    offsets[1::2] = (starts + lens) * 4
    spans = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), 2 * m - 1, [None, pa.py_buffer(offsets), pa.py_buffer(cps)]
    )
    words = spans.take(pa.array(np.arange(0, 2 * m, 2)))
    uid = pc.dictionary_encode(words).indices.to_numpy().astype(np.int64)
    # ids are handed out in first-occurrence order: a new id is a new max
    seen = np.maximum.accumulate(uid)
    first = np.concatenate([[0], np.flatnonzero(seen[1:] > seen[:-1]) + 1])
    return uid, starts[first], lens[first]


class BatchTokens:
    """All word-token boundaries for a batch of texts, computed vectorized.

    Joins the batch into one buffer (separator = '\\n', class SPACE), gathers
    char classes in one shot, and exposes per-document word slices.
    """

    __slots__ = ("joined", "doc_offsets", "word_starts", "word_ends", "word_doc", "cls", "cps", "n_docs", "_doc_of", "_word_uids")

    def __init__(self, texts: Sequence[str]):
        n = len(texts)
        self.n_docs = n
        joined = "\n".join(texts) if n else ""
        self.joined = joined
        cps = codepoints(joined)
        charclass, _ = load_chartables()
        cls = charclass[cps] if len(cps) else np.empty(0, dtype=np.uint8)
        self.cps = cps
        self.cls = cls

        lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
        # start offset of each doc inside `joined` (separator adds +1)
        self.doc_offsets = np.concatenate([[0], np.cumsum(lens + 1)])  # len n+1; last = len+1

        is_word = cls == CLS_WORD
        if len(cls):
            prev = np.concatenate([[False], is_word[:-1]])
            nxt = np.concatenate([is_word[1:], [False]])
            starts = np.flatnonzero(is_word & ~prev)
            ends = np.flatnonzero(is_word & ~nxt) + 1
        else:
            starts = np.empty(0, dtype=np.int64)
            ends = np.empty(0, dtype=np.int64)
        self.word_starts = starts
        self.word_ends = ends
        # doc id per word: searchsorted the word start into doc offsets
        self.word_doc = np.searchsorted(self.doc_offsets[1:], starts, side="right") if n else starts
        self._doc_of = None
        self._word_uids = None

    def doc_of_char(self) -> np.ndarray:
        """int64[len(cps)] — owning doc index per joined-buffer position
        (separators attribute to the preceding doc boundary's right side).
        Computed once and cached: class counts, scrub gates, and any other
        per-char fold share it instead of re-running the searchsorted."""
        if self._doc_of is None:
            self._doc_of = np.searchsorted(
                self.doc_offsets[1:], np.arange(len(self.cls)), side="right"
            )
        return self._doc_of

    def words_per_doc(self) -> np.ndarray:
        """int64[n_docs] — number of word tokens per document."""
        return np.bincount(self.word_doc, minlength=self.n_docs).astype(np.int64)

    def word_char_count_per_doc(self) -> np.ndarray:
        """total word-token chars per document."""
        lengths = self.word_ends - self.word_starts
        return np.bincount(self.word_doc, weights=lengths, minlength=self.n_docs).astype(np.int64)

    def class_counts_per_doc(self) -> np.ndarray:
        """int64[n_docs, 5] — count of each char class per document.

        Separator chars ('\\n' between docs) are attributed to the *following*
        doc's space count; call sites that care subtract one, but for ratios
        over large docs the off-by-one is irrelevant — we instead exclude them
        exactly by masking the separator positions.
        """
        n = self.n_docs
        if n == 0:
            return np.zeros((0, 5), dtype=np.int64)
        doc_of_char = self.doc_of_char()
        # mask separators (the char AT doc_offsets[1:]-1 for docs 0..n-2)
        mask = np.ones(len(self.cls), dtype=bool)
        sep_pos = self.doc_offsets[1:-1] - 1
        mask[sep_pos] = False
        key = doc_of_char[mask] * 5 + self.cls[mask]
        flat = np.bincount(key, minlength=n * 5)
        return flat.reshape(n, 5).astype(np.int64)

    def word_ids(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact batch-level dictionary encoding of the word tokens
        (:func:`dict_encode_segments` over ``cps``).

        Returns ``(uid, ustarts, ulens)``: ``uid`` is int64[n_words] with
        ``uid[i] == uid[j]`` iff words i and j are codepoint-identical;
        ``ustarts``/``ulens`` locate the first occurrence of each distinct
        word inside ``joined`` (so distinct word k is
        ``joined[ustarts[k] : ustarts[k] + ulens[k]]``).  Cached per batch:
        quality stats and any other per-word fold pay the encode once and
        do Python work per DISTINCT word only.
        """
        if self._word_uids is None:
            self._word_uids = dict_encode_segments(
                self.cps, self.word_starts, self.word_ends - self.word_starts
            )
        return self._word_uids

    def iter_doc_words(self) -> Iterator[Tuple[int, List[str]]]:
        """Yield (doc_idx, [word, ...]) materializing word strings per doc."""
        joined = self.joined
        starts, ends, docs = self.word_starts, self.word_ends, self.word_doc
        i, m = 0, len(starts)
        for d in range(self.n_docs):
            words = []
            while i < m and docs[i] == d:
                words.append(joined[starts[i] : ends[i]])
                i += 1
            yield d, words

    def doc_words(self, d: int) -> List[str]:
        sel = np.flatnonzero(self.word_doc == d)
        return [self.joined[self.word_starts[i] : self.word_ends[i]] for i in sel]


# the three apostrophe forms the reference merges (ref ``tokenizer.py:141-145``):
# ASCII, right curly quote, full-width
APOSTROPHES = frozenset({"'", "’", "＇"})


def merge_apostrophe_words(tokens: Iterator[Tuple[str, bool]]) -> Iterator[Tuple[str, bool]]:
    """Re-join WORD apostrophe WORD into one word token (max one apostrophe),
    reference ``unicode_tokenize(merge_apostrophe_word=True)`` semantics
    (``tokenizer.py:181-251``): the merge happens only when the trailing word
    is followed by a NON-apostrophe token (or end of stream); a second
    apostrophe cancels the merge and suppresses merging until the
    word/apostrophe run ends.  Input/output: (text, is_word) pairs.

    Examples (ref docstring, ``tokenizer.py:358-365``): ``O'reilly`` and
    ``wasn’t`` merge; ``wasn‘t`` does not (left quote); ``a'b'c`` stays
    split; ``test’oops`` merges even across an opening-quote context (the
    reference documents that case as undesirable but defined).

    Reference parity note (``tokenizer.py:181-251``): a standalone
    apostrophe in word position — e.g. the OPENING quote of 'quoted
    speech' — sets the same wait state as the reference's
    ``_merge_apostrophes_into_words``, so contractions inside
    straight-quoted spans do not merge on either implementation.
    """
    w1 = apos = w2 = None
    wait = False
    for text, is_word in tokens:
        if wait:
            wait = is_word or text in APOSTROPHES
            yield text, is_word
        elif w1 is None:
            if is_word:
                w1 = text
            else:
                wait = text in APOSTROPHES
                yield text, is_word
        elif apos is None:
            # runs alternate, so this token is non-word
            if text in APOSTROPHES:
                apos = text
            else:
                yield w1, True
                w1 = None
                yield text, is_word
        elif w2 is None:
            if is_word:
                w2 = text
            else:
                wait = text in APOSTROPHES
                yield w1, True
                yield apos, False
                w1 = apos = None
                yield text, is_word
        else:
            if text not in APOSTROPHES:
                yield w1 + apos + w2, True
            else:
                wait = True
                yield w1, True
                yield apos, False
                yield w2, True
            w1 = apos = w2 = None
            yield text, is_word
    if w2 is not None:
        yield w1 + apos + w2, True
    elif apos is not None:
        yield w1, True
        yield apos, False
    elif w1 is not None:
        yield w1, True


def tokenize(text: str, words_only: bool = True, merge_apostrophes: bool = False) -> List[str]:
    """Single-document tokenize, matching reference ``unicode_tokenize``
    (``tokenizer.py:350-395``) for the words_only path: maximal runs of
    word chars.  With words_only=False also returns the runs of every other
    class (spaces are runs; each punct/digit char is part of its run).
    ``merge_apostrophes=True`` applies the reference's apostrophe-merge
    post-pass (``don't`` → one token) — see :func:`merge_apostrophe_words`."""
    cls = classify(text)
    if not len(cls):
        return []
    change = np.flatnonzero(np.concatenate([[True], cls[1:] != cls[:-1]]))
    bounds = np.concatenate([change, [len(cls)]])
    runs = [
        (text[bounds[i] : bounds[i + 1]], cls[bounds[i]] == CLS_WORD)
        for i in range(len(change))
    ]
    if merge_apostrophes:
        runs = list(merge_apostrophe_words(iter(runs)))
    return [t for t, is_word in runs if is_word or not words_only]


def sentence_split(text: str) -> List[str]:
    """Good-enough sentence splitting, per the reference heuristic
    (``tokenizer.py:398-466``): split on newlines into paragraphs, then end a
    sentence when closing punctuation ('.', '!', '?', '…', '。', '！', '？')
    is followed by whitespace.  ``192.168.1.1`` stays one sentence because the
    digit after '.' un-closes it (no whitespace follows the dot)."""
    closers = ".!?…。！？"
    out: List[str] = []
    for para in text.split("\n"):
        para = para.strip()
        if not para:
            continue
        start = 0
        closed = False
        for i, ch in enumerate(para):
            if closed and ch.isspace():
                seg = para[start:i].strip()
                if seg:
                    out.append(seg)
                start = i
                closed = False
            else:
                closed = ch in closers
        seg = para[start:].strip()
        if seg:
            out.append(seg)
    return out


def char_ngrams(text: str, n: int = 2) -> List[str]:
    """char n-grams by slicing (reference ``tokenizer.py:469-474``)."""
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def word_ngrams(words: Sequence[str], n: int) -> Iterator[Tuple[str, ...]]:
    """word n-grams over an already-tokenized word list
    (reference ``tokenizer.py:477-505`` semantics, minus re-tokenization)."""
    return zip(*[words[i:] for i in range(n)])
