"""Quality-statistics stage: Gopher/C4-style per-document signals.

Computes, per document (vectorized over the batch via
:class:`~language_identification_ray.functions.tokenizer.BatchTokens` — one
numpy classification pass for the whole batch):

  * n_words, n_sentences, mean_word_len
  * symbol_word_ratio  (punct+symbol chars / words; reference README design
    notes on gibberish filtering, README.md:128-153)
  * digit_ratio        (digit chars / non-space chars)
  * stopword_ratio + stopword_hits (per detected language; the reference uses
    stopwords-iso for its wordlist jobs, merge_wordlists.ipynb cell 2)
  * max_line_frac      (longest line / total chars — boilerplate/nav signal)
  * dup_ngram_frac     (fraction of word 3-grams that are repeats — the
    repetition dedup signal specified in reference README.md:149-153)

Emitted as flat ``q_*`` float/int columns (flat > struct for Parquet
predicate pushdown at 100 TB; the final output assembles the ``quality``
struct per the BASELINE output schema).

Stateful only for the broadcast stopword tables → runs as an actor pool.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from language_identification_ray.functions.tokenizer import (
    BatchTokens,
    CLS_DIGIT,
    CLS_PUNCT,
    CLS_SPACE,
)
from language_identification_ray.stages.langid import set_or_append
from language_identification_ray.state.scripts import load_nd_table
from language_identification_ray.state.stopwords import STOPWORDS

_SENTENCE_ENDERS = (".", "!", "?", "…", "。", "！", "？")

# sentence counting: runs of enders count ONCE ("..." is one boundary) and a
# '.' between digits (decimals, versions, IPs) is not an ender — the same
# no-close-on-digit heuristic as functions.tokenizer.sentence_split
_RE_DECIMAL_DOT = re.compile(r"(?<=\d)\.(?=\d)")
_RE_SENT_RUN = re.compile("[" + re.escape("".join(_SENTENCE_ENDERS)) + "]+")

_ENDER_CPS = np.array(sorted(ord(c) for c in _SENTENCE_ENDERS), dtype=np.uint32)
_DOT = np.uint32(ord("."))
_NL = np.uint32(ord("\n"))


def _count_sentences(text: str) -> int:
    """Single-doc scalar form; the batch path in QualityStats.__call__ is a
    vectorized equivalent (see the parity argument there)."""
    return len(_RE_SENT_RUN.findall(_RE_DECIMAL_DOT.sub("", text)))



class QualityStats:
    """``ds.map_batches(QualityStats, batch_format="pyarrow", concurrency=N)``"""

    def __init__(self, text_column: str = "text", lang_column: str = "lang"):
        self.text_column = text_column
        self.lang_column = lang_column
        self.stopwords = STOPWORDS
        # union set as the fallback when lang is unknown/unsupported
        self.stop_union = frozenset().union(*STOPWORDS.values())
        # word → per-language membership bitmask (17 langs < 32 bits); one
        # dict lookup per DISTINCT word per batch replaces one frozenset
        # lookup per word occurrence.  mask != 0 ⇔ membership in stop_union.
        self._lang_bit = {l: i for i, l in enumerate(sorted(STOPWORDS))}
        self._stop_mask: dict = {}
        for lang, words in STOPWORDS.items():
            bit = 1 << self._lang_bit[lang]
            for w in words:
                self._stop_mask[w] = self._stop_mask.get(w, 0) | bit

    def __call__(self, batch: pa.Table, texts=None, bt=None) -> pa.Table:
        if texts is None:
            texts = [t or "" for t in batch[self.text_column].to_pylist()]
        langs = (
            batch[self.lang_column].to_pylist()
            if self.lang_column in batch.schema.names
            else [None] * len(texts)
        )
        n = len(texts)
        if bt is None:
            bt = BatchTokens(texts)

        n_words = bt.words_per_doc()
        word_chars = bt.word_char_count_per_doc()
        cls_counts = bt.class_counts_per_doc()  # [n, 5]
        n_chars = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)

        mean_word_len = np.divide(
            word_chars, n_words, out=np.zeros(n, dtype=np.float64), where=n_words > 0
        )
        symbol_word_ratio = np.divide(
            cls_counts[:, CLS_PUNCT],
            n_words,
            out=np.zeros(n, dtype=np.float64),
            where=n_words > 0,
        )
        non_space = n_chars - cls_counts[:, CLS_SPACE]
        digit_ratio = np.divide(
            cls_counts[:, CLS_DIGIT],
            non_space,
            out=np.zeros(n, dtype=np.float64),
            where=non_space > 0,
        )

        stopword_hits = np.zeros(n, dtype=np.int64)
        stopword_ratio = np.zeros(n, dtype=np.float64)
        dup_ngram_frac = np.zeros(n, dtype=np.float64)
        # languages without a stopword table can never hit the union
        # fallback (it holds only Latin/Cyrillic/Greek-script words), so the
        # stopword RULE must know the count is unsupported rather than zero —
        # otherwise every ≥20-word Arabic/Korean/Hindi/... doc is dropped
        stopword_known = np.array([bool(self.stopwords.get(l)) for l in langs], dtype=bool)

        # --- stopword hits + dup-3gram fraction, vectorized -----------------
        # Word identity comes from the batch's exact dictionary encoding
        # (BatchTokens.word_ids — Arrow's hash kernel over the UTF-32 word
        # bytes); Python work (slice + str.lower + one dict get) happens
        # once per DISTINCT raw word, at its first occurrence, not once per
        # occurrence.
        # str.lower() on the decoded word keeps full-string lowercase
        # semantics (İ → i̇ etc.) — a per-codepoint table would diverge.
        uid, ustarts, ulens = bt.word_ids()
        docw = bt.word_doc
        if len(uid):
            joined = bt.joined
            lmap: dict = {}
            lid_of_u = np.fromiter(
                (
                    lmap.setdefault(joined[s : s + l].lower(), len(lmap))
                    for s, l in zip(ustarts.tolist(), ulens.tolist())
                ),
                dtype=np.int64,
                count=len(ustarts),
            )
            umask = np.zeros(len(lmap), dtype=np.uint32)
            getmask = self._stop_mask.get
            for wstr, lid in lmap.items():
                v = getmask(wstr)
                if v:
                    umask[lid] = v
            wlid = lid_of_u[uid]  # lowered word id per occurrence
            wmask = umask[wlid]
            bitidx = np.fromiter(
                (self._lang_bit.get(l, 0) for l in langs), dtype=np.uint32, count=n
            )
            # per occurrence: lang-specific bit when the doc's language has a
            # table, else union membership (mask != 0) — exactly the old
            # `stopwords.get(lang) or stop_union` per-doc fallback
            hitv = np.where(
                stopword_known[docw],
                (wmask >> bitidx[docw]) & 1,
                (wmask != 0).astype(np.uint32),
            )
            stopword_hits = np.bincount(docw, weights=hitv, minlength=n).astype(np.int64)
            stopword_ratio = np.divide(
                stopword_hits, n_words, out=stopword_ratio, where=n_words > 0
            )
            # distinct 3-grams per doc == len(Counter(zip(w, w[1:], w[2:])));
            # 4-key lexsort (doc, id0, id1, id2) then count group firsts — no
            # packed-int overflow path needed
            if len(wlid) >= 3:
                same = docw[:-2] == docw[2:]
                if same.any():
                    td = docw[:-2][same]
                    ta, tb, tc = wlid[:-2][same], wlid[1:-1][same], wlid[2:][same]
                    order = np.lexsort((tc, tb, ta, td))
                    tds, sa, sb, sc = td[order], ta[order], tb[order], tc[order]
                    newg = np.empty(len(tds), dtype=bool)
                    newg[0] = True
                    newg[1:] = (
                        (tds[1:] != tds[:-1])
                        | (sa[1:] != sa[:-1])
                        | (sb[1:] != sb[:-1])
                        | (sc[1:] != sc[:-1])
                    )
                    distinct = np.bincount(tds[newg], minlength=n)
                    total = np.bincount(td, minlength=n)
                    dup_ngram_frac = np.divide(
                        (total - distinct).astype(np.float64),
                        total,
                        out=dup_ngram_frac,
                        where=total > 0,
                    )

        # --- n_sentences + max_line_frac, vectorized over the joined buffer -
        # Parity with the scalar _count_sentences: a decimal dot's neighbors
        # are Nd digits (never enders), so _RE_DECIMAL_DOT's char removal can
        # never merge two ender runs — masking the dot is equivalent to
        # removing it.  The '\n' doc separator is not an ender and not Nd, so
        # runs and lookarounds never leak across document boundaries.
        n_sentences = np.zeros(n, dtype=np.int64)
        max_line_frac = np.zeros(n, dtype=np.float64)
        cps = bt.cps
        if len(cps):
            doc_of = bt.doc_of_char()
            is_ender = np.isin(cps, _ENDER_CPS)
            if is_ender.any():
                nd = load_nd_table()[cps].view(bool)
                is_dot = cps == _DOT
                decimal = np.zeros(len(cps), dtype=bool)
                decimal[1:-1] = is_dot[1:-1] & nd[:-2] & nd[2:]
                e = is_ender & ~decimal
                run_start = e.copy()
                run_start[1:] = e[1:] & ~e[:-1]
                n_sentences = np.bincount(doc_of[run_start], minlength=n).astype(np.int64)
            n_sentences = np.maximum(n_sentences, (n_words > 0).astype(np.int64))
            # longest line per doc: segments between newlines (separators are
            # newlines too, so every segment lies inside exactly one doc)
            nlpos = np.flatnonzero(cps == _NL)
            bounds = np.concatenate([[-1], nlpos, [len(cps)]])
            seg_len = bounds[1:] - bounds[:-1] - 1
            seg_start = np.minimum(bounds[:-1] + 1, len(cps) - 1)
            seg_doc = doc_of[seg_start]
            first = np.empty(len(seg_doc), dtype=bool)
            first[0] = True
            first[1:] = seg_doc[1:] != seg_doc[:-1]
            longest = np.zeros(n, dtype=np.int64)
            longest[seg_doc[first]] = np.maximum.reduceat(seg_len, np.flatnonzero(first))
            max_line_frac = np.divide(
                longest.astype(np.float64), n_chars, out=max_line_frac, where=n_chars > 0
            )

        for name, arr, typ in [
            ("q_n_words", n_words, pa.int64()),
            ("q_n_chars", n_chars, pa.int64()),
            ("q_n_sentences", n_sentences, pa.int64()),
            ("q_mean_word_len", mean_word_len, pa.float64()),
            ("q_symbol_word_ratio", symbol_word_ratio, pa.float64()),
            ("q_digit_ratio", digit_ratio, pa.float64()),
            ("q_stopword_hits", stopword_hits, pa.int64()),
            ("q_stopword_ratio", stopword_ratio, pa.float64()),
            ("q_stopword_known", stopword_known, pa.bool_()),
            ("q_max_line_frac", max_line_frac, pa.float64()),
            ("q_dup_ngram_frac", dup_ngram_frac, pa.float64()),
        ]:
            batch = set_or_append(batch, name, pa.array(arr, typ))
        return batch
