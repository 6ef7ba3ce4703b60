"""Interpolated modified Kneser–Ney n-gram language model (pure functions).

The reference implements two Kneser–Ney variants for its perplexity work
(reference ``modified_kneser_ney.py:28-587`` ModifiedKneserNey, ``590-805``
KneserNeyLM).  This is a from-scratch implementation of the same published
algorithm (Chen & Goodman 1999, "An empirical study of smoothing techniques
for language modeling"; discount estimation per Sundermeyer et al. —
the same formulas the reference cites at ``modified_kneser_ney.py:203-272``):

  * counts at the highest order, continuation counts below (the KN idea),
  * three discounts D1/D2/D3+ per order from count-of-counts,
  * interpolation with backoff weights γ(ctx),
  * ARPA-style (logprob, backoff) tables for O(1) scoring per n-gram.

Counting is separated from estimation so the count step can run as a Ray
grouped aggregation over a corpus Dataset (pipelines/lm_train.py — reference
G1-G3 as groupbys) while estimation (tiny tables) runs driver-side.

Log base 2 throughout (matching the reference's log2 scoring at
``modified_kneser_ney.py:546-577``); perplexity = 2^(-avg log2 P).
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_RE_DROP = re.compile(r"[^\w\s.!?'\-]|\d", flags=re.U)
_RE_ENDERS = re.compile(r"[.!?]+")
_RE_WS = re.compile(r"\s+")


def _lm_char_table():
    """codepoint → action table for the batch LM prep: 0 = token char,
    1 = boundary (dropped by _RE_DROP, or whitespace), 2 = sentence ender.

    Built by evaluating the ACTUAL module regexes per codepoint (they are
    all single-char classes, so a dense table reproduces them exactly) and
    cached node-locally keyed to this module's mtime — editing the regexes
    invalidates it automatically."""
    from pathlib import Path

    import numpy as np

    from language_identification_ray.state.asset_cache import mmap_derived

    def build():
        tab = np.zeros(0x110000, dtype=np.uint8)
        # one C-speed regex scan over the all-codepoints string per class
        allcp = "".join(map(chr, range(0x110000)))
        for m in _RE_DROP.finditer(allcp):
            tab[m.start()] = 1
        for m in _RE_WS.finditer(allcp):
            tab[m.start() : m.end()] = 1
        # str.split() additionally splits on every str.isspace char
        for c in range(0x110000):
            if chr(c).isspace():
                tab[c] = 1
        for ch in ".!?":  # _RE_ENDERS class; never dropped, so set last
            tab[ord(ch)] = 2
        return tab

    return mmap_derived("lm-chartable", Path(__file__), build)


def lm_sentences(text: str) -> List[List[str]]:
    """Normalize text into token lists for LM counting/scoring.

    Matches the intent of reference ``_get_padded_ngrams`` preprocessing
    (``modified_kneser_ney.py:109-147``): drop digits and non-informative
    punctuation, collapse sentence enders, lowercase, whitespace-tokenize.
    (The reference additionally used the nltk punkt splitter — unavailable
    here; '.'-collapse + split is the stand-in and is pinned by tests.)
    """
    text = _RE_DROP.sub(" ", text.lower())
    out = []
    for sent in _RE_ENDERS.split(text):
        tokens = _RE_WS.sub(" ", sent).strip().split()
        tokens = [t.strip("'-") for t in tokens]
        tokens = [t for t in tokens if t]
        if tokens:
            out.append(tokens)
    return out


def count_ngrams(sentences: Iterable[Sequence[str]], order: int) -> Counter:
    """Highest-order n-gram counts with BOS/EOS padding (one Counter).
    Keys are tuples of tokens.  This is the per-batch 'partial' step of the
    distributed count (G1)."""
    counts: Counter = Counter()
    pad = [BOS] * (order - 1)
    for toks in sentences:
        seq = pad + list(toks) + [EOS]
        for i in range(len(seq) - order + 1):
            counts[tuple(seq[i : i + order])] += 1
        # also count the raw unigrams of BOS padding context? No: standard
        # practice scores only real tokens + EOS; BOS appears in contexts only.
    return counts


class KNModel:
    """(logprob, backoff) tables for orders 1..N, log base 2."""

    def __init__(self, order: int, probs: Dict[tuple, float], backoffs: Dict[tuple, float], vocab_size: int):
        self.order = order
        self.probs = probs  # ngram tuple -> log2 P(w | ctx)
        self.backoffs = backoffs  # context tuple -> log2 gamma(ctx)
        self.vocab_size = max(vocab_size, 1)
        self._log_unk = -math.log2(self.vocab_size * 100.0)

    # -- scoring ---------------------------------------------------------
    def logp(self, ngram: Tuple[str, ...]) -> float:
        """log2 P(w | ctx) with backoff; accepts any length ≤ order."""
        while len(ngram) > 1:
            p = self.probs.get(ngram)
            if p is not None:
                return p
            ctx = ngram[:-1]
            bo = self.backoffs.get(ctx, 0.0)
            ngram = ngram[1:]
            if bo:
                return bo + self.logp(ngram)
        p = self.probs.get(ngram)
        return p if p is not None else self._log_unk

    def log_score_tokens(self, tokens: Sequence[str]) -> Tuple[float, int]:
        """(total log2 prob, n scored) over one sentence incl. EOS —
        the analogue of reference ``log_score_per_ngram``
        (``modified_kneser_ney.py:546-577``)."""
        seq = [BOS] * (self.order - 1) + list(tokens) + [EOS]
        total = 0.0
        n = 0
        for i in range(self.order - 1, len(seq)):
            lo = max(0, i - self.order + 1)
            total += self.logp(tuple(seq[lo : i + 1]))
            n += 1
        return total, n

    def generate_sentence(self, min_length: int = 4, seed: int = 0, max_words: int = 200) -> str:
        """Random sentence from the highest-order table — reference
        ``modified_kneser_ney.py:760-805`` semantics (sample the next word
        from the renormalized highest-order conditional given the current
        context; retry whole sentences until ``min_length``).  Deterministic
        via an explicit ``seed`` instead of the reference's global
        ``random`` (workers must not share mutable RNG state)."""
        import random as _random

        rng = _random.Random(seed)
        if not hasattr(self, "_gen_index"):
            idx: Dict[tuple, list] = {}
            for ng, lp in self.probs.items():
                if len(ng) == self.order:
                    idx.setdefault(ng[:-1], []).append((ng[-1], lp))
            self._gen_index = idx
        body: list = []
        for _ in range(1000):
            sent = [BOS] * (self.order - 1)
            while (not sent or sent[-1] != EOS) and len(sent) < max_words:
                ctx = tuple(sent[len(sent) - self.order + 1 :])
                cands = self._gen_index.get(ctx)
                if not cands:
                    sent.append(EOS)
                    break
                mx = max(lp for _, lp in cands)
                weights = [2.0 ** (lp - mx) for _, lp in cands]
                r = rng.random() * sum(weights)
                word = cands[-1][0]
                for (w, _), p in zip(cands, weights):
                    r -= p
                    if r < 0:
                        word = w
                        break
                sent.append(word)
            body = [w for w in sent[self.order - 1 :] if w != EOS]
            if len(body) >= min_length:
                return " ".join(body)
        return " ".join(body)

    def perplexity(self, text: str) -> float:
        """2^(-avg log2 P) over all sentences of a document; inf-safe."""
        total, n = 0.0, 0
        for toks in lm_sentences(text):
            t, c = self.log_score_tokens(toks)
            total += t
            n += c
        if n == 0:
            return float("nan")
        return 2.0 ** (-total / n)

    # -- vectorized batch scoring ---------------------------------------
    #
    # Same model, same per-position backoff math as ``logp`` — but all
    # n-gram/backoff lookups for a whole batch run as numpy searchsorted
    # over shift-packed integer keys (21 bits/token id, shift|or only —
    # no 64-bit multiplies, see perf note in stages/dedup.py).  ~20x the
    # scalar path; within float-add reordering of it (sums are vectorized).

    def _build_index(self) -> None:
        if hasattr(self, "_idx"):
            return
        import numpy as np

        toks = set()
        for k in self.probs:
            toks.update(k)
        for k in self.backoffs:
            toks.update(k)
        toks.update((BOS, EOS))
        vocab = sorted(toks)
        if len(vocab) + 1 >= (1 << 21):
            raise ValueError("vocab too large for 21-bit packing")
        tid = {t: i + 1 for i, t in enumerate(vocab)}  # 0 = UNK (never a key)

        def pack(key: tuple) -> int:
            v = 0
            for t in key:
                v = (v << 21) | tid[t]
            return v

        grams: Dict[int, list] = {o: [] for o in range(1, self.order + 1)}
        for k, p in self.probs.items():
            grams[len(k)].append((pack(k), p))
        ctxs: Dict[int, list] = {l: [] for l in range(1, self.order)}
        for k, b in self.backoffs.items():
            if 1 <= len(k) < self.order:
                ctxs[len(k)].append((pack(k), b))

        def sorted_arrays(pairs):
            if not pairs:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            pairs.sort()
            K = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
            V = np.fromiter((p[1] for p in pairs), dtype=np.float64, count=len(pairs))
            return K, V

        self._idx = {
            "tid": tid,
            "grams": {o: sorted_arrays(v) for o, v in grams.items()},
            "ctxs": {l: sorted_arrays(v) for l, v in ctxs.items()},
        }

    @staticmethod
    def _lookup(K, V, q, default):
        import numpy as np

        if len(K) == 0:
            d = np.broadcast_to(np.float64(default), q.shape)
            return d.copy(), np.zeros(q.shape, dtype=bool)
        idx = np.clip(np.searchsorted(K, q), 0, len(K) - 1)
        hit = K[idx] == q
        return np.where(hit, V[idx], default), hit

    def perplexity_batch(self, texts: Sequence[str]) -> "list[float]":
        """Per-doc perplexity, vectorized (order-3 models)."""
        import numpy as np

        if self.order != 3:  # scalar fallback for exotic orders
            return [self.perplexity(t or "") for t in texts]
        self._build_index()
        tid = self._idx["tid"]
        bos, eos = tid[BOS], tid[EOS]

        n_docs = len(texts)
        out = np.full(n_docs, np.nan)
        w0, w1, w2, D = self._prep_score_arrays(texts, tid, bos, eos)
        if not len(w2):
            return out.tolist()

        K3, P3 = self._idx["grams"][3]
        K2, P2 = self._idx["grams"][2]
        K1, P1 = self._idx["grams"][1]
        B2K, B2V = self._idx["ctxs"].get(2, (np.empty(0, np.int64), np.empty(0)))
        B1K, B1V = self._idx["ctxs"].get(1, (np.empty(0, np.int64), np.empty(0)))

        tri, tri_hit = self._lookup(K3, P3, (w0 << 42) | (w1 << 21) | w2, 0.0)
        bo2, _ = self._lookup(B2K, B2V, (w0 << 21) | w1, 0.0)
        bi, bi_hit = self._lookup(K2, P2, (w1 << 21) | w2, 0.0)
        bo1, _ = self._lookup(B1K, B1V, w1, 0.0)
        uni, _ = self._lookup(K1, P1, w2, self._log_unk)

        logp = np.where(tri_hit, tri, bo2 + np.where(bi_hit, bi, bo1 + uni))
        totals = np.bincount(D, weights=logp, minlength=n_docs)
        counts = np.bincount(D, minlength=n_docs)
        scored = counts > 0
        out[scored] = 2.0 ** (-totals[scored] / counts[scored])
        return out.tolist()

    @staticmethod
    def _prep_score_arrays(texts: Sequence[str], tid: dict, bos: int, eos: int):
        """(w0, w1, w2, D) int64 score arrays for order-3 models, built
        batch-level — exactly the positions/contexts the per-doc
        ``lm_sentences`` + [bos,bos]+tokens+[eos] construction yields, in
        the same global order (doc-major, sentence-major, token-major).

        How: one str.lower per doc (full Python lowercase semantics), docs
        joined with '.' (a sentence ender, so sentences and tokens can
        never merge across docs), one utf-32 encode, one _lm_char_table
        gather (the table reproduces _RE_DROP / _RE_WS / str.isspace /
        _RE_ENDERS per codepoint exactly), token runs + "'-" edge strips
        vectorized, token→id via exact dict-encode (tid.get once per
        DISTINCT token).  The encode uses "surrogatepass": a lone surrogate
        (surrogateescape-decoded bytes) keeps its own codepoint, which the
        table maps to a boundary just as _RE_DROP drops it."""
        import numpy as np

        from language_identification_ray.functions.tokenizer import (
            dict_encode_segments,
            segment_positions,
        )

        lowered = [(t or "").lower() for t in texts]
        joined = ".".join(lowered)
        e64 = np.int64
        if not joined:
            z = np.empty(0, dtype=e64)
            return z, z, z, z
        cps = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        act = _lm_char_table()[cps]
        is_tok = act == 0
        starts = np.flatnonzero(is_tok & ~np.concatenate([[False], is_tok[:-1]]))
        ends = np.flatnonzero(is_tok & ~np.concatenate([is_tok[1:], [False]])) + 1
        # token.strip("'-"): peel matching edge chars until none remain
        APOS, DASH = np.uint32(39), np.uint32(45)
        while True:
            alive = starts < ends
            c = cps[np.where(alive, starts, 0)]
            lead = alive & ((c == APOS) | (c == DASH))
            c = cps[np.where(alive & ~lead, ends - 1, 0)]
            trail = alive & ~lead & ((c == APOS) | (c == DASH)) & (ends - 1 > starts)
            if not (lead.any() or trail.any()):
                break
            starts = starts + lead
            ends = ends - trail
        keep = starts < ends
        starts, ends = starts[keep], ends[keep]
        if not len(starts):
            z = np.empty(0, dtype=e64)
            return z, z, z, z
        # sentence id = ender runs seen so far; doc id via the join offsets
        ecum = np.concatenate([[0], np.cumsum(act == 2)])
        sid = ecum[starts]
        lens_docs = np.fromiter((len(t) for t in lowered), dtype=e64, count=len(lowered))
        offs = np.concatenate([[0], np.cumsum(lens_docs + 1)])
        docid = np.searchsorted(offs[1:], starts, side="right")
        uid, ustarts, ulens = dict_encode_segments(cps, starts, ends - starts)
        tok2id = np.fromiter(
            (
                tid.get(joined[s : s + l], 0)
                for s, l in zip(ustarts.tolist(), ulens.tolist())
            ),
            dtype=e64,
            count=len(ustarts),
        )
        T = tok2id[uid]
        new_sent = np.empty(len(sid), dtype=bool)
        new_sent[0] = True
        new_sent[1:] = sid[1:] != sid[:-1]
        sent_first = np.flatnonzero(new_sent)
        k = np.diff(np.concatenate([sent_first, [len(sid)]]))  # tokens per sentence
        sent_doc = docid[sent_first]
        # padded stream [bos, bos, tokens..., eos] per sentence
        out_starts = np.concatenate([[0], np.cumsum(k + 3)])[:-1]
        P = np.empty(int((k + 3).sum()), dtype=e64)
        P[out_starts] = bos
        P[out_starts + 1] = bos
        P[segment_positions(out_starts + 2, k)] = T
        P[out_starts + k + 2] = eos
        v = segment_positions(out_starts + 2, k + 1)  # scored positions
        return P[v - 2], P[v - 1], P[v], np.repeat(sent_doc, k + 1)

    # -- (de)serialization ----------------------------------------------
    def to_flat(self) -> dict:
        sep = "\x1f"
        return {
            "order": self.order,
            "vocab_size": self.vocab_size,
            "probs": {sep.join(k): v for k, v in self.probs.items()},
            "backoffs": {sep.join(k): v for k, v in self.backoffs.items()},
        }

    @classmethod
    def from_flat(cls, d: dict) -> "KNModel":
        sep = "\x1f"
        return cls(
            int(d["order"]),
            {tuple(k.split(sep)): float(v) for k, v in d["probs"].items()},
            {tuple(k.split(sep)): float(v) for k, v in d["backoffs"].items()},
            int(d["vocab_size"]),
        )


def _discounts(counts_of_counts: Counter) -> Tuple[float, float, float]:
    """D1, D2, D3+ from n1..n4 (Chen & Goodman / Sundermeyer estimates,
    the formulas the reference uses at ``modified_kneser_ney.py:203-272``).
    Degenerate corpora fall back to the absolute-discount constant 0.75."""
    n1, n2, n3, n4 = (counts_of_counts.get(i, 0) for i in (1, 2, 3, 4))
    if n1 == 0 or (n1 + 2 * n2) == 0:
        return 0.75, 0.75, 0.75
    y = n1 / (n1 + 2 * n2)
    d1 = 1 - 2 * y * (n2 / n1) if n1 else 0.75
    d2 = 2 - 3 * y * (n3 / n2) if n2 else 1.0
    d3 = 3 - 4 * y * (n4 / n3) if n3 else 1.5
    clamp = lambda d, lo, hi: min(max(d, lo), hi)
    return clamp(d1, 0.0, 1.0), clamp(d2, 0.0, 2.0), clamp(d3, 0.0, 3.0)


def estimate(highest_counts: Dict[tuple, int], order: int) -> KNModel:
    """Counts at the highest order → full interpolated modified-KN tables.

    Lower-order counts are CONTINUATION counts (distinct left contexts), the
    defining Kneser–Ney move; estimation is exact and deterministic.
    """
    # counts per order: order N = real counts; k<N = continuation counts
    counts: List[Dict[tuple, int]] = [dict() for _ in range(order + 1)]  # index by k
    counts[order] = dict(highest_counts)
    for k in range(order - 1, 0, -1):
        cont: Counter = Counter()
        for g in counts[k + 1]:
            suffix = g[1:]
            cont[suffix] += 1
        counts[k] = dict(cont)
    # NOTE: BOS-anchored contexts of order k (e.g. (<s>, w)) DO get counted
    # here — they arise as suffixes of the padded order-(k+1) grams
    # ((<s>, <s>, w) → (<s>, w)), because lm_sentences pads with order-1
    # BOS tokens.  P(w | <s>...) therefore has a denominator ONLY via that
    # padding invariant: if counting ever prunes low-count grams or reduces
    # the BOS padding, an explicit raw-count fallback must be added here.
    vocab = {g[-1] for g in counts[order]} | {g[-1] for g in counts[1]}
    vocab.discard(BOS)

    probs: Dict[tuple, float] = {}
    backoffs: Dict[tuple, float] = {}

    # unigram distribution (continuation-based) with +1 smoothing over vocab
    uni_total = sum(counts[1].values())
    v = len(vocab) + 1  # +1 for unk mass
    for g, c in counts[1].items():
        probs[g] = math.log2((c + 1) / (uni_total + v))
    unk_mass = 1 / (uni_total + v)

    # higher orders
    for k in range(2, order + 1):
        ck = counts[k]
        coc = Counter()
        for c in ck.values():
            if c <= 4:
                coc[c] += 1
        d1, d2, d3 = _discounts(coc)
        disc = lambda c: d1 if c == 1 else (d2 if c == 2 else d3)

        ctx_total: Dict[tuple, int] = defaultdict(int)
        ctx_nn: Dict[tuple, List[int]] = defaultdict(lambda: [0, 0, 0])  # N1, N2, N3+
        for g, c in ck.items():
            ctx = g[:-1]
            ctx_total[ctx] += c
            ctx_nn[ctx][min(c, 3) - 1] += 1

        for ctx, tot in ctx_total.items():
            n1c, n2c, n3c = ctx_nn[ctx]
            gamma = (d1 * n1c + d2 * n2c + d3 * n3c) / tot
            backoffs[ctx] = math.log2(gamma) if gamma > 0 else -60.0

        for g, c in ck.items():
            ctx = g[:-1]
            base = max(c - disc(c), 0.0) / ctx_total[ctx]
            gamma = 2.0 ** backoffs[ctx]
            lower = probs.get(g[1:])
            lower_p = 2.0 ** lower if lower is not None else unk_mass
            probs[g] = math.log2(base + gamma * lower_p)

    return KNModel(order, probs, backoffs, len(vocab))


def train(texts: Iterable[str], order: int = 3) -> KNModel:
    """Single-process convenience trainer (tests / small corpora)."""
    counts: Counter = Counter()
    for t in texts:
        counts.update(count_ngrams(lm_sentences(t), order))
    return estimate(counts, order)
