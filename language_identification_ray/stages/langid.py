"""Language identification detectors + the Ray Data actor-pool stage.

Detector contract (mirrors the reference wrapper plug-in surface,
``preprocessing.py:16-46`` + the five ``*_wrapper.py`` modules): a detector
exposes ``SUPPORTED_LANGUAGES`` and ``predict_batch(texts, language_codes)``
returning, per text, a ``[(lang, prob), ...]`` ranking sorted descending —
the reference's universal result shape (``fasttext_wrapper.py:39-45``).

Detectors here (all from-scratch, public techniques):

* :class:`NgramDetector` — hashed char-n-gram multinomial Naive Bayes
  (Cavnar & Trenkle 1994 / langid.py-style), trained by
  ``scripts/train_langid.py`` on the seed corpus, weights in
  ``state/assets/langid_ngram.npz``.  Scoring is a numpy gather+reduceat over
  the whole batch's codepoints — no per-char Python.
* :class:`ScriptDetector` — Unicode-script voting with script→language
  priors (the reference's script_langid idea, ``scripts_langid.py:51-84``,
  re-derived from public Unicode block data).
* :class:`EnsembleDetector` — script evidence first; same-script ambiguity
  (Latin, Cyrillic, Arabic, Han±Kana) resolved by the n-gram model restricted
  to that script's candidate languages.  This is the engine's stand-in for
  the warm fastText lid.176 model (not installable here).

The Ray stage is :class:`LangIdStage`: a callable class for
``ds.map_batches(LangIdStage, concurrency=N, batch_format="pyarrow")`` —
model loaded once per actor in ``__init__``, batches scored vectorized.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from language_identification_ray.state.scripts import (
    SCRIPT_ID,
    SCRIPT_LANGS,
    SCRIPT_NAMES,
    load_chartables,
    load_lower_table,
)

_MODEL_ASSET = Path(__file__).resolve().parents[1] / "state" / "assets" / "langid_ngram.npz"

# feature-hash parameters — must match scripts/train_langid.py
HASH_BUCKETS = 1 << 16
_H1 = np.uint64(1000003)

Ranking = List[Tuple[str, float]]

# chars scored per doc: rank / loglik_batch / predict_batch / top1_batch must
# truncate IDENTICALLY or their documented bit-exact parity silently breaks
SCORE_MAX_CHARS = 400


_H2 = np.uint64(2654435761)
_MASK = np.uint64(HASH_BUCKETS - 1)


def ngram_hashes(cps_lower: np.ndarray) -> np.ndarray:
    """uint32/uint64 codepoint array → bucket ids of all char bi- AND
    trigrams, fully vectorized.  Bigrams are re-mixed with a second constant
    so the two orders land in (mostly) distinct buckets."""
    c = cps_lower.astype(np.uint64)
    out = []
    if len(c) >= 3:
        h3 = ((c[:-2] * _H1 + c[1:-1]) * _H1 + c[2:]) & _MASK
        out.append(h3.astype(np.int64))
    if len(c) >= 2:
        h2 = ((c[:-1] * _H1 + c[1:]) * _H2) & _MASK
        out.append(h2.astype(np.int64))
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


# backwards-compat alias used by the trainer
trigram_hashes = ngram_hashes


def check_languages(specified: Optional[Iterable[str]], supported: Sequence[str]) -> List[str]:
    """Allowlist intersection, reference ``preprocessing.py:30-46`` semantics
    (unsupported codes silently dropped; empty/None → all supported).
    Materialized first so an EMPTY ITERATOR also means "all supported" —
    generators are always truthy, so a bare `not specified` would silently
    treat a consumed/empty one as "no languages allowed"."""
    specified = list(specified) if specified is not None else None
    if not specified:
        return sorted(supported)
    sup = set(supported)
    return sorted({c for c in specified if isinstance(c, str) and c in sup})


class NgramDetector:
    """Hashed char-trigram multinomial NB. Weights trained offline."""

    def __init__(self, model_path: Optional[Path] = None):
        from language_identification_ray.state.asset_cache import mmap_derived

        path = Path(model_path or _MODEL_ASSET)
        with np.load(path, allow_pickle=False) as z:
            self.langs: List[str] = [str(x) for x in z["langs"]]

        # stored [L, HASH_BUCKETS]; kept transposed + C-contiguous so a
        # per-doc bucket gather reads contiguous L-float rows (cache-friendly).
        # mmap'd from the node-local cache: one shared page-cache copy per
        # host instead of a ~7 MB anonymous allocation per actor.
        def build():
            with np.load(path, allow_pickle=False) as z:
                return z["matrix"].astype(np.float32).T

        self.matrix_t: np.ndarray = mmap_derived(f"langid-mt-{path.stem}", path, build)
        self.lang_index = {l: i for i, l in enumerate(self.langs)}
        self.SUPPORTED_LANGUAGES = sorted(self.langs)
        self._lower = load_lower_table()
        self._rows_cache: dict = {}

    def _score_doc(self, text: str, lang_rows: Optional[np.ndarray] = None) -> np.ndarray:
        """→ log-likelihood per language (rows restricted if given).

        Columns are gathered BEFORE any row restriction: ``matrix[:, hashes]``
        touches L×|hashes| floats, whereas ``matrix[rows]`` would copy a
        rows×65536 slice per call (≈3.6 MB/doc — measured 25× slower)."""
        cps = np.frombuffer((" " + text + " ").encode("utf-32-le", "replace"), dtype=np.uint32)
        hashes = ngram_hashes(self._lower[cps])
        n_rows = len(self.langs) if lang_rows is None else len(lang_rows)
        if len(hashes) == 0:
            return np.zeros(n_rows, dtype=np.float64)
        ll = self.matrix_t[hashes].sum(axis=0, dtype=np.float64) / len(hashes)
        return ll if lang_rows is None else ll[lang_rows]

    def _rows_for(self, langs_key: tuple) -> tuple:
        """(allowed_names, row_indices) for an allowlist, cached per tuple."""
        cached = self._rows_cache.get(langs_key)
        if cached is None:
            allowed = check_languages(langs_key or None, self.langs)
            rows = np.array([self.lang_index[l] for l in allowed], dtype=np.int64)
            cached = (allowed, rows)
            self._rows_cache[langs_key] = cached
        return cached

    def rank(self, text: str, langs: Optional[Sequence[str]] = None, max_chars: int = SCORE_MAX_CHARS) -> Ranking:
        """softmax over per-ngram average log-likelihoods → (lang, prob) desc."""
        allowed, rows = self._rows_for(tuple(langs) if langs else ())
        if len(rows) == 0:
            return []
        ll = self._score_doc(text[:max_chars], rows)
        # temperature ~ ngram count: use summed ll for contrast
        ll = ll * min(len(text[:max_chars]), 64)
        ll -= ll.max()
        p = np.exp(ll)
        p /= p.sum()
        order = np.argsort(-p, kind="stable")
        return [(allowed[i], float(p[i])) for i in order]

    def predict_batch(self, texts: Sequence[str], language_codes: Optional[Iterable[str]] = None) -> List[Ranking]:
        """Batch ranking — one vectorized ``loglik_batch`` + softmax for the
        whole batch (identical float math to per-doc ``rank``; only the
        ranking-list assembly is per doc)."""
        allowed, rows = self._rows_for(tuple(language_codes) if language_codes else ())
        if len(rows) == 0:
            return [[] for _ in texts]
        ll = self.loglik_batch(texts, rows)
        temp = np.fromiter(
            (min(len(t[:SCORE_MAX_CHARS]), 64) for t in texts), dtype=np.float64, count=len(texts)
        )
        ll = ll * temp[:, None]
        ll -= ll.max(axis=1, keepdims=True)
        p = np.exp(ll)
        p /= p.sum(axis=1, keepdims=True)
        orders = np.argsort(-p, axis=1, kind="stable")
        return [
            [(allowed[i], float(p[d, i])) for i in orders[d]] for d in range(len(texts))
        ]

    def loglik_batch(
        self, texts: Sequence[str], rows: np.ndarray, max_chars: int = SCORE_MAX_CHARS
    ) -> np.ndarray:
        """float64[n_docs, len(rows)] — per-doc mean log-likelihoods,
        bit-identical to ``_score_doc`` per doc (same gather + same
        float64 pairwise sum), stacked for vectorized softmax/argmax.

        The encode, lowercase gather, and rolling n-gram hash run ONCE over
        the concatenated padded batch (a window's hash depends only on its
        own codepoints, so per-doc hashes are pure slices of the batch
        arrays, in the same tri-then-bi order ``ngram_hashes`` emits); only
        the model gather + mean stay per-doc, preserving numpy's pairwise
        float64 reduction per document exactly."""
        out = np.zeros((len(texts), len(rows)), dtype=np.float64)
        if not len(texts):
            return out
        mt = self.matrix_t
        # errors="replace": a lone surrogate (bytes decoded with
        # surrogateescape — standard WARC-payload handling) must score
        # as U+FFFD noise, not kill the whole batch
        parts = [" " + t[:max_chars] + " " for t in texts]
        lens = np.fromiter((len(p) for p in parts), dtype=np.int64, count=len(parts))
        offs = np.concatenate([[0], np.cumsum(lens)])
        cps = np.frombuffer("".join(parts).encode("utf-32-le", "replace"), dtype=np.uint32)
        c = self._lower[cps].astype(np.uint64)
        h3 = (((c[:-2] * _H1 + c[1:-1]) * _H1 + c[2:]) & _MASK).astype(np.int64)
        h2 = (((c[:-1] * _H1 + c[1:]) * _H2) & _MASK).astype(np.int64)
        for d in range(len(texts)):
            s, e = offs[d], offs[d + 1]
            hashes = np.concatenate((h3[s : e - 2], h2[s : e - 1]))
            if len(hashes):
                out[d] = (mt[hashes].sum(axis=0, dtype=np.float64) / len(hashes))[rows]
        return out


class ScriptDetector:
    """Script-fraction voting (vectorized per batch).

    Per document: fraction of word chars in each Unicode script; each script
    distributes its fraction over its candidate languages (prior weight 1/k,
    first-listed lang favored 2×).  Matches the *spirit* of the reference
    script detector (``scripts_langid.py:40-84``): per-word charset fractions
    with probability normalization — but operates on char counts so the whole
    batch is two numpy gathers and one bincount.
    """

    def __init__(self):
        charclass, script = load_chartables()
        self._charclass = charclass
        self._script = script
        n_scripts = len(SCRIPT_NAMES)
        langs = sorted({l for ls in SCRIPT_LANGS.values() for l in ls})
        self.SUPPORTED_LANGUAGES = langs
        self.lang_index = {l: i for i, l in enumerate(langs)}
        # prior[script_id, lang_id]
        prior = np.zeros((n_scripts, len(langs)), dtype=np.float64)
        for sname, ls in SCRIPT_LANGS.items():
            sid = SCRIPT_ID[sname]
            w = np.array([2.0] + [1.0] * (len(ls) - 1))
            w /= w.sum()
            for lang, wi in zip(ls, w):
                prior[sid, self.lang_index[lang]] += wi
        self.prior = prior

    def script_fractions(self, texts: Sequence[str]) -> np.ndarray:
        """float64[n_docs, n_scripts] — word-char script distribution."""
        n = len(texts)
        out = np.zeros((n, len(SCRIPT_NAMES)), dtype=np.float64)
        joined = "\n".join(texts) if n else ""
        cps = np.frombuffer(joined.encode("utf-32-le", "replace"), dtype=np.uint32)
        if not len(cps):
            return out
        cls = self._charclass[cps]
        scr = self._script[cps]
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
        offsets = np.concatenate([[0], np.cumsum(lens + 1)])
        doc_of = np.searchsorted(offsets[1:], np.arange(len(cps)), side="right")
        word_mask = cls == 1
        key = doc_of[word_mask] * len(SCRIPT_NAMES) + scr[word_mask]
        flat = np.bincount(key, minlength=n * len(SCRIPT_NAMES))
        counts = flat.reshape(n, len(SCRIPT_NAMES)).astype(np.float64)
        totals = counts.sum(axis=1, keepdims=True)
        np.divide(counts, totals, out=out, where=totals > 0)
        return out

    def predict_batch(self, texts: Sequence[str], language_codes: Optional[Iterable[str]] = None) -> List[Ranking]:
        allowed = set(check_languages(language_codes, self.SUPPORTED_LANGUAGES))
        fracs = self.script_fractions(texts)
        scores = fracs @ self.prior  # [n_docs, n_langs]
        out: List[Ranking] = []
        for row in scores:
            nz = np.flatnonzero(row > 0)
            ranking = sorted(
                ((self.SUPPORTED_LANGUAGES[i], float(row[i])) for i in nz if self.SUPPORTED_LANGUAGES[i] in allowed),
                key=lambda x: -x[1],
            )
            total = sum(p for _, p in ranking)
            out.append([(l, p / total) for l, p in ranking] if total > 0 else [])
        return out


# scripts whose language is ambiguous enough to need n-gram evidence
_AMBIGUOUS_SCRIPTS = {"Latin", "Cyrillic", "Arabic", "Devanagari", "Han"}


class EnsembleDetector:
    """Script evidence + n-gram NB fallback — the default hot-path detector.

    Decision per document (vectorized script pass, NB only when needed):
      1. dominant script of the word chars;
      2. Hiragana/Katakana present → ja; HangulSyllables/Jamo → ko;
         Han w/o kana → zh;
      3. single-language scripts (Thai→th, …) → that language;
      4. ambiguous scripts (Latin/Cyrillic/Arabic/Devanagari) → NB restricted
         to that script's candidate languages;
      5. no word chars at all → unknown ('und').
    """

    def __init__(self, model_path: Optional[Path] = None):
        self.script = ScriptDetector()
        self.ngram = NgramDetector(model_path)
        self.SUPPORTED_LANGUAGES = sorted(set(self.script.SUPPORTED_LANGUAGES) | set(self.ngram.langs))
        self._sid = SCRIPT_ID

    def predict_batch(self, texts: Sequence[str], language_codes: Optional[Iterable[str]] = None) -> List[Ranking]:
        allowed = check_languages(language_codes, self.SUPPORTED_LANGUAGES)
        allowed_set = set(allowed)
        fracs = self.script.script_fractions(texts)
        sid = self._sid
        kana = fracs[:, sid["Hiragana"]] + fracs[:, sid["Katakana"]]
        hangul = fracs[:, sid["HangulSyllables"]] + fracs[:, sid["HangulJamo"]]
        han = fracs[:, sid["Han"]]
        out: List[Ranking] = []
        for d, text in enumerate(texts):
            row = fracs[d]
            total = row.sum()
            if total == 0:
                out.append([])
                continue
            if kana[d] > 0.05:
                out.append(_clip([("ja", float(min(1.0, kana[d] + han[d] + 0.5)))], allowed_set))
                continue
            if hangul[d] > 0.3:
                out.append(_clip([("ko", float(min(1.0, hangul[d] + 0.5)))], allowed_set))
                continue
            dom = int(np.argmax(row))
            dom_name = SCRIPT_NAMES[dom]
            if dom_name == "Han":
                out.append(_clip([("zh", float(min(1.0, han[d] + 0.3)))], allowed_set))
                continue
            cand = SCRIPT_LANGS.get(dom_name, [])
            if dom_name in _AMBIGUOUS_SCRIPTS:
                nb_langs = [l for l in cand if l in self.ngram.lang_index and (not allowed_set or l in allowed_set)]
                if nb_langs:
                    ranking = self.ngram.rank(text, nb_langs)
                    # scale by script confidence
                    conf = float(row[dom])
                    out.append([(l, p * conf) for l, p in ranking])
                    continue
            if allowed_set:
                # restrict BEFORE normalizing: the allowlist defines the
                # candidate universe, so conf renormalizes over it (same
                # order as ScriptDetector and the NB branch) — clipping
                # after would report 1/(1+i)/H(n) for a sole allowed lang
                cand = [l for l in cand if l in allowed_set]
            if len(cand) >= 1:
                ranking = [(l, float(row[dom]) / (1 + i)) for i, l in enumerate(cand)]
                s = sum(p for _, p in ranking)
                out.append([(l, p / s) for l, p in ranking])
            else:
                out.append([])
        return out


    def top1_batch(self, texts: Sequence[str]) -> tuple:
        """(langs: List[str], confs: float64[n]) — the hot-path variant used
        by :class:`LangIdStage` when no allowlist is set.  Same decision
        rules and float math as ``predict_batch`` (kana/hangul/han special
        cases, ambiguous scripts → NB restricted to the script's candidate
        languages) but fully vectorized: no per-doc ranking lists, one
        softmax/argmax per NB group."""
        n = len(texts)
        fracs = self.script.script_fractions(texts)
        sid = self._sid
        kana = fracs[:, sid["Hiragana"]] + fracs[:, sid["Katakana"]]
        hangul = fracs[:, sid["HangulSyllables"]] + fracs[:, sid["HangulJamo"]]
        han = fracs[:, sid["Han"]]
        total = fracs.sum(axis=1)
        dom = np.argmax(fracs, axis=1)
        dom_frac = fracs[np.arange(n), dom]

        langs: List[Optional[str]] = [None] * n
        confs = np.zeros(n, dtype=np.float64)

        is_empty = total == 0
        is_ja = ~is_empty & (kana > 0.05)
        is_ko = ~is_empty & ~is_ja & (hangul > 0.3)
        rest = ~(is_empty | is_ja | is_ko)
        for d in np.flatnonzero(is_empty):
            langs[d] = "und"
        for d in np.flatnonzero(is_ja):
            langs[d] = "ja"
            confs[d] = min(1.0, kana[d] + han[d] + 0.5)
        for d in np.flatnonzero(is_ko):
            langs[d] = "ko"
            confs[d] = min(1.0, hangul[d] + 0.5)

        nb_groups: dict = {}
        script_names = SCRIPT_NAMES
        for d in np.flatnonzero(rest):
            dom_name = script_names[dom[d]]
            if dom_name == "Han":
                langs[d] = "zh"
                confs[d] = min(1.0, han[d] + 0.3)
                continue
            cand = SCRIPT_LANGS.get(dom_name, [])
            if dom_name in _AMBIGUOUS_SCRIPTS:
                nb_langs = [l for l in cand if l in self.ngram.lang_index]
                if nb_langs:
                    nb_groups.setdefault(dom_name, []).append(d)
                    continue
            if cand:
                # top-1 of the prior ranking is always cand[0] with
                # p = 1 / sum(1/(1+i)) — the dom_frac factor cancels
                langs[d] = cand[0]
                confs[d] = 1.0 / sum(1.0 / (1 + i) for i in range(len(cand)))
            else:
                langs[d] = "und"

        for dom_name, docs in nb_groups.items():
            cand = SCRIPT_LANGS[dom_name]
            nb_langs = [l for l in cand if l in self.ngram.lang_index]
            rows = np.array([self.ngram.lang_index[l] for l in nb_langs], dtype=np.int64)
            group_texts = [texts[d] for d in docs]
            ll = self.ngram.loglik_batch(group_texts, rows)  # (m, L)
            temp = np.fromiter(
                (min(len(t[:SCORE_MAX_CHARS]), 64) for t in group_texts), dtype=np.float64, count=len(docs)
            )
            ll = ll * temp[:, None]
            ll -= ll.max(axis=1, keepdims=True)
            p = np.exp(ll)
            p /= p.sum(axis=1, keepdims=True)
            best = np.argmax(p, axis=1)
            best_p = p[np.arange(len(docs)), best]
            for i, d in enumerate(docs):
                langs[d] = nb_langs[best[i]]
                confs[d] = best_p[i] * dom_frac[d]
        return [l if l is not None else "und" for l in langs], confs


def _clip(ranking: Ranking, allowed: set) -> Ranking:
    if not allowed:
        return ranking
    return [(l, p) for l, p in ranking if l in allowed]


class LangIdStage:
    """Actor-pool stage: adds ``lang`` (top-1, 'und' when unknown) and
    ``lang_conf`` columns.

    Use: ``ds.map_batches(LangIdStage, batch_format="pyarrow",
    concurrency=N, batch_size=B, fn_constructor_kwargs={...})``.
    The detector loads its tables ONCE per actor here in ``__init__`` —
    the Ray analogue of the reference's module-level model singleton
    (``fasttext_wrapper.py:25-33``).

    Without an allowlist, a detector that has ``top1_batch`` (ensemble,
    fastText) is asked for the top-1 of the whole batch at once, with no
    per-doc ranking lists.  ``detector="fasttext"`` scores each batch in one
    ``FastTextModel.log_probs`` call; the model memoizes every distinct
    token's features for the life of the actor (at most
    ``fasttext_format._MEMO_CAP`` tokens, cleared whole when full), so later
    batches featurize only their new tokens.  A document's ``lang`` and
    ``lang_conf`` do not depend on the batch it came in.
    """

    def __init__(
        self,
        text_column: str = "text",
        language_codes: Optional[Sequence[str]] = None,
        detector: str = "ensemble",
        max_chars: int = 1000,
    ):
        if detector == "ensemble":
            self.detector = EnsembleDetector()
        elif detector == "ngram":
            self.detector = NgramDetector()
        elif detector == "script":
            self.detector = ScriptDetector()
        elif detector == "fasttext":
            # real fastText-format inference (north-star hot path): the
            # vendored in-repo model by default, the actual lid.176 when
            # $FASTTEXT_LID_MODEL points at it — warm-loaded once per
            # actor, wheel-free (stages/external_detectors.py)
            from language_identification_ray.stages.external_detectors import (
                FastTextDetector,
            )

            self.detector = FastTextDetector()
        else:
            raise ValueError(f"unknown detector {detector!r}")
        self.text_column = text_column
        self.language_codes = list(language_codes) if language_codes else None
        self.max_chars = max_chars

    def __call__(self, batch: pa.Table, texts=None) -> pa.Table:
        if texts is None:
            texts = batch[self.text_column].to_pylist()
        texts = [(t or "")[: self.max_chars] for t in texts]
        if self.language_codes is None and hasattr(self.detector, "top1_batch"):
            # hot path: top-1 only, vectorized (no per-doc ranking lists)
            langs, conf_arr = self.detector.top1_batch(texts)
            confs = pa.array(conf_arr, pa.float64())
        else:
            rankings = self.detector.predict_batch(texts, self.language_codes)
            langs = [r[0][0] if r else "und" for r in rankings]
            confs = pa.array([float(r[0][1]) if r else 0.0 for r in rankings], pa.float64())
        batch = set_or_append(batch, "lang", pa.array(langs, pa.string()))
        return set_or_append(batch, "lang_conf", confs)


def set_or_append(batch: pa.Table, name: str, col: pa.Array) -> pa.Table:
    """Replace a column if it exists (e.g. the upstream-claimed ``lang`` hint
    on Common-Crawl-style inputs), else append — avoids Arrow duplicate-name
    tables that break downstream concat."""
    names = batch.schema.names
    if name in names:
        return batch.set_column(names.index(name), name, col)
    return batch.append_column(name, col)
