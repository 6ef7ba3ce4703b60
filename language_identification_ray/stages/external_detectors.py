"""Adapters for the third-party language-ID detector panel (A1-A5).

The reference wraps five external detectors behind one contract
(``fasttext_wrapper.py``, ``langid_wrapper.py``, ``langdetect_wrapper.py``,
``cld2_wrapper.py``, ``nltk_wrapper.py`` — each exposing
``SUPPORTED_LANGUAGES`` + ``detect_language → [(lang, prob), ...]``).

fastText (A1) is NOT import-gated here: the from-scratch format reader
(``functions/fasttext_format.py``) loads and runs real ``.bin``/``.ftz``
supervised models with numpy only, so :class:`FastTextDetector` always
constructs — against the vendored in-repo-trained model by default, or the
reference's actual lid.176 via ``$FASTTEXT_LID_MODEL``.  The wheel, when
present, is preferred for speed.

The remaining four wheels are not installable in this container, so those
adapters stay gated behind an import-try: on a machine where the wheel
exists each is a drop-in detector for the agreement harness and the
:class:`~language_identification_ray.stages.langid.LangIdStage` contract
(``predict_batch``); here they raise a clear ImportError at construction.

``available_external_detectors()`` reports what the current environment can
actually load — the agreement harness uses it to widen its panel
opportunistically without hard dependencies.
"""

from __future__ import annotations

import logging
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

Ranking = List[Tuple[str, float]]

_log = logging.getLogger(__name__)


class _ExternalBase:
    """Shared adapter shape: batch loop over a per-text ``_rank``.

    Every reference wrapper runs ``clean_text`` before its library call
    (``fasttext_wrapper.py:42``, ``langid_wrapper.py:27``,
    ``langdetect_wrapper.py:20``, ``nltk_wrapper.py:61`` — decode, strip
    standalone numbers, collapse whitespace); the adapters mirror that,
    except an empty cleaned text yields an empty ranking instead of the
    reference's ValueError (a Dataset row must not throw)."""

    SUPPORTED_LANGUAGES: List[str] = []

    def predict_batch(
        self, texts: Sequence[str], language_codes: Optional[Iterable[str]] = None
    ) -> List[Ranking]:
        from language_identification_ray.functions.textnorm import clean_text

        allowed = set(language_codes) if language_codes else None
        out = []
        for t in texts:
            t = clean_text(t or "")
            r = self._rank(t) if t else []
            if allowed is not None:
                r = [(l, p) for l, p in r if l in allowed]
            out.append(r)
        return out

    def _rank(self, text: str) -> Ranking:  # pragma: no cover - abstract
        raise NotImplementedError


def _default_ft_model_path() -> str:
    """Model resolution order: $FASTTEXT_LID_MODEL (point it at a real
    lid.176.bin/.ftz to run the reference's actual model), else the
    in-repo-trained fastText-format mini model."""
    import os

    env = os.environ.get("FASTTEXT_LID_MODEL")
    if env:
        return env
    from pathlib import Path

    return str(
        Path(__file__).resolve().parents[1]
        / "state" / "assets" / "langid_ft_mini.bin"
    )


class FastTextDetector(_ExternalBase):
    """fastText supervised model (reference ``fasttext_wrapper.py:25-45``):
    predict all labels, strip ``__label__``, sort desc.

    No longer import-gated: when the fasttext wheel is absent the model
    file is loaded and run by the from-scratch format reader
    (``functions/fasttext_format.py`` — dense ``.bin`` AND quantized
    ``.ftz``, softmax and hierarchical-softmax losses), so the REAL
    lid.176 model runs here wheel-free; the wheel, when installed, is
    preferred for its C++ speed.  Default model:
    :func:`_default_ft_model_path`.

    Without the wheel, ``predict_batch`` and ``top1_batch`` score the whole
    batch in one :meth:`FastTextModel.log_probs` call, which memoizes each
    distinct token's features for the life of the detector (bounded, see
    ``fasttext_format._MEMO_CAP``); the model matrices are read-only from
    the first prediction on."""

    def __init__(self, model_path: Optional[str] = None):
        model_path = model_path or _default_ft_model_path()
        self._native = None
        self._pure = None
        try:
            import fasttext  # type: ignore

            self._native = fasttext.load_model(model_path)
            labels = self._native.get_labels()
        except ImportError:
            from language_identification_ray.functions.fasttext_format import (
                FastTextModel,
            )

            self._pure = FastTextModel.load(model_path)
            labels = self._pure.labels
        self.SUPPORTED_LANGUAGES = sorted(
            l.replace("__label__", "") for l in labels
        )

    def _rank(self, text: str) -> Ranking:
        text = text.replace("\n", " ")
        labels, probs = self._native.predict(text, k=len(self.SUPPORTED_LANGUAGES))
        pairs = [
            (l.replace("__label__", ""), float(p))
            for l, p in zip(labels, probs)
        ]
        return sorted(pairs, key=lambda x: -x[1])

    def _log_probs(self, texts: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """(log-prob matrix, has-prediction mask) of the cleaned texts; an
        empty cleaned text has no prediction, as in ``_ExternalBase``."""
        from language_identification_ray.functions.textnorm import clean_text

        cleaned = [clean_text(t or "") for t in texts]
        lp, has = self._pure.log_probs(cleaned)
        has &= np.fromiter(map(bool, cleaned), dtype=bool, count=len(cleaned))
        return lp, has

    def predict_batch(
        self, texts: Sequence[str], language_codes: Optional[Iterable[str]] = None
    ) -> List[Ranking]:
        if self._native is not None:
            return super().predict_batch(texts, language_codes)
        allowed = set(language_codes) if language_codes else None
        lp, has = self._log_probs(texts)
        out = []
        for d in range(len(texts)):
            r = self._pure.ranking(lp[d]) if has[d] else []
            if allowed is not None:
                r = [(l, p) for l, p in r if l in allowed]
            out.append(r)
        return out

    def top1_batch(self, texts: Sequence[str]) -> Tuple[List[str], np.ndarray]:
        """(langs, confs): the top label and its probability per text,
        ``("und", 0.0)`` where there is no prediction — the first entry of
        each ``predict_batch`` ranking, without building the rankings."""
        if self._native is not None:
            rankings = self.predict_batch(texts)
            return ([r[0][0] if r else "und" for r in rankings],
                    np.array([r[0][1] if r else 0.0 for r in rankings], dtype=np.float64))
        lp, has = self._log_probs(texts)
        best = lp.argmax(axis=1)
        confs = np.where(has, np.exp(lp[np.arange(len(best)), best]), 0.0)
        labels = self._pure.labels
        return [labels[b] if h else "und" for b, h in zip(best.tolist(), has.tolist())], confs


class LangidPyDetector(_ExternalBase):
    """langid.py (reference ``langid_wrapper.py:21-27``): normalized-prob NB."""

    def __init__(self):
        try:
            from langid.langid import LanguageIdentifier, model  # type: ignore
        except ImportError as e:
            raise ImportError("langid.py is not installed in this environment") from e
        self.identifier = LanguageIdentifier.from_modelstring(model, norm_probs=True)
        self.SUPPORTED_LANGUAGES = sorted(self.identifier.nb_classes)

    def _rank(self, text: str) -> Ranking:
        return [(l, float(p)) for l, p in self.identifier.rank(text)]


class LangdetectDetector(_ExternalBase):
    """langdetect (reference ``langdetect_wrapper.py:17-21``)."""

    def __init__(self, seed: int = 0):
        try:
            from langdetect import DetectorFactory, detect_langs  # type: ignore
        except ImportError as e:
            raise ImportError("langdetect is not installed in this environment") from e
        DetectorFactory.seed = seed  # langdetect is stochastic without this
        self._detect_langs = detect_langs

    def _rank(self, text: str) -> Ranking:
        try:
            return [(r.lang, float(r.prob)) for r in self._detect_langs(text)]
        except Exception:
            return []


class Cld2Detector(_ExternalBase):
    """pycld2 (reference ``cld2_wrapper.py:12-38``): bestEffort, score/1000,
    keep entries with score >= 1 and percent >= 50."""

    def __init__(self):
        try:
            import pycld2  # type: ignore
        except ImportError as e:
            raise ImportError("pycld2 is not installed in this environment") from e
        self.cld2 = pycld2

    def _rank(self, text: str) -> Ranking:
        try:
            _reliable, _bytes, details = self.cld2.detect(text, bestEffort=True)
        except Exception:
            return []
        out = []
        for _name, code, percent, score in details:
            if score >= 1 and percent >= 50 and code != "un":
                out.append((code, min(1.0, float(score) / 1000.0)))
        return sorted(out, key=lambda x: -x[1])


class NltkTextCatDetector(_ExternalBase):
    """nltk TextCat (reference ``nltk_wrapper.py:58-66``): char-3-gram
    out-of-place distances over the Crúbadán profiles; rank = 1/distance
    remapped 639-2 → 639-1 and normalized to a probability simplex."""

    def __init__(self):
        try:
            from nltk.classify import textcat  # type: ignore
        except ImportError as e:
            raise ImportError("nltk is not installed in this environment") from e
        try:
            self.model = textcat.TextCat()  # needs the crubadan+punkt corpora
        except LookupError as e:  # nltk installed but corpora not downloaded
            raise ImportError("nltk crubadan corpus is not available") from e
        from language_identification_ray.functions.langcodes import ISO639_2_TO_1

        self._remap = ISO639_2_TO_1
        self.SUPPORTED_LANGUAGES = sorted(set(self._remap.values()))

    def _rank(self, text: str) -> Ranking:
        try:
            dists = self.model.lang_dists(text)
        except Exception:
            return []
        # 1/dist → prob, keep remappable langs, normalize (ref lines 61-65).
        # dist == 0 (exact profile match) must rank FIRST, not be dropped —
        # weight it as if one trigram were out of place.  B/T 639-2 variants
        # remapping to the same 639-1 code are merged (summed weight) so the
        # ranking never repeats a code.
        merged: dict = {}
        for lang, dist in dists.items():
            if lang not in self._remap:
                continue
            code = self._remap[lang]
            merged[code] = merged.get(code, 0.0) + (1.0 / dist if dist > 0 else 1.0)
        total = sum(merged.values())
        if not total:
            return []
        return sorted(((l, p / total) for l, p in merged.items()), key=lambda x: -x[1])


_REGISTRY = {
    "fasttext": FastTextDetector,  # wheel-free since the format reader
    "langid_py": LangidPyDetector,
    "langdetect": LangdetectDetector,
    "cld2": Cld2Detector,
    "nltk_textcat": NltkTextCatDetector,
}


def available_external_detectors() -> dict:
    """name → constructed detector, for every adapter that can load here
    (fasttext always can — the format reader needs no wheel; the rest
    require their library)."""
    out = {}
    for name, cls in _REGISTRY.items():
        try:
            out[name] = cls()
        except ImportError:  # library not installed here: expected, silent
            continue
        except (OSError, ValueError) as e:  # installed but failed to load
            _log.warning("detector %s unavailable: %s: %s", name, type(e).__name__, e)
    return out
