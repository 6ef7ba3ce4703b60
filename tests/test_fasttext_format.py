"""fastText model-format reader/writer/inference (functions/fasttext_format).

Pins: FNV-1a hash constants (ASCII matches the standard FNV-1a vectors;
multi-byte input exercises the signed-char quirk), UTF-8-aware subword
enumeration, dense save→load round-trip bit-exactness, the vendored
in-repo-trained model's accuracy, the adapter contract (A1 no longer
import-gated), and — when the reference checkout is present — the REAL
lid.176.ftz: quantized+pruned parse, hierarchical-softmax prediction,
probability-simplex sanity and smoke-text accuracy
(reference ``fasttext_wrapper.py:25-45``, ``scripts_langid.py:87-108``).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from language_identification_ray.functions.fasttext_format import (
    EOS, FastTextArgs, FastTextModel, compute_subwords, ft_hash,
    new_dense_model,
)
from language_identification_ray.stages.external_detectors import (
    FastTextDetector, available_external_detectors,
)

ASSET = (Path(__file__).resolve().parents[1] / "language_identification_ray"
         / "state" / "assets" / "langid_ft_mini.bin")
LID176 = os.environ.get(
    "FASTTEXT_LID176_PATH",
    "/root/reference/language_identification/lid.176.ftz",
)


# ---------------------------------------------------------------------------
# hashing + subwords


def test_ft_hash_matches_fnv1a_on_ascii():
    # standard FNV-1a 32-bit test vectors (ASCII has no sign-extension)
    assert ft_hash(b"") == 2166136261
    assert ft_hash(b"a") == 0xE40C292C
    assert ft_hash(b"foobar") == 0xBF9CF968


def test_ft_hash_sign_extension_quirk():
    # bytes >= 0x80 are read as int8 then widened: differs from the
    # unsigned FNV-1a at the first multi-byte char
    def fnv_unsigned(data):
        h = 2166136261
        for b in data:
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h

    utf8 = "é".encode()
    assert ft_hash(utf8) != fnv_unsigned(utf8)
    assert ft_hash(utf8) == ft_hash("é".encode())  # deterministic


def test_compute_subwords_ascii():
    # "<ab>": n in [2,4] from each char start; minn=2 excludes 1-grams
    grams = [b"<a", b"<ab", b"<ab>", b"ab", b"ab>", b"b>"]
    assert compute_subwords(b"<ab>", 2, 4) == [ft_hash(g) for g in grams]


def test_compute_subwords_whole_1gram_exclusion():
    # minn=1: the lone "<" (i==0) and ">" (j==end) 1-grams are excluded,
    # interior 1-grams are kept — fastText's boundary rule
    got = compute_subwords(b"<ab>", 1, 1)
    assert got == [ft_hash(b"a"), ft_hash(b"b")]


def test_compute_subwords_utf8_groups_continuation_bytes():
    # é is 2 bytes: each n counts CHARACTERS, continuation bytes glued
    word = "<é>".encode()
    grams = [b"<" + "é".encode(), b"<" + "é".encode() + b">",
             "é".encode() + b">"]
    assert compute_subwords(word, 2, 4) == [ft_hash(g) for g in grams]


# ---------------------------------------------------------------------------
# dense round-trip


def _tiny_model():
    rng = np.random.default_rng(7)
    args = FastTextArgs(dim=4, bucket=64, minn=2, maxn=3, word_ngrams=2)
    vocab = [(EOS, 5), (b"the", 4), (b"chat", 2), (b"\xc3\xa9t\xc3\xa9", 1)]
    labels = [(b"__label__en", 3), (b"__label__fr", 2)]
    m = new_dense_model(args, vocab, labels, 17, rng)
    # give the matrices recognizable values
    m.output.data[:] = rng.normal(size=m.output.data.shape).astype(np.float32)
    return m


def test_dense_save_load_roundtrip(tmp_path):
    m = _tiny_model()
    p = str(tmp_path / "m.bin")
    m.save(p)
    m2 = FastTextModel.load(p)
    assert m2.words == m.words
    assert m2.nwords == m.nwords and m2.nlabels == m.nlabels
    assert m2.ntokens == m.ntokens
    assert m2.args == m.args
    np.testing.assert_array_equal(m2.input.data, m.input.data)
    np.testing.assert_array_equal(m2.output.data, m.output.data)
    for text in ["the chat", "été the", "xyzzy unknown", ""]:
        assert m2.predict(text, k=2) == m.predict(text, k=2)


def test_input_ids_oov_uses_subwords_only():
    m = _tiny_model()
    ids = m.input_ids("qq")
    # OOV token -> bucket ids only (>= nwords); EOS -> its word id
    assert (ids >= m.nwords).sum() >= 1
    assert m.word2id[EOS] in ids


def test_word_ngram_hashes_present():
    m = _tiny_model()
    solo = set(m.input_ids("the").tolist())
    pair = set(m.input_ids("the chat").tolist())
    # the bigram hash adds at least one bucket id beyond the union of
    # the two single-word feature sets
    solo2 = set(m.input_ids("chat").tolist())
    assert pair - (solo | solo2)


# ---------------------------------------------------------------------------
# vendored model + adapter


def test_vendored_model_loads_and_detects():
    m = FastTextModel.load(str(ASSET))
    assert m.nlabels >= 20
    assert m.predict("the quick brown fox and the lazy dog", k=1)[0][0] == "en"
    assert m.predict("le chat et le chien sont dans la maison", k=1)[0][0] == "fr"
    assert m.predict("der hund und die katze sind im haus", k=1)[0][0] == "de"


def test_vendored_model_seed_corpus_accuracy():
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    from train_fasttext_model import build_corpus

    m = FastTextModel.load(str(ASSET))
    lines = build_corpus()
    correct = sum(
        1 for text, lang in lines
        if (p := m.predict(text, k=1)) and p[0][0] == lang
    )
    assert correct / len(lines) >= 0.95


def test_fasttext_detector_wheel_free():
    det = FastTextDetector()  # must construct without the fasttext wheel
    out = det.predict_batch(["hello world how are you", "", "12345"])
    assert len(out) == 3
    assert out[0][0][0] == "en"
    for ranking in out:
        for lang, prob in ranking:
            assert 0.0 <= prob <= 1.01  # fastText's +1e-5 smoothing
    # language_codes filter
    only = det.predict_batch(["hello world how are you"], language_codes=["de", "fr"])
    assert {l for l, _ in only[0]} <= {"de", "fr"}


def test_fasttext_always_available():
    assert "fasttext" in available_external_detectors()


# ---------------------------------------------------------------------------
# the REAL lid.176 model (quantized + pruned + hierarchical softmax)


needs_lid176 = pytest.mark.skipif(
    not os.path.exists(LID176),
    reason="lid.176.ftz not present (set FASTTEXT_LID176_PATH)",
)


@pytest.fixture(scope="module")
def lid176():
    return FastTextModel.load(LID176)


@needs_lid176
def test_lid176_parses(lid176):
    assert lid176.nlabels == 176
    assert lid176.args.loss == 1  # hierarchical softmax
    assert lid176.pruneidx_size > 0  # .ftz ships a pruned bucket space
    assert lid176.input.norms is not None  # qnorm quantizer


@needs_lid176
def test_lid176_probability_simplex(lid176):
    # hs leaf probabilities form a simplex; the +1e-5 smoothing adds at
    # most 176 * 1e-5 on top
    lp, _ = lid176.log_probs(["hello world, how are you today?"])
    total = float(np.exp(lp[0]).sum())
    assert 0.99 <= total <= 1.01


@needs_lid176
def test_lid176_smoke_texts(lid176):
    # reference smoke-text set (scripts_langid.py:87-108 flavors) plus
    # the wrapper's own usage: top-1 over 12 scripts/languages
    cases = [
        ("hello world, how are you today?", "en"),
        ("bonjour tout le monde, comment allez-vous ?", "fr"),
        ("hallo welt, wie geht es dir heute?", "de"),
        ("hola mundo, ¿cómo estás hoy?", "es"),
        ("привет мир, как дела сегодня?", "ru"),
        ("你好世界，今天怎么样？", "zh"),
        ("こんにちは世界、今日はお元気ですか", "ja"),
        ("안녕하세요 세계, 오늘 어떠세요?", "ko"),
        ("مرحبا بالعالم كيف حالك اليوم", "ar"),
        ("नमस्ते दुनिया आज आप कैसे हैं", "hi"),
        ("สวัสดีชาวโลก วันนี้เป็นอย่างไรบ้าง", "th"),
        ("Merhaba dünya bugün nasılsın", "tr"),
    ]
    for text, want in cases:
        got = lid176.predict(text, k=1)
        assert got and got[0][0] == want, f"{text!r}: {got}"


@needs_lid176
def test_lid176_through_adapter(monkeypatch):
    monkeypatch.setenv("FASTTEXT_LID_MODEL", LID176)
    det = FastTextDetector()
    assert len(det.SUPPORTED_LANGUAGES) == 176
    (ranking,) = det.predict_batch(["das ist ein deutscher satz über hunde"])
    assert ranking[0][0] == "de"


# ---------------------------------------------------------------------------
# property lane: random dense models round-trip and predict consistently


def test_random_models_roundtrip(tmp_path):
    rng = np.random.default_rng(99)
    words_pool = [b"the", b"a", "été".encode(), "中文".encode(),
                  "łódź".encode(), b"x" * 30, b"q", "ñandú".encode()]
    for trial in range(8):
        dim = int(rng.integers(2, 24))
        minn = int(rng.integers(0, 3))
        maxn = int(rng.integers(minn, 5)) if minn else 0
        args = FastTextArgs(
            dim=dim,
            bucket=int(rng.integers(16, 512)),
            minn=minn, maxn=maxn,
            word_ngrams=int(rng.integers(1, 4)),
        )
        nv = int(rng.integers(1, len(words_pool)))
        vocab = [(EOS, 9)] + [(w, int(rng.integers(1, 50)))
                              for w in words_pool[:nv]]
        labels = [(b"__label__l%d" % i, int(rng.integers(1, 9)))
                  for i in range(int(rng.integers(2, 6)))]
        m = new_dense_model(args, vocab, labels, 100, rng)
        m.output.data[:] = rng.normal(size=m.output.data.shape).astype(np.float32)
        p = str(tmp_path / f"m{trial}.bin")
        m.save(p)
        m2 = FastTextModel.load(p)
        assert m2.words == m.words and m2.args == m.args
        np.testing.assert_array_equal(m2.input.data, m.input.data)
        np.testing.assert_array_equal(m2.output.data, m.output.data)
        for text in ["the a", "été 中文 łódź", "unseen tokens here", "", "   "]:
            assert m2.predict(text, k=3) == m.predict(text, k=3)
            lp, has = m.log_probs([text])
            if has[0]:  # softmax: smoothed probs ~ simplex
                total = float(np.exp(lp[0]).sum())
                assert 0.99 <= total <= 1.01


def test_hs_model_roundtrip_and_simplex(tmp_path):
    # hierarchical softmax end-to-end on a WRITTEN model: tree rebuild from
    # stored label counts + dfs scoring survive the save/load boundary
    rng = np.random.default_rng(5)
    args = FastTextArgs(dim=8, bucket=64, minn=2, maxn=3, loss=1)
    vocab = [(EOS, 9), (b"alpha", 5), (b"beta", 3)]
    labels = [(b"__label__a", 7), (b"__label__b", 5), (b"__label__c", 2),
              (b"__label__d", 1)]
    m = new_dense_model(args, vocab, labels, 50, rng)
    m.output.data[:] = rng.normal(size=m.output.data.shape).astype(np.float32)
    p = str(tmp_path / "hs.bin")
    m.save(p)
    m2 = FastTextModel.load(p)
    lp, _ = m2.log_probs(["alpha beta"])
    total = float(np.exp(lp[0]).sum())
    # hs leaves form an exact simplex before the +1e-5 smoothing
    assert 0.99 <= total <= 1.01
    assert m2.predict("alpha beta", k=4) == m.predict("alpha beta", k=4)


# ---------------------------------------------------------------------------
# quantization (write side of the .ftz format)


def test_quantize_save_load_roundtrip(tmp_path):
    from language_identification_ray.functions.fasttext_format import (
        quantize_model, save_quantized,
    )

    m = FastTextModel.load(str(ASSET))
    q = quantize_model(m)
    p = str(tmp_path / "mini.ftz")
    save_quantized(q, p)
    assert os.path.getsize(p) < os.path.getsize(str(ASSET)) / 3
    m2 = FastTextModel.load(p)
    assert m2.input.norms is not None  # qnorm codebook survived
    assert m2.words == m.words
    # PQ is lossy; top-1 must still agree with the dense model on nearly
    # all of the training corpus
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    from train_fasttext_model import build_corpus

    lines = build_corpus()
    agree = sum(
        1 for text, _ in lines
        if (a := m.predict(text, k=1)) and (b := m2.predict(text, k=1))
        and a[0][0] == b[0][0]
    )
    assert agree / len(lines) >= 0.95


@needs_lid176
def test_lid176_reserializes_identically(lid176, tmp_path):
    """A LOADED quantized model re-saves (the loader keeps the raw
    codebooks) and the reloaded copy scores identically."""
    from language_identification_ray.functions.fasttext_format import (
        save_quantized,
    )

    p = str(tmp_path / "resave.ftz")
    save_quantized(lid176, p)
    m2 = FastTextModel.load(p)
    for text in ["hello world how are you", "bonjour tout le monde",
                 "привет мир", "こんにちは世界"]:
        a = lid176.predict(text, k=5)
        b = m2.predict(text, k=5)
        assert a == b, text
