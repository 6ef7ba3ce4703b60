"""The batch fastText inference path against the per-text implementation it
replaced (``tests/_fasttext_reference.py``), its bounded token memo, and
batch invariance of the langid columns: a document's ``lang``/``lang_conf``
must not depend on batch size, batch membership or order."""

from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings

import _fasttext_reference as ref
from language_identification_ray.functions import fasttext_format as ff
from language_identification_ray.functions.fasttext_format import (
    EOS, LOSS_HS, LOSS_NS, LOSS_OVA, LOSS_SOFTMAX, FastTextArgs, FastTextModel,
    _DenseMatrix, new_dense_model, quantize_model, save_quantized,
)

ASSET = (Path(__file__).resolve().parents[1] / "language_identification_ray"
         / "state" / "assets" / "langid_ft_mini.bin")

WORDS = [b"the", b"a", "été".encode(), "中文".encode(), "łódź".encode(),
         b"x" * 30, b"q", "ñandú".encode(), b"chat", "привет".encode()]

EDGE_TEXTS = [
    "",
    "   ",
    "\x00",
    "a\x00b c\x00\x00d",
    "bad \udcff surrogate \ud800",
    "__label__x the __label__en chat",
    "y" * 150 + " " + "é" * 120,
    "你好世界，今天怎么样？ 中文 中文",
    "the a the a été chat q q q",
    "привет мир\tи\nвсе\r\x0b\x0cостальные",
    "łódź ñandú 12345 !!!",
    "</s> the </s>",
]


def _random_model(rng, loss, word_ngrams, minn, maxn):
    args = FastTextArgs(dim=int(rng.integers(2, 24)),
                        bucket=int(rng.integers(16, 512)), minn=minn,
                        maxn=maxn, word_ngrams=word_ngrams, loss=loss)
    nv = int(rng.integers(1, len(WORDS)))
    vocab = [(EOS, 9)] + [(w, int(rng.integers(1, 50))) for w in WORDS[:nv]]
    labels = [(b"__label__l%d" % i, int(rng.integers(1, 9)))
              for i in range(int(rng.integers(2, 8)))]
    m = new_dense_model(args, vocab, labels, 100, rng)
    m.output.data[:] = rng.normal(size=m.output.data.shape).astype(np.float32)
    return m


def _random_texts(rng, n):
    pool = [w.decode() for w in WORDS] + ["unseen", "tokens", "中", "ß", "__label__l0"]
    return [" ".join(rng.choice(pool, size=int(rng.integers(0, 12))).tolist())
            for _ in range(n)]


def _assert_matches_reference(m, texts):
    lp, has = m.log_probs(texts)
    for i, text in enumerate(texts):
        np.testing.assert_array_equal(m.input_ids(text), ref.input_ids(m, text))
        want = ref.label_log_probs(m, text)
        assert has[i] == (want is not None), text
        if want is None:
            continue
        assert int(np.argmax(lp[i])) == int(np.argmax(want)), text
        assert np.abs(np.exp(lp[i]) - np.exp(want)).max() <= 1e-5, text
        # one-row calls are the same computation as the batch
        one, _ = m.log_probs([text])
        np.testing.assert_array_equal(one[0], lp[i])


def test_vendored_model_matches_reference():
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    from train_fasttext_model import build_corpus

    m = FastTextModel.load(str(ASSET))
    _assert_matches_reference(m, EDGE_TEXTS + [t for t, _ in build_corpus()[::7]])


def test_random_dense_models_match_reference():
    rng = np.random.default_rng(2024)
    shapes = [(0, 0), (1, 1), (1, 3), (2, 4), (3, 6), (0, 2), (2, 2)]
    losses = [LOSS_SOFTMAX, LOSS_OVA, LOSS_HS, LOSS_NS]
    for trial in range(20):
        minn, maxn = shapes[trial % len(shapes)]
        m = _random_model(rng, losses[trial % len(losses)],
                          1 + trial % 3, minn, maxn)
        _assert_matches_reference(m, EDGE_TEXTS + _random_texts(rng, 12))


def test_quantized_roundtrip_matches_reference(tmp_path):
    rng = np.random.default_rng(11)
    m = _random_model(rng, LOSS_SOFTMAX, 2, 2, 4)
    p = str(tmp_path / "q.ftz")
    save_quantized(quantize_model(m), p)
    q = FastTextModel.load(p)
    assert q.input.norms is not None
    _assert_matches_reference(q, EDGE_TEXTS + _random_texts(rng, 12))


@pytest.mark.parametrize("kept_frac", [0.3, 0.0])
def test_pruned_bucket_model_matches_reference(kept_frac):
    rng = np.random.default_rng(3)
    m = _random_model(rng, LOSS_HS, 2, 1, 4)
    keys = np.sort(rng.choice(m.args.bucket, int(m.args.bucket * kept_frac),
                              replace=False))
    rows = np.concatenate([m.input.data[:m.nwords],
                           m.input.data[m.nwords + keys]])
    pruned = FastTextModel(m.args, m.words, m.nwords, m.nlabels, m.ntokens,
                           _DenseMatrix(rows), m.output,
                           {int(k): i for i, k in enumerate(keys)}, len(keys))
    assert (pruned.pruneidx_size > 0) == (kept_frac > 0)
    _assert_matches_reference(pruned, EDGE_TEXTS + _random_texts(rng, 12))


def test_token_memo_is_bounded(monkeypatch):
    """More distinct tokens than the cap, in batches under and over it, and
    new tokens featurized in several chunks: same scores as uncapped."""
    rng = np.random.default_rng(8)
    batches = [[" ".join(f"w{b}x{i}" for i in range(k)) + " the chat"]
               for b, k in enumerate([10, 30, 100, 5, 40, 70, 3, 20])]
    batches.append(_random_texts(rng, 6))
    want = [FastTextModel.load(str(ASSET)).log_probs(b)[0] for b in batches]

    monkeypatch.setattr(ff, "_MEMO_CAP", 64)
    monkeypatch.setattr(ff, "_FEATURIZE_CHUNK", 7)
    m = FastTextModel.load(str(ASSET))
    sizes = []
    for b, w in zip(batches, want):
        lp, _ = m.log_probs(b)
        np.testing.assert_array_equal(lp, w)
        sizes.append(len(m._memo.slot))
        assert all(a.shape[-1] <= 64 for a in m._memo.table)
    assert max(sizes) <= 64
    assert max(sizes) > 0  # batches under the cap were memoized


def test_detector_top1_is_first_of_ranking():
    from language_identification_ray.stages.external_detectors import FastTextDetector

    det = FastTextDetector()
    texts = EDGE_TEXTS + ["hello world how are you", "12345", "le chat noir"]
    langs, confs = det.top1_batch(texts)
    for i, r in enumerate(det.predict_batch(texts)):
        assert (langs[i], confs[i]) == ((r[0][0], r[0][1]) if r else ("und", 0.0))


_PIECES = ["the", "chat", "le", "der", "привет", "мир", "中文", "こんにちは",
           "été", "hola", "12", "a@b.co", "__label__en", "\x00", "  "]
# Arrow strings are valid UTF-8, so stage inputs carry no lone surrogates
DOC = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
    st.lists(st.sampled_from(_PIECES), max_size=40).map(" ".join),
)


def _columns(stage, texts, names):
    out = stage(pa.table({"url": [str(i) for i in range(len(texts))], "text": texts}))
    return {n: out[n].to_pylist() for n in names}


def _assert_batch_invariant(stage, texts, order, names):
    whole = _columns(stage, texts, names)
    singles = [_columns(stage, [t], names) for t in texts]
    shuffled = _columns(stage, [texts[i] for i in order], names)
    for n in names:
        assert [s[n][0] for s in singles] == whole[n]
        assert [whole[n][i] for i in order] == shuffled[n]


@pytest.fixture(scope="module")
def langid_stage():
    from language_identification_ray.stages.langid import LangIdStage

    return LangIdStage(detector="fasttext")


@pytest.fixture(scope="module")
def fused_stage():
    from language_identification_ray.pipelines.quality_filter import QualityFilterStage

    return QualityFilterStage(detector="fasttext")


@settings(max_examples=40, deadline=None)
@given(st.lists(DOC, min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_langid_fasttext_batch_invariant(langid_stage, texts, rnd):
    order = list(range(len(texts)))
    rnd.shuffle(order)
    _assert_batch_invariant(langid_stage, texts, order, ("lang", "lang_conf"))


@settings(max_examples=25, deadline=None)
@given(st.lists(DOC, min_size=1, max_size=10), st.randoms(use_true_random=False))
def test_fused_stage_fasttext_batch_invariant(fused_stage, texts, rnd):
    order = list(range(len(texts)))
    rnd.shuffle(order)
    _assert_batch_invariant(fused_stage, texts, order, ("lang", "lang_conf", "keep"))


def _long_html(seed: int) -> bytes:
    """A long html page: one language's seed sentences, then distinct
    sentences of all languages, three to a paragraph."""
    from language_identification_ray.state.seed_corpus import SEED_SENTENCES

    rng = np.random.default_rng(seed)
    langs = sorted(SEED_SENTENCES)
    pool = [s for lang in langs for s in SEED_SENTENCES[lang]]
    sents = SEED_SENTENCES[langs[seed % len(langs)]] + [
        pool[i] for i in rng.choice(len(pool), int(rng.integers(0, 120)), replace=False)]
    paras = [" ".join(sents[i:i + 3]) for i in range(0, len(sents), 3)]
    return ("<html><body><nav>home | about</nav><p>" + "</p>\n<p>".join(paras)
            + "</p><script>var x = 1;</script></body></html>").encode("utf-8")


# (text, html) pages: long html, NULL and empty fields, a lone surrogate
# encoded in the html bytes (Arrow strings cannot carry one), invalid UTF-8,
# and text dense with "\n"
PAGE = st.one_of(
    st.integers(0, 10_000).map(lambda s: ("", _long_html(s))),
    st.sampled_from([
        (None, None),
        ("", b""),
        (None, b"<p>a \xed\xa0\x80 lone surrogate \xed\xb2\x80</p>"),
        ("", b"<p>caf\xe9 na\xefve \xff\xfe bad bytes</p>"),
        ("\n" * 50 + "the\n\nquick\n \n brown\n" * 20, None),
        ("\n", b"<p>the chat</p>"),
    ]),
    DOC.map(lambda t: (t, None)),
)


def _pages(pages):
    return pa.table({
        "url": [str(i) for i in range(len(pages))],
        "text": pa.array([t for t, _ in pages], pa.string()),
        "html": pa.array([h for _, h in pages], pa.binary()),
    })


def _row_bytes(out: pa.Table) -> list:
    """Each output row as a tuple, floats by their bit pattern (NaN-safe)."""
    cols = []
    for field in out.schema:
        vals = out[field.name].to_pylist()
        if pa.types.is_floating(field.type):
            vals = [None if v is None else np.float64(v).tobytes() for v in vals]
        cols.append(vals)
    return list(zip(*cols))


@pytest.fixture(scope="module")
def ensemble_stage():
    from language_identification_ray.pipelines.quality_filter import QualityFilterStage

    return QualityFilterStage(detector="ensemble", with_perplexity=True)


@settings(max_examples=15, deadline=None)
@given(st.lists(PAGE, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_fused_stage_ensemble_batch_invariant(ensemble_stage, pages, rnd):
    """Every output column of the ensemble + perplexity stage is
    byte-identical at batch size 1, in the whole batch and shuffled."""
    order = list(range(len(pages)))
    rnd.shuffle(order)
    whole = _row_bytes(ensemble_stage(_pages(pages)))
    singles = [_row_bytes(ensemble_stage(_pages([p])))[0][1:] for p in pages]
    shuffled = _row_bytes(ensemble_stage(_pages([pages[i] for i in order])))
    assert [r[1:] for r in whole] == singles  # column 0 is the positional url
    assert [whole[i][1:] for i in order] == [r[1:] for r in shuffled]
