"""The per-text fastText inference that ``FastTextModel`` replaced with its
batch path, kept as the parity reference: scalar FNV-1a, per-token subword
enumeration, per-text feature ids and float32 hidden vector, per-label
hierarchical-softmax loop.  Used only by the tests."""

from typing import List, Optional

import numpy as np

from language_identification_ray.functions.fasttext_format import (
    BOW, EOS, EOW, LOSS_HS, LOSS_NS, LOSS_OVA, LOSS_SOFTMAX, FastTextModel,
)

_LOG_EPS = 1e-5


def ft_hash(data: bytes) -> int:
    h = 2166136261
    for b in data:
        if b >= 128:
            b -= 256  # int8 view
        h = (h ^ (b & 0xFFFFFFFF)) & 0xFFFFFFFF
        h = (h * 16777619) & 0xFFFFFFFF
    return h


def compute_subwords(word: bytes, minn: int, maxn: int) -> List[int]:
    out: List[int] = []
    nbytes = len(word)
    for i in range(nbytes):
        if (word[i] & 0xC0) == 0x80:
            continue  # continuation byte: not a char start
        j, n = i, 1
        ngram = bytearray()
        while j < nbytes and n <= maxn:
            ngram.append(word[j])
            j += 1
            while j < nbytes and (word[j] & 0xC0) == 0x80:
                ngram.append(word[j])
                j += 1
            if n >= minn and not (n == 1 and (i == 0 or j == nbytes)):
                out.append(ft_hash(bytes(ngram)))
            n += 1
    return out


def _push_hash(m: FastTextModel, out: List[int], hid: int) -> None:
    if m.pruneidx_size == 0:
        return
    if m.pruneidx_size > 0:
        hid = m.pruneidx.get(hid, -1)
        if hid < 0:
            return
    out.append(m.nwords + hid)


def _subwords(m: FastTextModel, token: bytes) -> List[int]:
    ids: List[int] = []
    if m.args.maxn > 0 and token != EOS:
        for h in compute_subwords(BOW + token + EOW, m.args.minn, m.args.maxn):
            _push_hash(m, ids, h % m.args.bucket)
    return ids


def input_ids(m: FastTextModel, text: str) -> np.ndarray:
    raw = text.encode("utf-8", "replace")
    tokens = [t for t in raw.split() if t]
    if b"\x00" in raw:
        tokens = [p for t in tokens for p in t.split(b"\x00") if p]
    tokens.append(EOS)
    ids: List[int] = []
    hashes: List[int] = []
    for tok in tokens:
        wid = m.word2id.get(tok, -1)
        is_label = (tok.startswith(b"__label__") if wid < 0
                    else m.words[wid][2] == 1)
        if is_label:
            continue
        if wid >= 0:
            ids.append(wid)
        ids.extend(_subwords(m, tok))
        hashes.append(ft_hash(tok))
    if m.args.word_ngrams > 1:
        h32 = [h - (1 << 32) if h >= (1 << 31) else h for h in hashes]
        for i in range(len(h32)):
            h = h32[i] & 0xFFFFFFFFFFFFFFFF
            for j in range(i + 1, min(i + m.args.word_ngrams, len(h32))):
                h = (h * 116049371 + (h32[j] & 0xFFFFFFFFFFFFFFFF)) \
                    & 0xFFFFFFFFFFFFFFFF
                _push_hash(m, ids, h % m.args.bucket)
    return np.asarray(ids, dtype=np.int64)


def _hs_paths(m: FastTextModel):
    counts = [c for _, c, t in m.words[m.nwords:]]
    osz = m.nlabels
    parent = [-1] * (2 * osz - 1)
    binary = [False] * (2 * osz - 1)
    cnt = [int(c) for c in counts] + [int(1e15)] * (osz - 1)
    leaf, node = osz - 1, osz
    for i in range(osz, 2 * osz - 1):
        mini = [0, 0]
        for j in range(2):
            if leaf >= 0 and cnt[leaf] < cnt[node]:
                mini[j] = leaf
                leaf -= 1
            else:
                mini[j] = node
                node += 1
        cnt[i] = cnt[mini[0]] + cnt[mini[1]]
        parent[mini[0]] = i
        parent[mini[1]] = i
        binary[mini[1]] = True
    paths = []
    for lbl in range(osz):
        rows, signs = [], []
        n = lbl
        while parent[n] != -1:
            rows.append(parent[n] - osz)
            signs.append(1.0 if binary[n] else -1.0)
            n = parent[n]
        paths.append((np.asarray(rows, dtype=np.int64),
                      np.asarray(signs, dtype=np.float32)))
    return paths


def label_log_probs(m: FastTextModel, text: str) -> Optional[np.ndarray]:
    ids = input_ids(m, text)
    if len(ids) == 0:
        return None
    h = (m.input.rows(ids).sum(axis=0, dtype=np.float32)
         * np.float32(1.0 / len(ids)))
    if m.args.loss == LOSS_HS:
        nint = m.nlabels - 1
        f = m.output.rows(np.arange(nint)) @ h
        sig = 1.0 / (1.0 + np.exp(-f.astype(np.float64)))
        out = np.empty(m.nlabels, dtype=np.float64)
        for lbl, (rows, signs) in enumerate(_hs_paths(m)):
            p = np.where(signs > 0, sig[rows], 1.0 - sig[rows])
            out[lbl] = np.log(p.astype(np.float64) + _LOG_EPS).sum()
        return out
    scores = (m.output.rows(np.arange(m.nlabels)) @ h).astype(np.float64)
    if m.args.loss == LOSS_SOFTMAX:
        scores -= scores.max()
        p = np.exp(scores)
        p /= p.sum()
        return np.log(p + _LOG_EPS)
    if m.args.loss in (LOSS_OVA, LOSS_NS):
        return np.log(1.0 / (1.0 + np.exp(-scores)) + _LOG_EPS)
    raise ValueError(f"unsupported loss {m.args.loss}")
