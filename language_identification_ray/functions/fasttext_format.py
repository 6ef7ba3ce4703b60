"""From-scratch reader/writer + numpy inference for the PUBLIC fastText
supervised model format (``.bin`` and product-quantized ``.ftz``).

The reference's hot-path detector is the real lid.176 fastText model
(``fasttext_wrapper.py:25-45``); the fasttext wheel is not installable in
this environment, so this module implements the file format and the
prediction math directly from the published format (magic 793712314,
version 12 — the fastText 0.9.x on-disk layout: args block, dictionary
with NUL-terminated entries, optional prune index, dense or
product-quantized input/output matrices) so the engine can load and run
the reference's actual ``lid.176.ftz`` — and any other fastText
supervised model — with numpy only.  The mirrored semantics, all from the
public format/algorithm description:

- FNV-1a token hashing WITH the signed-char quirk (bytes >= 0x80
  sign-extend before the xor) — required for subword/bucket parity;
- UTF-8-aware character n-gram subwords over ``<word>`` (``minn..maxn``,
  continuation bytes glued to their lead byte), including the
  whole-word-token exclusion rule for 1-grams at the boundaries;
- word-ngram hashing with the int32→uint64 sign-extension quirk;
- dictionary prune remapping (``.ftz`` files ship a pruned bucket space);
- product-quantizer decode (per-subspace uint8 codes × 256 centroids,
  optional per-row norm quantizer) for quantized matrices;
- prediction for softmax, one-vs-all/negative-sampling AND
  hierarchical-softmax losses (the Huffman tree is rebuilt from the stored
  label counts exactly like training did), with fastText's
  ``log(x + 1e-5)`` score smoothing.

Inference is batch-only: :meth:`FastTextModel.log_probs` splits a batch
once, and featurizes each distinct token once per model instance — FNV-1a
and the n-gram enumeration run as numpy array ops over all new tokens of
the batch, and the token's input rows are summed once and memoized
(``_TokenMemo``, at most ``_MEMO_CAP`` tokens, cleared whole when full).
A text's hidden vector is the sum of its tokens' row sums plus its word
n-gram rows, over its id count; all labels are scored at once by a
fixed-order reduction (no BLAS GEMM), so a text's scores do not depend on
the batch it came in.  ``predict`` and ``input_ids`` are one-row calls
into the same code.  The memo depends on the matrices, so it is built at
the first prediction; the matrices are read-only from then on.

Writing supports dense (non-quantized) models, which is what the in-repo
trainer (``scripts/train_fasttext_model.py``) emits — a real fastText
binary would load the produced file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

MAGIC = 793712314
VERSION = 12
EOS = b"</s>"
BOW = b"<"
EOW = b">"
LOSS_HS, LOSS_NS, LOSS_SOFTMAX, LOSS_OVA = 1, 2, 3, 4
MODEL_CBOW, MODEL_SG, MODEL_SUP = 1, 2, 3
_KSUB = 256  # fastText product quantizer: 256 centroids per subspace
_LOG_EPS = 1e-5  # fastText std_log(x) = log(x + 1e-5)

_ARG_NAMES = (
    "dim", "ws", "epoch", "min_count", "neg", "word_ngrams", "loss",
    "model", "bucket", "minn", "maxn", "lr_update_rate",
)


_FNV_OFFSET = np.uint32(2166136261)
_FNV_PRIME = np.uint32(16777619)
_NGRAM_MUL = np.uint64(116049371)
_LABEL_PREFIX = b"__label__"
# distinct tokens memoized per model; the memo is cleared whole when full
_MEMO_CAP = 1 << 18
# new tokens featurized together: bounds the transient arrays of a miss
_FEATURIZE_CHUNK = 1024


def _fnv1a(sbytes: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """uint32 FNV-1a of every span ``sbytes[starts[i]:starts[i] + lens[i]]``.

    ``sbytes`` holds the bytes already sign-extended to uint32 (fastText
    reads each byte as int8 before the xor).  Spans run longest first, so
    the spans still hashing at byte ``k`` are a prefix of that order."""
    order = np.argsort(-lens, kind="stable")
    s, ln = starts[order], lens[order]
    h = np.full(len(s), _FNV_OFFSET, dtype=np.uint32)
    neg = -ln
    for k in range(int(ln[0]) if len(ln) else 0):
        a = int(np.searchsorted(neg, -k, side="left"))  # spans with len > k
        h[:a] = (h[:a] ^ sbytes[s[:a] + k]) * _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def _sign_extended(buf: bytes) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.int8).astype(np.uint32)


def _token_hashes(tokens: Sequence[bytes]) -> np.ndarray:
    """ft_hash of each token, as uint32."""
    lens = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
    return _fnv1a(_sign_extended(b"".join(tokens)), starts, lens)


def _subword_hashes(words: Sequence[bytes], minn: int,
                    maxn: int) -> Tuple[np.ndarray, np.ndarray]:
    """Raw subword hashes of every (already BOW/EOW-wrapped) word at once:
    UTF-8-aware char n-grams, n in [minn, maxn], skipping the lone
    whole-1-gram at either boundary.  Returns (uint32 hashes, owning word
    index), word by word, each word's n-grams ordered by char start then n."""
    buf = b"".join(words)
    u8 = np.frombuffer(buf, dtype=np.uint8)
    wlen = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    wend = np.cumsum(wlen)
    cs = np.flatnonzero((u8 & 0xC0) != 0x80)  # char starts
    bound = np.append(cs, len(u8))
    owner = np.searchsorted(wend, cs, side="right")
    last = np.cumsum(np.bincount(owner, minlength=len(words))) - 1
    nc = len(cs)
    left = last[owner] - np.arange(nc) + 1  # chars from here to word end
    first = cs == (wend - wlen)[owner]
    # every (char start, n) pair in compute_subwords order: start-major
    g = np.repeat(np.arange(nc), maxn)
    n = np.tile(np.arange(1, maxn + 1), nc)
    keep = (n <= left[g]) & (n >= minn) & ~((n == 1) & (first[g] | (left[g] == 1)))
    g, n = g[keep], n[keep]
    starts = cs[g]
    h = _fnv1a(_sign_extended(buf), starts, bound[g + n] - starts)
    return h, owner[g]


def ft_hash(data: bytes) -> int:
    """fastText's FNV-1a with the signed-char sign-extension quirk:
    each byte is read as int8, then converted to uint32."""
    return int(_token_hashes([data])[0])


def compute_subwords(word: bytes, minn: int, maxn: int) -> List[int]:
    """Raw (pre-prune, pre-bucket-offset) subword hashes of ``word``
    (already BOW/EOW-wrapped): UTF-8-aware char n-grams, n in
    [minn, maxn], skipping the lone whole-1-gram at either boundary."""
    return _subword_hashes([word], minn, maxn)[0].tolist()


def _tokens(text: str) -> List[bytes]:
    """fastText's getLine split: ASCII whitespace and NUL, then EOS."""
    raw = text.encode("utf-8", "replace")
    if b"\x00" in raw:
        raw = raw.replace(b"\x00", b" ")
    toks = raw.split()
    toks.append(EOS)
    return toks


@dataclass
class FastTextArgs:
    dim: int = 16
    ws: int = 5
    epoch: int = 5
    min_count: int = 1
    neg: int = 5
    word_ngrams: int = 1
    loss: int = LOSS_SOFTMAX
    model: int = MODEL_SUP
    bucket: int = 2000000
    minn: int = 2
    maxn: int = 4
    lr_update_rate: int = 100
    t: float = 1e-4
    qout: bool = False


class _QuantMatrix:
    """Product-quantized matrix: per-row uint8 codes into 256-centroid
    subspace codebooks, optional per-row scalar norm codebook."""

    def __init__(self, m, n, codes, centroids, nsubq, dsub, lastdsub,
                 norms: Optional[np.ndarray],
                 norm_flat: Optional[np.ndarray] = None,
                 norm_codes: Optional[np.ndarray] = None):
        self.m, self.n = m, n
        self.codes = codes  # (m, nsubq) uint8
        self.nsubq, self.dsub, self.lastdsub = nsubq, dsub, lastdsub
        self.flat = centroids  # (dim * 256,) float32, dim == n
        # reshape centroids into per-subspace lookup tables
        flat = centroids
        tabs = []
        for sq in range(nsubq):
            d = lastdsub if sq == nsubq - 1 else dsub
            off = sq * _KSUB * dsub
            tabs.append(flat[off:off + _KSUB * d].reshape(_KSUB, d))
        self._tabs = tabs
        self.norms = norms  # (m,) float32 or None
        # raw norm-quantizer parts kept so a loaded/constructed quantized
        # matrix can be re-serialized without a side-channel
        self.norm_flat = norm_flat
        self.norm_codes = norm_codes

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Decode rows ``idx`` -> (len(idx), n) float32."""
        c = self.codes[idx]  # (k, nsubq)
        parts = [self._tabs[sq][c[:, sq]] for sq in range(self.nsubq)]
        out = np.concatenate(parts, axis=1).astype(np.float32)
        if self.norms is not None:
            out *= self.norms[idx][:, None]
        return out


class _DenseMatrix:
    def __init__(self, data: np.ndarray):
        self.data = data
        self.m, self.n = data.shape

    def rows(self, idx: np.ndarray) -> np.ndarray:
        return self.data[idx]


def _read_exact(f, n: int) -> bytes:
    b = f.read(n)
    if len(b) != n:
        raise ValueError("truncated fastText model file")
    return b


def _load_pq(f) -> Tuple[np.ndarray, int, int, int]:
    dim, nsubq, dsub, lastdsub = struct.unpack("<4i", _read_exact(f, 16))
    cents = np.frombuffer(_read_exact(f, dim * _KSUB * 4), dtype="<f4").copy()
    return cents, nsubq, dsub, lastdsub


def _load_matrix(f, quant: bool):
    if not quant:
        m, n = struct.unpack("<2q", _read_exact(f, 16))
        data = np.frombuffer(_read_exact(f, m * n * 4), dtype="<f4").copy()
        return _DenseMatrix(data.reshape(m, n))
    qnorm = _read_exact(f, 1)[0] != 0
    m, n = struct.unpack("<2q", _read_exact(f, 16))
    (codesize,) = struct.unpack("<i", _read_exact(f, 4))
    codes = np.frombuffer(_read_exact(f, codesize), dtype=np.uint8).copy()
    cents, nsubq, dsub, lastdsub = _load_pq(f)
    norms = None
    nflat = ncodes = None
    if qnorm:
        ncodes = np.frombuffer(_read_exact(f, m), dtype=np.uint8).copy()
        nflat, _, _, _ = _load_pq(f)  # dim=1 quantizer: 256 scalars
        norms = nflat[:_KSUB][ncodes].astype(np.float32)
    return _QuantMatrix(m, n, codes.reshape(m, nsubq), cents, nsubq, dsub,
                        lastdsub, norms, nflat, ncodes)


class _TokenTable(NamedTuple):
    """Features of distinct tokens; the last axis runs over tokens."""

    rowsum: np.ndarray  # (dim, m) float64: sum of the token's input rows
    count: np.ndarray   # int64: number of those rows
    hash: np.ndarray    # int64: ft_hash as int32, sign-extended (word n-grams)
    kept: np.ndarray    # bool: False for label tokens, which getLine skips


class _TokenMemo:
    """Distinct tokens seen by one model: a slot per token into a
    :class:`_TokenTable`.  Holds at most ``_MEMO_CAP`` tokens; a batch
    whose new tokens would pass the cap clears it first, and a batch with
    more distinct tokens than the cap is scored without memoizing."""

    def __init__(self):
        self.slot: Dict[bytes, int] = {}
        self.table: Optional[_TokenTable] = None

    def lookup(self, tokens: List[bytes],
               compute) -> Tuple[_TokenTable, np.ndarray]:
        """(table, row of each token in it); ``compute(distinct tokens)``
        builds the rows of tokens not memoized yet."""
        slots = np.fromiter(map(self.slot.get, tokens, repeat(-1)),
                            dtype=np.int64, count=len(tokens))
        miss = np.flatnonzero(slots < 0)
        if not len(miss):
            return self.table, slots
        missed = [tokens[i] for i in miss]
        new = list(dict.fromkeys(missed))
        if len(self.slot) + len(new) > _MEMO_CAP:
            self.slot = {}
            miss, missed = np.arange(len(tokens)), tokens
            new = list(dict.fromkeys(tokens))
        rows = compute(new)
        if len(new) > _MEMO_CAP:
            local = dict(zip(new, range(len(new))))
            return rows, np.fromiter(map(local.__getitem__, tokens),
                                     dtype=np.int64, count=len(tokens))
        base = len(self.slot)
        self._store(base, rows)
        self.slot.update(zip(new, range(base, base + len(new))))
        slots[miss] = np.fromiter(map(self.slot.__getitem__, missed),
                                  dtype=np.int64, count=len(missed))
        return self.table, slots

    def _store(self, base: int, rows: _TokenTable) -> None:
        end = base + len(rows.count)
        have = 0 if self.table is None else len(self.table.count)
        if end > have:
            size = min(max(end, 2 * have, 4096), _MEMO_CAP)
            grown = _TokenTable(*(np.zeros(a.shape[:-1] + (size,), a.dtype)
                                  for a in rows))
            if self.table is not None:
                for old, new in zip(self.table, grown):
                    new[..., :base] = old[..., :base]
            self.table = grown
        for dst, src in zip(self.table, rows):
            dst[..., base:end] = src


class FastTextModel:
    """A loaded fastText supervised model, ready for numpy prediction.

    Inference has one path, :meth:`log_probs`, which scores a whole batch;
    :meth:`predict` is a one-row call into it.  Each distinct token is
    featurized once per model instance and memoized (at most ``_MEMO_CAP``
    tokens, cleared whole when full).  The memo and the decoded output
    matrix are built lazily at the first prediction, so the input and
    output matrices are read-only from then on: train first, predict
    after."""

    def __init__(self, args: FastTextArgs,
                 words: List[Tuple[bytes, int, int]],
                 nwords: int, nlabels: int, ntokens: int,
                 input_matrix, output_matrix,
                 pruneidx: Optional[Dict[int, int]] = None,
                 pruneidx_size: int = -1):
        self.args = args
        self.words = words  # (word_bytes, count, type) in dict order
        self.nwords, self.nlabels, self.ntokens = nwords, nlabels, ntokens
        self.input, self.output = input_matrix, output_matrix
        self.pruneidx = pruneidx or {}
        self.pruneidx_size = pruneidx_size
        self.word2id: Dict[bytes, int] = {w: i for i, (w, _, _) in enumerate(words)}
        self.labels: List[str] = [
            w.decode("utf-8", "replace").replace("__label__", "")
            for w, _, _ in words[nwords:]
        ]
        keys = sorted(self.pruneidx)
        self._prune_keys = np.asarray(keys, dtype=np.int64)
        self._prune_vals = np.asarray([self.pruneidx[k] for k in keys],
                                      dtype=np.int64)
        self._hs = self._build_hs_paths() if args.loss == LOSS_HS else None
        self._memo: Optional[_TokenMemo] = None
        self._out_t: Optional[np.ndarray] = None

    # -- feature extraction -------------------------------------------------

    def _bucket_rows(self, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """fastText's pushHash: hash → bucket → (pruned) input row.
        Returns (rows, mask of the hashes that survive pruning)."""
        b = (h.astype(np.uint64) % np.uint64(self.args.bucket)).astype(np.int64)
        if self.pruneidx_size < 0:
            return b + self.nwords, np.ones(len(b), dtype=bool)
        keys = self._prune_keys
        if self.pruneidx_size == 0 or not len(keys):
            return b, np.zeros(len(b), dtype=bool)
        pos = np.minimum(np.searchsorted(keys, b), len(keys) - 1)
        return self._prune_vals[pos] + self.nwords, keys[pos] == b

    def _token_ids(self, tokens: Sequence[bytes]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Input rows of tokens, as supervised getLine emits them:
        an in-vocab word gives its word id then its (pruned, offset)
        subword ids, an out-of-vocabulary token its subword ids only, a
        label token nothing.  Returns (ids, per-token offsets into them,
        kept mask)."""
        n = len(tokens)
        wid = np.fromiter(map(self.word2id.get, tokens, repeat(-1)),
                          dtype=np.int64, count=n)
        kept = ~np.fromiter(
            (self.words[w][2] == 1 if w >= 0 else t.startswith(_LABEL_PREFIX)
             for w, t in zip(wid.tolist(), tokens)), dtype=bool, count=n)
        owner = [np.flatnonzero(kept & (wid >= 0))]
        ids = [wid[owner[0]]]
        if self.args.maxn > 0:
            sub = np.flatnonzero(kept & np.fromiter(
                (t != EOS for t in tokens), dtype=bool, count=n))
            h, word = _subword_hashes([BOW + tokens[i] + EOW for i in sub],
                                      self.args.minn, self.args.maxn)
            rows, ok = self._bucket_rows(h)
            owner.append(sub[word[ok]])
            ids.append(rows[ok])
        owner, ids = np.concatenate(owner), np.concatenate(ids)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=offsets[1:])
        return ids[np.argsort(owner, kind="stable")], offsets, kept

    def _ngram_rows(self, hashes: np.ndarray,
                    doc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Word n-gram input rows over the kept tokens of each document:
        ``hashes`` are their ft_hash values as sign-extended int64
        (fastText keeps int32 and widens to uint64), ``doc`` their sorted
        document index.  Returns (rows, document of each), in getLine
        order within a document."""
        h = hashes.view(np.uint64)
        t = len(h)
        acc = h.copy()
        grams, valid = [], []
        for s in range(1, self.args.word_ngrams):
            nxt = np.zeros(t, dtype=np.uint64)
            nxt[:t - s] = h[s:]
            acc = acc * _NGRAM_MUL + nxt
            ok = np.zeros(t, dtype=bool)
            ok[:t - s] = doc[s:] == doc[:t - s]
            grams.append(acc)
            valid.append(ok)
        valid = np.stack(valid, axis=1)
        rows, ok = self._bucket_rows(np.stack(grams, axis=1)[valid])
        return rows[ok], doc[np.nonzero(valid)[0]][ok]

    def _token_table(self, tokens: List[bytes]) -> _TokenTable:
        """Memo rows of distinct tokens (see :class:`_TokenTable`), built
        ``_FEATURIZE_CHUNK`` tokens at a time."""
        parts = [self._token_rows(tokens[i:i + _FEATURIZE_CHUNK])
                 for i in range(0, len(tokens), _FEATURIZE_CHUNK)]
        return _TokenTable(*(np.concatenate(a, axis=-1) for a in zip(*parts)))

    def _token_rows(self, tokens: List[bytes]) -> _TokenTable:
        ids, offsets, kept = self._token_ids(tokens)
        count = np.diff(offsets)
        rowsum = np.zeros((self.input.n, len(tokens)), dtype=np.float64)
        nz = np.flatnonzero(count)
        if len(nz):
            rows = np.ascontiguousarray(self.input.rows(ids).T, dtype=np.float64)
            rowsum[:, nz] = np.add.reduceat(rows, offsets[nz], axis=1)
        if self.args.word_ngrams > 1:
            hashes = _token_hashes(tokens).view(np.int32).astype(np.int64)
        else:
            hashes = np.zeros(len(tokens), dtype=np.int64)
        return _TokenTable(rowsum, count, hashes, kept)

    def input_ids(self, text: str) -> np.ndarray:
        """Input-matrix row ids of ``text``, exactly like supervised
        getLine: each token's ids (see ``_token_ids``) in token order,
        then the word n-gram ids."""
        toks = _tokens(text)
        ids, _, kept = self._token_ids(toks)
        if self.args.word_ngrams == 1:
            return ids
        words = [t for t, k in zip(toks, kept) if k]
        hashes = _token_hashes(words).view(np.int32).astype(np.int64)
        return np.concatenate([ids, self._ngram_rows(hashes, np.zeros(len(words), np.int64))[0]])

    # -- prediction --------------------------------------------------------

    def _build_hs_paths(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rebuild the Huffman tree from stored label counts (same
        construction as training) and pad each leaf's root path into
        (nlabels, depth) matrices: internal-node output row, whether the
        step takes the sigmoid (binary child) or its complement, and
        whether the step exists."""
        counts = [c for _, c, t in self.words[self.nwords:]]
        osz = self.nlabels
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
            steps = []
            n = lbl
            while parent[n] != -1:
                steps.append((parent[n] - osz, binary[n]))
                n = parent[n]
            paths.append(steps)
        depth = max((len(p) for p in paths), default=0)
        rows = np.zeros((osz, depth), dtype=np.int64)
        pos = np.zeros((osz, depth), dtype=bool)
        valid = np.zeros((osz, depth), dtype=bool)
        for lbl, steps in enumerate(paths):
            for k, (row, is_binary) in enumerate(steps):
                rows[lbl, k], pos[lbl, k], valid[lbl, k] = row, is_binary, True
        return rows, pos, valid

    def _scores(self, hidden: np.ndarray) -> np.ndarray:
        """Smoothed log-probabilities (n, nlabels) of hidden vectors
        (dim, n).  The dot products add one hidden dimension at a time (no
        BLAS GEMM, whose blocking depends on the row count), so a row's
        scores do not depend on the batch it came in."""
        f = hidden[0][:, None] * self._out_t[0]
        for d in range(1, len(self._out_t)):
            f += hidden[d][:, None] * self._out_t[d]
        loss = self.args.loss
        if loss == LOSS_HS:
            sig = 1.0 / (1.0 + np.exp(-f))
            lpos = np.log(sig + _LOG_EPS)
            lneg = np.log(1.0 - sig + _LOG_EPS)
            rows, pos, valid = self._hs
            out = np.zeros((len(f), self.nlabels))
            for k in range(rows.shape[1]):
                r = rows[:, k]
                out += np.where(valid[:, k],
                                np.where(pos[:, k], lpos[:, r], lneg[:, r]), 0.0)
            return out
        if loss == LOSS_SOFTMAX:
            f -= f.max(axis=1, keepdims=True)
            p = np.exp(f)
            p /= p.sum(axis=1, keepdims=True)
            return np.log(p + _LOG_EPS)
        if loss in (LOSS_OVA, LOSS_NS):
            # both inherit fastText's BinaryLogisticLoss::computeOutput:
            # independent per-label sigmoids, no normalization
            return np.log(1.0 / (1.0 + np.exp(-f)) + _LOG_EPS)
        raise ValueError(f"unsupported loss {loss}")

    def log_probs(self, texts: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """fastText's smoothed per-label log-probabilities of every text
        (softmax → log(p + 1e-5); hs → Σ log(σ(±f) + 1e-5); ova/ns →
        log(σ(f) + 1e-5)), float64 (n, nlabels), and a mask of the texts
        with any input row (the others have no prediction).

        Texts are split once; each token's input rows are summed once per
        model (see :class:`_TokenMemo`); a text's hidden vector is the sum
        of its tokens' row sums in token order, plus its word n-gram rows,
        over its id count."""
        n = len(texts)
        if self._memo is None:
            m = self.nlabels - 1 if self.args.loss == LOSS_HS else self.nlabels
            rows = self.output.rows(np.arange(m)).astype(np.float64)
            self._out_t = np.ascontiguousarray(rows.T)
            self._memo = _TokenMemo()
        if not n:
            return np.zeros((0, self.nlabels)), np.zeros(0, dtype=bool)
        toks = [_tokens(t) for t in texts]
        ntok = np.fromiter(map(len, toks), dtype=np.int64, count=n)
        table, at = self._memo.lookup(list(chain.from_iterable(toks)),
                                      self._token_table)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(ntok[:-1], out=starts[1:])
        # every text has at least EOS, so no segment is empty
        hidden = np.stack([np.add.reduceat(r[at], starts) for r in table.rowsum])
        count = np.add.reduceat(table.count[at], starts)
        if self.args.word_ngrams > 1:
            kept = table.kept[at]
            doc = np.repeat(np.arange(n), ntok)[kept]
            rows, ng_doc = self._ngram_rows(table.hash[at][kept], doc)
            np.add.at(hidden.T, ng_doc, self.input.rows(rows).astype(np.float64))
            count += np.bincount(ng_doc, minlength=n)
        hidden /= np.maximum(count, 1)
        return self._scores(hidden), count > 0

    def ranking(self, lp: np.ndarray, k: int = -1,
                threshold: float = 0.0) -> List[Tuple[str, float]]:
        """Top-``k`` (label, prob) of one row of :meth:`log_probs`, sorted
        descending (all labels when ``k < 0``)."""
        order = np.argsort(-lp, kind="stable")
        p = np.exp(lp)
        out = []
        for i in order[: (len(lp) if k < 0 else k)]:
            if p[i] < threshold:
                break
            out.append((self.labels[i], float(p[i])))
        return out

    def predict(self, text: str, k: int = 1,
                threshold: float = 0.0) -> List[Tuple[str, float]]:
        """Top-``k`` (label, prob) like fasttext's ``model.predict`` (sans
        the ``__label__`` prefix); empty list when no token maps to any
        input row (the wheel's behavior for unknown-charset text)."""
        lp, has = self.log_probs([text])
        return self.ranking(lp[0], k, threshold) if has[0] else []

    # -- serialization -----------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "FastTextModel":
        with open(path, "rb") as f:
            magic, version = struct.unpack("<2i", _read_exact(f, 8))
            if magic != MAGIC:
                raise ValueError(f"not a fastText model (magic {magic})")
            if version > VERSION:
                raise ValueError(f"unsupported fastText version {version}")
            ints = struct.unpack("<12i", _read_exact(f, 48))
            (t,) = struct.unpack("<d", _read_exact(f, 8))
            args = FastTextArgs(**dict(zip(_ARG_NAMES, ints)), t=t)
            if version == 11 and args.model == MODEL_SUP:
                args.maxn = 0  # fastText back-compat rule
            size, nwords, nlabels = struct.unpack("<3i", _read_exact(f, 12))
            ntokens, prune_size = struct.unpack("<2q", _read_exact(f, 16))
            words: List[Tuple[bytes, int, int]] = []
            buf = bytearray()
            for _ in range(size):
                buf.clear()
                while True:
                    c = _read_exact(f, 1)
                    if c == b"\x00":
                        break
                    buf += c
                (count,) = struct.unpack("<q", _read_exact(f, 8))
                (wtype,) = struct.unpack("<b", _read_exact(f, 1))
                words.append((bytes(buf), count, wtype))
            pruneidx: Dict[int, int] = {}
            for _ in range(max(prune_size, 0)):
                a, b = struct.unpack("<2i", _read_exact(f, 8))
                pruneidx[a] = b
            quant_input = _read_exact(f, 1)[0] != 0
            inp = _load_matrix(f, quant_input)
            qout = _read_exact(f, 1)[0] != 0
            args.qout = qout
            outp = _load_matrix(f, quant_input and qout)
        return cls(args, words, nwords, nlabels, ntokens, inp, outp,
                   pruneidx, prune_size)

    def save(self, path: str) -> None:
        """Write the dense (non-quantized) format; a real fastText binary
        loads the result.  Quantized models are load-only."""
        if not isinstance(self.input, _DenseMatrix) or not isinstance(
                self.output, _DenseMatrix):
            raise ValueError("only dense models can be saved")
        a = self.args
        with open(path, "wb") as f:
            f.write(struct.pack("<2i", MAGIC, VERSION))
            f.write(struct.pack(
                "<12i", a.dim, a.ws, a.epoch, a.min_count, a.neg,
                a.word_ngrams, a.loss, a.model, a.bucket, a.minn, a.maxn,
                a.lr_update_rate))
            f.write(struct.pack("<d", a.t))
            f.write(struct.pack("<3i", len(self.words), self.nwords,
                                self.nlabels))
            f.write(struct.pack("<2q", self.ntokens, self.pruneidx_size))
            for w, count, wtype in self.words:
                f.write(w + b"\x00")
                f.write(struct.pack("<q", count))
                f.write(struct.pack("<b", wtype))
            for kk in sorted(self.pruneidx):
                f.write(struct.pack("<2i", kk, self.pruneidx[kk]))
            f.write(b"\x00")  # quant_input = false
            f.write(struct.pack("<2q", self.input.m, self.input.n))
            f.write(np.ascontiguousarray(self.input.data, dtype="<f4").tobytes())
            f.write(b"\x00")  # qout = false
            f.write(struct.pack("<2q", self.output.m, self.output.n))
            f.write(np.ascontiguousarray(self.output.data, dtype="<f4").tobytes())


def new_dense_model(args: FastTextArgs,
                    vocab: Sequence[Tuple[bytes, int]],
                    labels: Sequence[Tuple[bytes, int]],
                    ntokens: int,
                    rng: np.random.Generator) -> FastTextModel:
    """Fresh trainable dense model: fastText's init (input uniform in
    ±1/dim, output zeros).  ``vocab``/``labels`` are (token, count),
    already sorted words-first / count-desc like Dictionary::threshold."""
    words = [(w, c, 0) for w, c in vocab] + [(l, c, 1) for l, c in labels]
    n_in = len(vocab) + args.bucket
    inp = _DenseMatrix(rng.uniform(-1.0 / args.dim, 1.0 / args.dim,
                                   size=(n_in, args.dim)).astype(np.float32))
    outp = _DenseMatrix(np.zeros((len(labels), args.dim), dtype=np.float32))
    return FastTextModel(args, words, len(vocab), len(labels), ntokens,
                         inp, outp)


def _train_pq(rows: np.ndarray, dsub: int, seed: int,
              iters: int = 12) -> Tuple[np.ndarray, int, int, int]:
    """Per-subspace 256-centroid k-means (the fastText product quantizer's
    layout): returns (flat centroids, nsubq, dsub, lastdsub) matching
    ProductQuantizer's on-disk shape.  Deterministic (seeded)."""
    m, dim = rows.shape
    nsubq = (dim + dsub - 1) // dsub
    lastdsub = dim - (nsubq - 1) * dsub or dsub
    rng = np.random.default_rng(seed)
    flat = np.zeros(dim * _KSUB, dtype=np.float32)
    for sq in range(nsubq):
        d = lastdsub if sq == nsubq - 1 else dsub
        lo = sq * dsub
        X = rows[:, lo:lo + d].astype(np.float32)
        if m >= _KSUB:
            C = X[rng.choice(m, _KSUB, replace=False)].copy()
        else:
            C = X[rng.integers(0, m, _KSUB)].copy()
        for _ in range(iters):
            a = np.argmin(
                ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
                if m * _KSUB * d <= 2_000_000
                else np.stack([((X - c) ** 2).sum(-1) for c in C], 1),
                axis=1,
            )
            for k in range(_KSUB):
                sel = a == k
                if sel.any():
                    C[k] = X[sel].mean(axis=0)
        off = sq * _KSUB * dsub
        flat[off:off + _KSUB * d] = C.reshape(-1)
    return flat, nsubq, dsub, lastdsub


def _pq_encode(rows: np.ndarray, flat: np.ndarray, nsubq: int, dsub: int,
               lastdsub: int) -> np.ndarray:
    codes = np.empty((len(rows), nsubq), dtype=np.uint8)
    for sq in range(nsubq):
        d = lastdsub if sq == nsubq - 1 else dsub
        off = sq * _KSUB * dsub
        C = flat[off:off + _KSUB * d].reshape(_KSUB, d)
        X = rows[:, sq * dsub:sq * dsub + d]
        c2 = (C ** 2).sum(1)[None, :]  # loop-invariant centroid norms
        # chunked nearest-centroid to bound the distance matrix
        for i in range(0, len(X), 65536):
            xb = X[i:i + 65536]
            d2 = (xb ** 2).sum(1)[:, None] - 2.0 * xb @ C.T + c2
            codes[i:i + 65536, sq] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def quantize_model(model: FastTextModel, dsub: int = 2, qnorm: bool = True,
                   seed: int = 7) -> FastTextModel:
    """Product-quantize a dense model's INPUT matrix (the fastText
    ``quantize`` recipe sans cutoff/retrain: optional per-row norm
    codebook + per-subspace 256-centroid codes over the normalized rows).
    The output matrix stays dense (``qout`` false, the usual setting).
    Returns a NEW model whose ``save`` emits a loadable ``.ftz``-style
    quantized file."""
    if not isinstance(model.input, _DenseMatrix):
        raise ValueError("model input is already quantized")
    rows = model.input.data.astype(np.float32)
    norms = None
    if qnorm:
        norms = np.linalg.norm(rows, axis=1).astype(np.float32)
        safe = np.where(norms == 0, 1.0, norms)
        rows = rows / safe[:, None]
    flat, nsubq, dsub_, lastdsub = _train_pq(rows, dsub, seed)
    codes = _pq_encode(rows, flat, nsubq, dsub_, lastdsub)
    nflat = ncodes1 = None
    if qnorm:
        nflat, _, _, _ = _train_pq(norms[:, None].astype(np.float32), 1, seed + 1)
        ncodes1 = _pq_encode(norms[:, None].astype(np.float32), nflat, 1, 1, 1)[:, 0]
    qm = _QuantMatrix(model.input.m, model.input.n, codes, flat, nsubq,
                      dsub_, lastdsub,
                      nflat[:_KSUB][ncodes1].astype(np.float32)
                      if qnorm else None,
                      nflat, ncodes1)
    return FastTextModel(model.args, model.words, model.nwords, model.nlabels,
                         model.ntokens, qm, model.output,
                         dict(model.pruneidx), model.pruneidx_size)


def _save_pq(f, flat: np.ndarray, nsubq: int, dsub: int, lastdsub: int,
             dim: int) -> None:
    f.write(struct.pack("<4i", dim, nsubq, dsub, lastdsub))
    f.write(np.ascontiguousarray(flat[:dim * _KSUB], dtype="<f4").tobytes())


def save_quantized(model: FastTextModel, path: str) -> None:
    """Write the quantized-input format (quant_input=true, dense output).
    Works for models produced by :func:`quantize_model` AND for loaded
    quantized files (the loader keeps the raw codebooks)."""
    qm = model.input
    if not isinstance(qm, _QuantMatrix):
        raise ValueError("quantize_model() first (input matrix is dense)")
    if not isinstance(model.output, _DenseMatrix):
        raise ValueError("qout (quantized output) models cannot be re-saved")
    qnorm = qm.norm_codes is not None
    codes, flat = qm.codes, qm.flat
    nsubq, dsub, lastdsub = qm.nsubq, qm.dsub, qm.lastdsub
    a = model.args
    with open(path, "wb") as f:
        f.write(struct.pack("<2i", MAGIC, VERSION))
        f.write(struct.pack(
            "<12i", a.dim, a.ws, a.epoch, a.min_count, a.neg,
            a.word_ngrams, a.loss, a.model, a.bucket, a.minn, a.maxn,
            a.lr_update_rate))
        f.write(struct.pack("<d", a.t))
        f.write(struct.pack("<3i", len(model.words), model.nwords,
                            model.nlabels))
        f.write(struct.pack("<2q", model.ntokens, model.pruneidx_size))
        for w, count, wtype in model.words:
            f.write(w + b"\x00")
            f.write(struct.pack("<q", count))
            f.write(struct.pack("<b", wtype))
        for kk in sorted(model.pruneidx):
            f.write(struct.pack("<2i", kk, model.pruneidx[kk]))
        f.write(b"\x01")  # quant_input = true
        f.write(b"\x01" if qnorm else b"\x00")
        f.write(struct.pack("<2q", qm.m, qm.n))
        f.write(struct.pack("<i", codes.size))
        f.write(np.ascontiguousarray(codes, dtype=np.uint8).tobytes())
        _save_pq(f, flat, nsubq, dsub, lastdsub, qm.n)
        if qnorm:
            f.write(np.ascontiguousarray(qm.norm_codes, dtype=np.uint8).tobytes())
            _save_pq(f, qm.norm_flat, 1, 1, 1, 1)
        f.write(b"\x00")  # qout = false
        f.write(struct.pack("<2q", model.output.m, model.output.n))
        f.write(np.ascontiguousarray(model.output.data, dtype="<f4").tobytes())
