"""Deduplication operators — the scale components a training-data pipeline
needs (task-brief extensions beyond the reference; the reference's only dedup
is word-set dedup + design notes, reference ``README.md:128-153``, SURVEY §2.7).

All hashing is md5/crc-derived — stable across processes and engines (never
Python's randomized ``hash()``), so every run and every oracle agrees.

Operators:
  * exact dedup           — pipelines/analysis.exact_dedup (hash → min doc_id)
  * jaccard_pairs         — word-set Jaccard ≥ t within a blocking key
  * minhash_lsh_pairs     — MinHash signatures → banded LSH buckets →
                            candidate pairs → exact-Jaccard verification
  * simhash_pairs         — 64-bit SimHash, banded buckets, Hamming ≤ k
  * embedding_dup_pairs   — cosine ≥ t within a blocking key (numpy matmul
                            per group)

Scale notes: every operator shuffles only *keys + small summaries*
(signatures, band hashes, bit-vectors), never full text; candidate
verification re-reads text for the (small) candidate set only.  Blocking
keys (lang / label) bound group sizes; salt them if a group outgrows a
worker.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

# ---------------------------------------------------------------------------
# shared helpers

_MERSENNE = (1 << 61) - 1


def stable_hash64(s: str) -> int:
    """First 8 bytes of md5 — deterministic across processes/engines."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


def word_shingles(text: str, k: int = 3) -> set:
    words = (text or "").lower().split()
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


# ---------------------------------------------------------------------------
# vectorized word/shingle hashing (the hot path at 10^12 docs)

# IMPORTANT perf note: on this class of hardware 64-bit integer/float
# MULTIPLY is emulated (~250x slower than 32-bit — measured: 4M u64 muls
# 1.7s vs u32 0.007s).  Adds, shifts, xors and compares are fine at 64-bit.
# All hot-path hashing below therefore runs in uint32 wraparound arithmetic
# (multiply-mix by odd constants = bijections on Z/2^32, xxhash-style), and
# 64-bit keys are assembled from two independent 32-bit mixes with shift|or.
_MIX32 = np.array([0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F], dtype=np.uint32)


def _hash_words32(flat_words: list) -> np.ndarray:
    """Deterministic uint32 hash of a flat word list, C-speed (pandas
    siphash with its fixed default key — stable across processes; folded
    64→32 with xor-shift, no multiplies)."""
    if not flat_words:
        return np.empty(0, dtype=np.uint32)
    h = pd.util.hash_array(np.asarray(flat_words, dtype=object))
    return (h ^ (h >> np.uint64(32))).astype(np.uint32)


def _doc_shingle_hashes(texts, k: int):
    """Per doc: uint32 hashes of word k-shingles (window-mixed word hashes;
    duplicates kept — min() is insensitive).  Returns (S, ptr) where
    ``S[ptr[d]:ptr[d+1]]`` are doc d's shingle hashes; docs with no words
    get zero shingles."""
    import itertools

    words_per_doc = [(t or "").lower().split() for t in texts]
    counts = np.fromiter((len(w) for w in words_per_doc), dtype=np.int64, count=len(texts))
    W = _hash_words32(list(itertools.chain.from_iterable(words_per_doc)))
    starts = np.concatenate([[0], np.cumsum(counts)])

    chunks, ptr = [], [0]
    total = 0
    for d in range(len(texts)):
        w = W[starts[d] : starts[d + 1]]
        nw = len(w)
        if nw == 0:
            ptr.append(total)
            continue
        if nw < k:
            h = np.uint32(0x811C9DC5)
            with np.errstate(over="ignore"):  # wraparound is the point
                for x in w:  # short doc: fold all words into one shingle
                    h = h * _MIX32[0] + x
            sh = np.array([h], dtype=np.uint32)
        else:
            sh = w[: nw - k + 1] * _MIX32[0]
            for j in range(1, k):
                sh = sh * _MIX32[1] + w[j : nw - k + 1 + j]
        chunks.append(sh)
        total += len(sh)
        ptr.append(total)
    S = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint32)
    return S, np.asarray(ptr, dtype=np.int64)


_SIG_SENTINEL = np.uint32(0xFFFFFFFF)


def _signatures(texts, a32: np.ndarray, b32: np.ndarray, k: int) -> np.ndarray:
    """uint32[n_docs, n_perm] MinHash signatures, one multiply-mix + one
    reduceat per batch.  Docs with no shingles get the all-0xFFFFFFFF
    sentinel signature (callers drop them)."""
    n_perm = len(a32)
    S, ptr = _doc_shingle_hashes(texts, k)
    n = len(texts)
    sig = np.full((n, n_perm), _SIG_SENTINEL, dtype=np.uint32)
    if not len(S):
        return sig
    # multiply-shift universal-ish hashing, uint32 wraparound (fast mul);
    # one permutation at a time into two reused 1-D buffers — the full
    # (n_shingles × n_perm) matrix pays ~0.2 s/MB first-touch faults on
    # this host for every fresh temporary (see _sig_from_hashes)
    lens = np.diff(ptr)
    nonempty = np.flatnonzero(lens > 0)
    starts = ptr[nonempty]
    v = np.empty(len(S), np.uint32)
    t = np.empty(len(S), np.uint32)
    for j in range(n_perm):
        np.multiply(S, a32[j], out=v)
        v += b32[j]
        np.right_shift(v, np.uint32(15), out=t)
        v ^= t
        sig[nonempty, j] = np.minimum.reduceat(v, starts)
    return sig


def _band_buckets(sig: np.ndarray, bands: int) -> np.ndarray:
    """uint64[n_docs, bands] bucket keys: two independent uint32 mixes of
    each band's values (band index folded in), assembled with shift|or —
    64-bit key space without 64-bit multiplies."""
    n, n_perm = sig.shape
    rpb = n_perm // bands
    bv = sig[:, : bands * rpb].reshape(n, bands, rpb)
    band_ids = np.arange(bands, dtype=np.uint32)[None, :]
    h1 = bv[:, :, 0] * _MIX32[0] + band_ids
    h2 = bv[:, :, 0] * _MIX32[2] + band_ids
    for j in range(1, rpb):
        h1 = h1 * _MIX32[1] + bv[:, :, j]
        h2 = h2 * _MIX32[3] + bv[:, :, j]
    h1 ^= h1 >> np.uint32(16)
    h2 ^= h2 >> np.uint32(16)
    return (h1.astype(np.uint64) << np.uint64(32)) | h2.astype(np.uint64)


def _runs(sorted_keys: np.ndarray):
    """(start, end) slices of equal-key runs with length >= 2."""
    if not len(sorted_keys):
        return
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    bounds = np.concatenate([[0], change, [len(sorted_keys)]])
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s >= 2:
            yield int(s), int(e)


@ray.remote(num_cpus=0)
class RunCounters:
    """Cluster-visible counter sink for ``_CapTally``: a zero-cpu actor
    whose ``add`` sums keyword counts and ``snapshot`` reads them back."""

    def __init__(self):
        self.c = Counter()

    def add(self, **kw) -> None:
        self.c.update(kw)

    def snapshot(self) -> dict:
        return dict(self.c)


class _CapTally:
    """Surfaces truncated verification buckets as DATA, not just worker
    stdout: with a ``RunCounters`` handle the caps land in cluster-visible
    counters (``<op>_capped_buckets`` / ``<op>_capped_rows`` — the dropped
    candidate ids), so recall loss is observable by the caller.

    Caps are accumulated locally and flushed as ONE synchronous actor
    round-trip per shard-group invocation (r2 ADVICE: a per-bucket
    ``ray.get`` serialized every shard task on the single counters actor
    exactly on flood-heavy corpora, where caps fire constantly).  The flush
    stays synchronous so the counts are complete by the time the caller
    reads them after consuming the dataset."""

    def __init__(self, counters, op: str, max_bucket: int):
        self._counters = counters
        self._op = op
        self._max_bucket = max_bucket
        self._buckets = 0
        self._rows = 0

    def hit(self, run_len: int) -> None:
        self._buckets += 1
        self._rows += run_len - self._max_bucket
        print(f"{self._op}: bucket of {run_len} capped at {self._max_bucket}")

    def flush(self) -> None:
        if self._buckets and self._counters is not None:
            ray.get(
                self._counters.add.remote(
                    **{
                        f"{self._op}_capped_buckets": self._buckets,
                        f"{self._op}_capped_rows": self._rows,
                    }
                )
            )
        self._buckets = 0
        self._rows = 0


def _validate_shard_params(
    n_shards: int, max_bucket: int, n_perm: int | None = None, bands: int | None = None
) -> None:
    """Fail loudly on parameter values the sharded-verify math silently
    mishandles: ``shard = bucket & (n_shards-1)`` needs a power of two (any
    other value collapses the shard count to 2^popcount(mask) groups), and
    the pair-index/pair-key arithmetic is int32 (chosen for this host's fast
    32-bit multiplies), which caps a verification bucket at 46340 rows."""
    if n_shards <= 0 or n_shards & (n_shards - 1):
        raise ValueError(
            f"n_shards must be a power of two (shard = bucket & (n_shards-1)); got {n_shards}"
        )
    if not 2 <= max_bucket <= 8192:
        # 8192 is a MEMORY bound, not the int32-overflow bound (46340): the
        # pair-lane verify allocates O(n^2) int32/byte buffers — at 8192 that
        # is ~33.5M pairs (~0.5 GB across pi/pj/ca/cb/eq per task), and at
        # the overflow bound it would be ~1.07e9 pairs (15+ GB, certain
        # worker OOM).  Larger buckets should be salted, not verified whole.
        raise ValueError(
            f"max_bucket must be in [2, 8192] (pair buffers grow as n^2: "
            f"8192 -> ~0.5 GB/task; the int32 pair-index math alone would "
            f"allow 46340 but that is a 15+ GB allocation); got {max_bucket}"
        )
    if bands is not None:
        if not 1 <= bands <= n_perm:
            raise ValueError(f"bands must be in [1, n_perm={n_perm}]; got {bands}")
        if n_perm % bands:
            raise ValueError(
                f"bands must divide n_perm={n_perm} or trailing permutations are"
                f" silently discarded and the (1-t^r)^b recall math is wrong; got {bands}"
            )


def _triu32(n: int):
    """All (i, j) with i < j as int32 arrays.  ``np.triu_indices`` builds
    int64 index arrays through a boolean-mask path that is pathologically
    slow on hosts where 64-bit vector ops are emulated; this repeat/cumsum
    construction stays int32 end to end (n ≤ max_bucket ≤ 4096 always)."""
    if n < 2:
        z = np.empty(0, np.int32)
        return z, z
    cnt = np.arange(n - 1, -1, -1, dtype=np.int32)
    pi = np.repeat(np.arange(n, dtype=np.int32), cnt)
    offs = np.zeros(n, np.int32)
    np.cumsum(cnt[:-1], out=offs[1:])
    pj = np.arange(len(pi), dtype=np.int32) - np.repeat(offs, cnt) + pi + 1
    return pi, pj


def _unowned_pairs(prior: "np.ndarray | None", m: int, b_run: int):
    """Pairs (i, j), i < j, of run rows NOT already bucketed together by an
    earlier band — i.e. the pairs THIS band owns under first-band ownership.

    Rows with identical earlier-band bucket vectors are interchangeable, so
    ownership is decided on equivalence CLASSES: unique prior rows (C of
    them) instead of the m run rows.  The class-pair check costs O(C²·b)
    instead of O(m²·b), and C ≪ m exactly in the expensive case — flood
    buckets are near-dup clusters whose members share all bucket vectors.
    Surviving class pairs expand to row pairs with vectorized int32
    arithmetic; same-class pairs never expand (full prior equality implies
    band-0 co-bucketing, hence earlier ownership).  Worst case C = m
    degrades to the plain pair check plus one unique(axis=0) sort.
    Measured on 4096-row runs, 16 earlier bands: flood (C=8) 66 s → 0.35 s,
    mid (C=256) 8.7 s → 0.4 s, all-distinct parity.

    uint64 bucket values are first dense-coded per column to int32 (equality
    is preserved); all comparisons and index math then avoid emulated 64-bit
    vector ops (same host constraint as ``_triu32``)."""
    if b_run == 0 or prior is None:
        return _triu32(m)
    codes = np.empty((m, b_run), np.int32)
    for k in range(b_run):
        _, inv = np.unique(prior[:, k], return_inverse=True)
        codes[:, k] = inv.astype(np.int32)
    uniq, class_of = np.unique(codes, axis=0, return_inverse=True)
    class_of = class_of.astype(np.int32)
    n_cls = len(uniq)
    if n_cls == 1:
        z = np.empty(0, np.int32)
        return z, z
    cu, cv = _triu32(n_cls)
    owned = np.zeros(len(cu), bool)
    for k in range(b_run):
        col = uniq[:, k]
        owned |= col[cu] == col[cv]
    keep = ~owned
    cu, cv = cu[keep], cv[keep]
    if not len(cu):
        z = np.empty(0, np.int32)
        return z, z
    cnt = np.bincount(class_of, minlength=n_cls).astype(np.int32)
    order = np.argsort(class_of, kind="stable").astype(np.int32)
    starts = np.zeros(n_cls + 1, np.int32)
    np.cumsum(cnt, out=starts[1:])
    nu, nv = cnt[cu], cnt[cv]
    tot = nu * nv  # ≤ max_bucket² < 2^24 per pair; int32 safe
    off = np.zeros(len(tot) + 1, np.int64)
    np.cumsum(tot, out=off[1:])
    psel = np.repeat(np.arange(len(cu), dtype=np.int32), tot)
    r = (np.arange(int(off[-1]), dtype=np.int64) - np.repeat(off[:-1], tot)).astype(np.int32)
    nvp = nv[psel]
    iu = r // nvp
    iv = r - iu * nvp
    pi = order[starts[cu[psel]] + iu]
    pj = order[starts[cv[psel]] + iv]
    # class membership does not follow row order — restore i < j (downstream
    # pair-key packing in _exact_inter_counts assumes it)
    return np.minimum(pi, pj), np.maximum(pi, pj)


# ---------------------------------------------------------------------------
# MinHash + LSH


class MinHasher:
    """n_perm universal-hash permutations over shingle base hashes.

    Signature computation is one vectorized (a*h + b) % p → min per column.
    Deterministic: a/b are seeded from a fixed RNG stream.
    """

    def __init__(self, n_perm: int = 64, seed: int = 0x5EED):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.uint64)
        # uint32 params for the vectorized batch path (see _signatures —
        # 64-bit multiplies are emulated/slow on the target hardware)
        self.a32 = (rng.integers(0, 1 << 31, size=n_perm, dtype=np.uint32) << np.uint32(1)) | np.uint32(1)
        self.b32 = rng.integers(0, 1 << 32, size=n_perm, dtype=np.uint32)
        self.n_perm = n_perm

    def signature(self, shingles: set) -> np.ndarray:
        if not shingles:
            return np.full(self.n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        base = np.fromiter((stable_hash64(s) for s in shingles), dtype=np.uint64, count=len(shingles))
        # (n_shingles, n_perm) in uint64 mod-Mersenne arithmetic
        prods = (base[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(_MERSENNE)
        return prods.min(axis=0)

    def est_jaccard(self, sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float(np.mean(sig_a == sig_b))


def minhash_lsh_pairs(
    ds: "rd.Dataset",
    id_column: str = "doc_id",
    text_column: str = "text",
    n_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    shingle_k: int = 3,
    n_shards: int = 256,
    max_bucket: int = 4096,
    counters=None,
) -> "rd.Dataset":
    """Near-duplicate pairs via MinHash-LSH with exact-Jaccard verification.

    Stages (shuffle moves keys + signatures, never text):
      1. map_batches: vectorized signatures (one hash pass + one reduceat per
         batch) → banded bucket keys → (shard, bucket, id, sig) rows; docs
         with no shingles are dropped here (an all-max sentinel signature
         would otherwise put every empty doc into one colossal bucket);
      2. groupby(shard): the group count is FIXED at ``n_shards`` (not one
         group per bucket — millions of tiny map_groups is per-group-overhead
         bound); each shard hash-buckets locally and emits verified pairs;
      3. groupby(id_a, id_b): dedup pairs that surfaced from several bands.
    Output: (id_a, id_b, est_jaccard ≥ threshold) with id_a < id_b.

    Scale: shard payload ≈ rows/n_shards × (8B key + sig) — raise
    ``n_shards`` with the corpus so a shard fits a worker; bucket
    verification is capped at ``max_bucket`` ids (larger buckets are
    near-identical boilerplate floods); pass a ``RunCounters`` handle as
    ``counters`` to surface every cap as data (see ``_CapTally``).
    """
    _validate_shard_params(n_shards, max_bucket, n_perm, bands)
    hasher = MinHasher(n_perm)

    def sigs(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        texts = batch[text_column].to_pylist()
        sig = _signatures(texts, hasher.a32, hasher.b32, shingle_k)
        # empty docs carry an ALL-sentinel row; check the whole row, not just
        # column 0 — a real doc whose perm-0 minhash happens to be the
        # sentinel value (p = 2^-32 per doc, certain at corpus scale) must
        # not be silently dropped from dedup
        nonempty = np.flatnonzero(~np.all(sig == _SIG_SENTINEL, axis=1))
        sig = sig[nonempty]
        ids = ids[nonempty]
        buckets = _band_buckets(sig, bands)  # (n, bands)
        n = len(ids)
        blobs = [s.tobytes() for s in sig]
        return pa.table(
            {
                "shard": pa.array(
                    (buckets & np.uint64(n_shards - 1)).astype(np.int32).ravel(), pa.int32()
                ),
                "bucket": pa.array(buckets.ravel(), pa.uint64()),
                "id": pa.array(np.repeat(ids, bands), pa.int64()),
                "sig": pa.array([blobs[i] for i in range(n) for _ in range(bands)], pa.binary()),
            }
        )

    def shard_pairs(group: pa.Table) -> pa.Table:
        buckets = group["bucket"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        blobs = group["sig"].to_pylist()
        order = np.lexsort((ids, buckets))
        out_a, out_b, est = [], [], []
        tally = _CapTally(counters, "minhash_lsh_pairs", max_bucket)
        for s, e in _runs(buckets[order]):
            run = order[s:e]
            if len(run) > max_bucket:
                tally.hit(len(run))
                run = run[:max_bucket]
            m = len(run)
            mat = np.frombuffer(b"".join(blobs[i] for i in run), dtype=np.uint32).reshape(m, -1)
            # per-pair equality accumulation over int32 pair indices: the
            # (m, m, n_perm) broadcast cube this replaces was 1.07 GB at the
            # bucket cap (minutes of first-touch faults on this host); these
            # P-sized lanes are n_perm× smaller and reuse their buffers
            pi, pj = _triu32(m)
            matT = np.ascontiguousarray(mat.T)
            acc = np.zeros(len(pi), np.uint16)
            ca = np.empty(len(pi), np.uint32)
            cb = np.empty(len(pi), np.uint32)
            eq = np.empty(len(pi), np.bool_)
            for j in range(matT.shape[0]):
                np.take(matT[j], pi, out=ca)
                np.take(matT[j], pj, out=cb)
                np.equal(ca, cb, out=eq)
                acc += eq
            sim = acc.astype(np.float64)
            sim /= matT.shape[0]
            keep = sim >= threshold
            ga, gb = ids[run[pi[keep]]], ids[run[pj[keep]]]
            distinct = ga != gb
            out_a.append(np.minimum(ga, gb)[distinct])
            out_b.append(np.maximum(ga, gb)[distinct])
            est.append(sim[keep][distinct])
        tally.flush()
        a = np.concatenate(out_a) if out_a else np.empty(0, dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, dtype=np.int64)
        e_ = np.concatenate(est) if est else np.empty(0, dtype=np.float64)
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "est_jaccard": pa.array(e_, pa.float64()),
            }
        )

    # batch_size bounds the (shingles × n_perm) product matrix: 512 docs ×
    # ~100 shingles × 64 perms × 8 B ≈ 26 MiB peak per task
    pairs = (
        ds.map_batches(sigs, batch_format="pyarrow", batch_size=512)
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pyarrow")
    )
    # a pair can surface from several bands — dedup on (id_a, id_b)
    from ray.data.aggregate import Max

    return pairs.groupby(["id_a", "id_b"]).aggregate(Max("est_jaccard", alias_name="est_jaccard"))


# ---------------------------------------------------------------------------
# SimHash


class SimHasher:
    """64-bit SimHash over word-unigram hashes (Charikar 2002)."""

    def simhash(self, text: str) -> int:
        words = (text or "").lower().split()
        if not words:
            return 0
        hashes = np.fromiter((stable_hash64(w) for w in words), dtype=np.uint64, count=len(words))
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
            np.int64
        )
        v = (2 * bits - 1).sum(axis=0)
        return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# 16-bit popcount lookup (64 KiB, built once): four uint16 gathers beat the
# SWAR bit-twiddle 18x on this host — the SWAR finale multiplies by a 64-bit
# constant, and 64-bit multiplies are emulated ~250x slower here
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (uint16-LUT gather; numpy>=2 would have
    bitwise_count, absent in this environment's 1.26)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    x = np.ascontiguousarray(x, dtype=np.uint64)
    v = x.view(np.uint16).reshape(-1, 4)
    return _POP16[v].sum(axis=1, dtype=np.int64).reshape(x.shape)


def _batch_simhash(texts) -> "tuple[np.ndarray, np.ndarray]":
    """(uint64[n] SimHash, bool[n] has-tokens) per text, one hash pass + one
    reduceat per batch (same scheme as :class:`SimHasher` but with the
    vectorized word hash).  The mask lets callers drop token-less docs —
    they all hash to 0 and would otherwise flood one bucket per chunk."""
    import itertools

    words_per_doc = [(t or "").lower().split() for t in texts]
    counts = np.fromiter((len(w) for w in words_per_doc), dtype=np.int64, count=len(texts))
    W32 = _hash_words32(list(itertools.chain.from_iterable(words_per_doc)))
    out = np.zeros(len(texts), dtype=np.uint64)
    if not len(W32):
        return out, counts > 0
    # widen to 64 bits via two independent uint32 mixes (no 64-bit muls)
    g1 = W32 * _MIX32[0]
    g1 ^= g1 >> np.uint32(16)
    g2 = W32 * _MIX32[2]
    g2 ^= g2 >> np.uint32(16)
    W = (g1.astype(np.uint64) << np.uint64(32)) | g2.astype(np.uint64)
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    nonempty = np.flatnonzero(counts > 0)
    # one bit lane at a time through two reused 1-D buffers — the
    # (n_words × 64) bit/sign matrices were fresh multi-MB temporaries per
    # batch, and this host charges ~0.2 s/MB first-touch faults on fresh
    # allocations (see _sig_from_hashes).  reduceat with only nonempty
    # docs' starts cannot see duplicate offsets (counts > 0 there).
    b = np.empty(len(W), np.int32)
    t = np.empty(len(W), np.uint64)
    acc = np.zeros(len(nonempty), dtype=np.uint64)
    for j in range(64):
        np.right_shift(W, np.uint64(j), out=t)
        np.bitwise_and(t, np.uint64(1), out=t)
        np.copyto(b, t, casting="unsafe")
        b *= 2
        b -= 1
        vj = np.add.reduceat(b, starts[nonempty])
        acc |= (vj > 0).astype(np.uint64) << np.uint64(j)
    out[nonempty] = acc
    return out, counts > 0


def simhash_pairs(
    ds: "rd.Dataset",
    id_column: str = "doc_id",
    text_column: str = "text",
    max_hamming: int = 3,
    n_shards: int = 256,
    max_bucket: int = 4096,
    counters=None,
) -> "rd.Dataset":
    """Near-dup pairs with Hamming(simhash) ≤ k.

    Pigeonhole banding: split 64 bits into 4 16-bit chunks; any pair within
    Hamming ≤ 3 collides on ≥1 chunk.  Bucket key = (chunk_id, chunk_value)
    mixed into one uint64; groups are ``n_shards`` fixed shards (same
    rationale as ``minhash_lsh_pairs``) with local bucketing + vectorized
    popcount verification.  Shuffle payload is 24 B per (doc, chunk);
    capped buckets are surfaced via ``counters`` (see ``_CapTally``)."""
    _validate_shard_params(n_shards, max_bucket)

    def sigs(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        texts = batch[text_column].to_pylist()
        sims, has_tokens = _batch_simhash(texts)
        # token-less docs all hash to 0: without this drop they flood one
        # bucket per chunk with spurious hamming-0 pairs and fire the cap
        # counters with pure noise (same hazard minhash_lsh_pairs guards)
        keep_docs = np.flatnonzero(has_tokens)
        sims = sims[keep_docs]
        ids = ids[keep_docs]
        chunk_ids = np.arange(4, dtype=np.uint64)
        vals = (sims[:, None] >> (chunk_ids * np.uint64(16))[None, :]) & np.uint64(0xFFFF)
        # (chunk_id, chunk_val) is already a unique 18-bit key — no hashing
        bucket = (chunk_ids[None, :] << np.uint64(16)) | vals
        return pa.table(
            {
                "shard": pa.array(
                    (bucket & np.uint64(n_shards - 1)).astype(np.int32).ravel(), pa.int32()
                ),
                "bucket": pa.array(bucket.ravel(), pa.uint64()),
                "id": pa.array(np.repeat(ids, 4), pa.int64()),
                "simhash": pa.array(np.repeat(sims, 4), pa.uint64()),
            }
        )

    def shard_pairs(group: pa.Table) -> pa.Table:
        buckets = group["bucket"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        sims = group["simhash"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, buckets))
        out_a, out_b, ham = [], [], []
        tally = _CapTally(counters, "simhash_pairs", max_bucket)
        for s, e in _runs(buckets[order]):
            run = order[s:e]
            if len(run) > max_bucket:
                tally.hit(len(run))
                run = run[:max_bucket]
            h = np.ascontiguousarray(sims[run])
            # pairwise hamming over int32 pair indices, one uint16 lane at a
            # time through the _POP16 LUT — replaces an (m, m) uint64 xor
            # matrix (~400 MB of fresh temporaries at the bucket cap)
            pi, pj = _triu32(len(run))
            lanes = h.view(np.uint16).reshape(len(run), 4)
            d = np.zeros(len(pi), np.int64)
            xa = np.empty(len(pi), np.uint16)
            xb = np.empty(len(pi), np.uint16)
            for lane in range(4):
                np.take(lanes[:, lane], pi, out=xa)
                np.take(lanes[:, lane], pj, out=xb)
                np.bitwise_xor(xa, xb, out=xa)
                d += _POP16[xa]
            keep = d <= max_hamming
            ga, gb = ids[run[pi[keep]]], ids[run[pj[keep]]]
            distinct = ga != gb
            out_a.append(np.minimum(ga, gb)[distinct])
            out_b.append(np.maximum(ga, gb)[distinct])
            ham.append(d[keep][distinct])
        tally.flush()
        a = np.concatenate(out_a) if out_a else np.empty(0, dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, dtype=np.int64)
        h_ = np.concatenate(ham) if ham else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "hamming": pa.array(h_.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Min

    return (
        ds.map_batches(sigs, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pyarrow")
        .groupby(["id_a", "id_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )


# ---------------------------------------------------------------------------
# exact word-set Jaccard via LSH prefilter (oracle-checkable)


def _word_set_hashes(texts) -> tuple:
    """uint64 hash per element of each text's exact word SET, split on a
    single space with no lowering — the SQL oracle's
    ``list_distinct(string_split(text, ' '))`` semantics.  Returns (H, ptr)
    with H sorted within each doc slice ``H[ptr[d]:ptr[d+1]]``.  64-bit
    hashes keep set-collision odds negligible (vocab² / 2^65), so Jaccard
    over hash sets equals Jaccard over word sets."""
    import itertools

    sets_per_doc = [set((t or "").split(" ")) for t in texts]
    counts = np.fromiter((len(s) for s in sets_per_doc), dtype=np.int64, count=len(texts))
    flat = list(itertools.chain.from_iterable(sets_per_doc))
    H = pd.util.hash_array(np.asarray(flat, dtype=object)) if flat else np.empty(0, np.uint64)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    order = np.lexsort((H, doc_of))
    return H[order], ptr


def _char_shingle_hashes(texts, k: int = 3) -> tuple:
    """uint64 hash per element of each text's distinct char ``k``-gram set —
    the SQL oracle's ``list_distinct([substr(text, i, k) for i in
    1..max(len-k+1, 1)])`` semantics (a doc of ≤ k chars contributes its
    whole text as the single shingle; empty docs contribute nothing, so
    their pairs can never reach a positive threshold).  Same (H, ptr)
    contract as :func:`_word_set_hashes`."""
    import itertools

    sets_per_doc = []
    for t in texts:
        t = t or ""
        if len(t) <= k:
            sets_per_doc.append({t} if t else set())
        else:
            sets_per_doc.append({t[i : i + k] for i in range(len(t) - k + 1)})
    counts = np.fromiter((len(s) for s in sets_per_doc), dtype=np.int64, count=len(texts))
    flat = list(itertools.chain.from_iterable(sets_per_doc))
    H = pd.util.hash_array(np.asarray(flat, dtype=object)) if flat else np.empty(0, np.uint64)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    order = np.lexsort((H, doc_of))
    return H[order], ptr


def _sig_from_hashes(H: np.ndarray, ptr: np.ndarray, a32: np.ndarray, b32: np.ndarray) -> np.ndarray:
    """MinHash signatures (uint32[n_docs, n_perm]) from per-doc uint64 hash
    slices — same uint32 multiply-mix + reduceat math as ``_signatures``,
    but computed one permutation at a time into TWO reused 1-D buffers.

    The obvious (n_shingles × n_perm) product matrix allocates ~3 fresh
    arrays of n×n_perm×4 B per batch; this host charges ~0.2 s/MB of
    first-touch page faults on fresh allocations, which made char-8-gram
    prep 213 s of CPU at sf0.1 (240 MB of temporaries per task).  The
    per-perm loop touches the same two n×4 B buffers 60 times: identical
    signatures, allocation cost paid once."""
    n = len(ptr) - 1
    sig = np.full((n, len(a32)), _SIG_SENTINEL, dtype=np.uint32)
    if not len(H):
        return sig
    h32 = (H ^ (H >> np.uint64(32))).astype(np.uint32)
    lens = np.diff(ptr)
    nonempty = np.flatnonzero(lens > 0)
    starts = ptr[:-1][nonempty]
    v = np.empty(len(h32), np.uint32)
    t = np.empty(len(h32), np.uint32)
    for j in range(len(a32)):
        np.multiply(h32, a32[j], out=v)
        v += b32[j]
        np.right_shift(v, np.uint32(15), out=t)
        v ^= t
        sig[nonempty, j] = np.minimum.reduceat(v, starts)
    return sig


_MAX_HOT_WORDS = 64  # one uint64 bitmask lane per row


def _exact_inter_counts(
    inv: np.ndarray,
    rows: np.ndarray,
    nsub: int,
    qi: np.ndarray,
    qj: np.ndarray,
) -> np.ndarray:
    """Exact |A∩B| for the requested row pairs (qi < qj, sub-local ids) from
    word postings — cost scales with Σ c_w² over words, NOT with rows×vocab
    (the dense incidence matmul paid rows²×vocab: measured 106 s on one
    sf0.1 shard where sets average 23 words but run vocab is ~15k).

    Two exact paths per word, split inside the run:
      * hot (the ≤64 highest-count words with count ≥ 2): one uint64
        bitmask lane per row, pair intersection via vectorized popcount of
        ``bits[qi] & bits[qj]`` — O(pairs) total regardless of lane count,
        immune to the c_w² blowup a corpus-wide stopword would cause.
      * rare (everything past the 64 lanes): segmented pair generation —
        every co-occurrence of a word in two rows emits one (row_a, row_b)
        increment; counts come from one sort + unique, cost Σ c_w² over the
        leftover (by construction the smallest) counts.
    Lanes are filled greedily by count because a lane costs one scatter
    while the rare path pays c_w²/2 pairs: on a low-vocabulary run every
    word gets a lane and the rare path vanishes entirely."""
    order = np.lexsort((rows, inv))
    w_sorted = inv[order].astype(np.int64)
    r_sorted = rows[order].astype(np.int32)
    # recode shard-global word codes to run-local dense ranks (input is
    # sorted, so one neighbor-compare cumsum — no extra sort): bincount and
    # hot_mask below are then sized by the RUN's vocab, not the shard-wide
    # code range, which at production scale is ~10^7 codes × ~80 MB of
    # first-touch-faulted zeros per verified run
    if len(w_sorted):
        newseg = np.empty(len(w_sorted), np.bool_)
        newseg[0] = True
        np.not_equal(w_sorted[1:], w_sorted[:-1], out=newseg[1:])
        w_sorted = np.cumsum(newseg) - 1
    counts = np.bincount(w_sorted)
    # fill ALL 64 lanes greedily with the highest-count words (count ≥ 2 —
    # single-posting words intersect nothing): a lane costs one scatter plus
    # a share of ONE popcount over the pairs, while the rare path pays
    # c_w²/2 generated pairs + their sort — so the biggest words always
    # belong in lanes, not just those above a fixed threshold.  On a
    # low-vocabulary run every word gets a lane and the rare path vanishes
    # (measured: verify 13.7 s → ~0 rare-path seconds on the sf0.1 bench).
    hot_ids = np.flatnonzero(counts >= 2)
    if len(hot_ids) > _MAX_HOT_WORDS:
        hot_ids = hot_ids[np.argsort(-counts[hot_ids], kind="stable")[:_MAX_HOT_WORDS]]
    inter = np.zeros(len(qi), dtype=np.int64)

    # hot path: one bit lane per hot word
    if len(hot_ids):
        starts = np.concatenate([[0], np.cumsum(counts)])
        bits = np.zeros(nsub, dtype=np.uint64)
        for lane, w in enumerate(hot_ids):
            bits[r_sorted[starts[w] : starts[w + 1]]] |= np.uint64(1 << int(lane))
        inter += _popcount64(bits[qi] & bits[qj])

    # rare path: segmented (i<j) pair generation within each word's postings
    hot_mask = np.zeros(len(counts), dtype=bool)
    hot_mask[hot_ids] = True
    keep = ~hot_mask[w_sorted] & (counts[w_sorted] >= 2)
    rw, rr = w_sorted[keep], r_sorted[keep]
    if len(rw):
        # per posting: how many later postings of the same word pair with it
        seg_change = np.concatenate([[True], rw[1:] != rw[:-1]])
        seg_id = np.cumsum(seg_change) - 1
        seg_sizes = np.bincount(seg_id)
        pos_in_seg = np.arange(len(rw)) - np.repeat(
            np.concatenate([[0], np.cumsum(seg_sizes)])[:-1], seg_sizes
        )
        block = (seg_sizes[seg_id] - 1 - pos_in_seg).astype(np.int64)
        total = int(block.sum())
        if total:
            a = np.repeat(np.arange(len(rw)), block)
            start = np.cumsum(block) - block
            local = np.arange(total) - np.repeat(start, block)
            b = a + 1 + local
            # postings are row-sorted within a word segment → r[a] < r[b].
            # Pair keys pack as row_a*nsub+row_b: int32 (fast multiplies on
            # this host) while it can't wrap, int64 once nsub²≥2³¹ — a
            # raised max_bucket must not silently alias distinct pairs.
            kdt = np.int32 if nsub < 46341 else np.int64
            keys = rr[a].astype(kdt) * kdt(nsub) + rr[b].astype(kdt)
            uk, uc = np.unique(keys, return_counts=True)
            qkeys = qi.astype(kdt) * kdt(nsub) + qj.astype(kdt)
            pos = np.searchsorted(uk, qkeys)
            pos_c = np.clip(pos, 0, len(uk) - 1)
            hit = uk[pos_c] == qkeys
            inter += np.where(hit, uc[pos_c], 0)
    return inter


def lsh_exact_jaccard_pairs(
    ds: "rd.Dataset",
    id_column: str = "doc_id",
    text_column: str = "text",
    block_column: Optional[str] = None,
    threshold: float = 0.9,
    n_perm: int = 64,
    bands: int = 32,
    n_shards: int = 256,
    max_bucket: int = 4096,
    counters=None,
    shingles: str = "word",
) -> "rd.Dataset":
    """Exact set-Jaccard ≥ t pairs, with MinHash-LSH candidate generation
    instead of an all-pairs scan.  ``shingles`` picks the set definition:
    ``"word"`` (exact word sets, the default) or ``"char8"``/``"char3"``
    (distinct char k-grams — the n-gram Jaccard flavor; identical
    bucketing/verify path, only the set hasher differs).  Prefer ``char8``
    for near-dup work: 3-grams are so common that same-language documents
    sit at Jaccard ~0.5 background similarity, which floods LSH buckets
    with candidates (measured: the sf0.1 run went quadratic); 8-gram
    background similarity is ≤ ~0.15, so only true near-dups collide.

    Output: (doc_a, doc_b, jac) with doc_a < doc_b and jac the EXACT
    |A∩B|/|A∪B| over word sets — the same value the SQL oracle computes.
    With ``block_column`` set, only same-block pairs are emitted (the
    blocked-dedup shape; the block check happens at verify time so the
    bucket layout stays uniform).

    Recall: a qualifying pair is missed only if it collides in NO band;
    with rows-per-band r = n_perm/bands the miss probability is
    (1 - t^r)^bands — 2e-12 for (t=0.95, r=4, b=16), 6e-24 for
    (t=0.9, r=2, b=32).  Defaults favor exactness at moderate thresholds;
    production near-dup at 10^12 docs uses higher r (fewer, tighter
    candidates) and the estimate-only ``minhash_lsh_pairs``.

    Scale shape: the shuffle carries per-(doc, band) rows of (8 B bucket
    key + the doc's uint64 word-hash set) — hashes, never text; reducer
    groups are ``n_shards`` fixed shards; within a bucket run the exact
    intersection counts come from posting-list pair generation + bitmask
    popcount (see ``_exact_inter_counts``), not a per-pair Python loop.

    Deliberate tradeoff: each doc's hash set ships once PER BAND (``bands``×
    amplification of the set payload through the shuffle).  The alternative
    — emit candidate id-pairs first, then re-fetch sets with a join keyed on
    the pair — ships each set once per CANDIDATE PARTNER instead, and on
    near-dup flood clusters (the case dedup exists for) pair degree ≈
    cluster size ≫ bands, so the one-pass layout is the cheaper one exactly
    when it matters.  Tune ``bands`` down (higher r) to shrink the factor
    when the threshold allows."""
    hasher = MinHasher(n_perm)
    rpb = n_perm // bands
    set_hashes = {
        "word": _word_set_hashes,
        "char3": lambda texts: _char_shingle_hashes(texts, 3),
        "char8": lambda texts: _char_shingle_hashes(texts, 8),
    }[shingles]

    def prep(batch: pa.Table) -> pa.Table:
        # NULL blocking keys never pair: the SQL oracle joins ON
        # a.<block> = b.<block>, and NULL = NULL is not true
        if block_column is not None and batch[block_column].null_count:
            import pyarrow.compute as _pc

            batch = batch.filter(_pc.is_valid(batch[block_column]))
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        texts = batch[text_column].to_pylist()
        H, ptr = set_hashes(texts)
        # drop no-shingle docs (empty/too-short text): they can't reach any
        # positive Jaccard threshold, and their identical all-sentinel
        # signatures would otherwise pile into one flood bucket per band,
        # firing the cap counters with pure noise (same hazard the sentinel
        # filter in minhash_lsh_pairs guards against)
        lens0 = np.diff(ptr)
        if (lens0 == 0).any():
            keep_docs = lens0 > 0
            ids = ids[keep_docs]
            ptr = np.concatenate([[0], np.cumsum(lens0[keep_docs])]).astype(ptr.dtype)
            keep_idx = np.flatnonzero(keep_docs)
            batch = batch.take(pa.array(keep_idx))
        sig = _sig_from_hashes(H, ptr, hasher.a32, hasher.b32)
        buckets = _band_buckets(sig, bands)  # (n, bands)
        n = len(ids)
        wh = pa.ListArray.from_arrays(pa.array(ptr, pa.int32()), pa.array(H, pa.uint64()))
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        # every row also carries the doc's FULL bucket vector so a later
        # band can tell a pair is already owned by an earlier band
        blobs = pa.array([buckets[i].tobytes() for i in range(n)], pa.binary())
        cols = {
            "shard": pa.array((buckets & np.uint64(n_shards - 1)).astype(np.int32).ravel(), pa.int32()),
            "bucket": pa.array(buckets.ravel(), pa.uint64()),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()),
            "id": pa.array(np.repeat(ids, bands), pa.int64()),
            "allb": blobs.take(idx),
            "wh": wh.take(idx),
        }
        if block_column is not None:
            cols["block"] = batch[block_column].take(idx).cast(pa.string())
        return pa.table(cols)

    def shard_pairs(group: pa.Table) -> pa.Table:
        buckets = group["bucket"].to_numpy(zero_copy_only=False)
        band_of = group["band"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        allb = np.frombuffer(
            b"".join(group["allb"].to_pylist()), dtype=np.uint64
        ).reshape(len(ids), bands)
        wh = group["wh"].combine_chunks()
        # pair .values with .offsets (offsets index the raw child array;
        # flatten() would re-base values and misalign on sliced arrays)
        flat = wh.values.to_numpy(zero_copy_only=False)
        offs = wh.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # dense-code word hashes ONCE per shard group — re-uniquing inside
        # every verified run re-sorts the same postings ~bands times
        # (measured: ~1.5k per-run sorts at sf0.1, seconds of pure resort)
        _, flat_codes = np.unique(flat, return_inverse=True)
        flat_codes = flat_codes.astype(np.int64)
        blocks = (
            np.asarray(group["block"].to_pylist(), dtype=object)
            if block_column is not None
            else None
        )
        order = np.lexsort((ids, buckets))
        out_a, out_b, out_j = [], [], []
        tally = _CapTally(counters, "lsh_exact_jaccard_pairs", max_bucket)
        for s, e in _runs(buckets[order]):
            run = order[s:e]
            if len(run) > max_bucket:
                tally.hit(len(run))
                run = run[:max_bucket]
            m = len(run)
            # FIRST-BAND OWNERSHIP: this run's band verifies a pair only if
            # no earlier band already bucketed it together — otherwise a
            # near-dup cluster of size c would be re-verified in every one
            # of its ~`bands` colliding buckets (measured 6-30x waste on
            # flood-heavy corpora).  Earlier-band collision is an exact
            # bucket-vector comparison, far cheaper than the set matmul.
            b_run = int(band_of[run[0]])
            prior = allb[run, :b_run] if b_run > 0 else None
            # flood fast path: if EVERY row shares one earlier-band bucket,
            # every pair is owned earlier — O(m·b), skips even the class
            # decomposition for fully-owned runs
            if prior is not None and (prior == prior[0]).all(axis=0).any():
                continue
            # class-collapsed ownership: O(C²) on unique prior vectors
            # instead of O(m²) on rows (see _unowned_pairs)
            pi, pj = _unowned_pairs(prior, m, b_run)
            if blocks is not None and len(pi):
                rb = blocks[run]
                same = rb[pi] == rb[pj]
                pi, pj = pi[same], pj[same]
            if not len(pi):
                continue
            # exact verification restricted to rows that still have pairs
            sub = np.unique(np.concatenate([pi, pj]))
            remap = np.empty(m, dtype=np.int64)
            remap[sub] = np.arange(len(sub))
            rsub = run[sub]
            lens = (offs[rsub + 1] - offs[rsub]).astype(np.int64)
            # gather all postings in one fancy index (a per-row Python slice
            # loop here cost seconds across the 1.5k verified runs at sf0.1)
            base = np.repeat(offs[rsub], lens)
            first = np.repeat(np.cumsum(lens) - lens, lens)
            inv = flat_codes[base + np.arange(int(lens.sum()), dtype=np.int64) - first]
            rows = np.repeat(np.arange(len(sub), dtype=np.int32), lens)
            qi, qj = remap[pi], remap[pj]
            inter = _exact_inter_counts(inv, rows, len(sub), qi, qj)
            union = lens[qi] + lens[qj] - inter
            vals = inter.astype(np.float64) / np.maximum(union, 1).astype(np.float64)
            keep = vals >= threshold
            ga, gb = ids[run[pi[keep]]], ids[run[pj[keep]]]
            distinct = ga != gb
            out_a.append(np.minimum(ga, gb)[distinct])
            out_b.append(np.maximum(ga, gb)[distinct])
            out_j.append(vals[keep][distinct])
        tally.flush()
        a = np.concatenate(out_a) if out_a else np.empty(0, dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, dtype=np.int64)
        j = np.concatenate(out_j) if out_j else np.empty(0, dtype=np.float64)
        return pa.table(
            {
                "doc_a": pa.array(a, pa.int64()),
                "doc_b": pa.array(b, pa.int64()),
                "jac": pa.array(j, pa.float64()),
            }
        )

    # No pair-dedup pass needed: first-band ownership emits every pair in
    # AT MOST one run — a later band always skips a pair whose rows share an
    # earlier band bucket, whether or not that earlier run was cap-truncated
    # (truncation loses pairs, it never duplicates them; losses are counted
    # via ``counters``).  Dropping the two-key groupby here removed a 190 s
    # aggregate on the sf0.1 bench (965k pairs).
    #
    # The banded table goes STRAIGHT into the shard groupby — no repartition
    # in between.  History: an early verify kernel cost 56 s of CPU at
    # sf0.1, so a post-prep repartition to 2×CPUs blocks was added to spread
    # the ~10 map_groups tasks the sort otherwise inherited (33 s → 14-18 s
    # then).  After the LUT-popcount/dense-code verify rewrites cut the
    # verify to < 1 s of CPU, the repartition became pure overhead — a
    # second all-to-all materialization of the banded table that re-measured
    # strictly WORSE in round 3: fresh-session cold 8.6 s → 4.7 s (char-8
    # ngram) and 6.9 s → 4.3 s (minhash), warm 3.2 s → 2.6 s and
    # 2.9 s → 1.9 s, and under accumulated-session object-store pressure
    # (the full-sweep regime, where the extra exchange spilled) 7.1 s →
    # 3.9 s.  Also measured and REJECTED: repartitioning the raw docs
    # BEFORE prep (batch_size=None, one block per task) — 64 tiny prep
    # tasks pay per-task cold-buffer faults that cost MORE (minhash warm
    # 17 s → 23 s); and prep batch_size 128 in place of 512 — within noise
    # of 512 with no repartition (3.9 s vs 3.9 s pressured).
    return (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=512)
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pyarrow")
    )


def jaccard_pairs(
    ds: "rd.Dataset",
    id_column: str = "doc_id",
    text_column: str = "text",
    block_column: str = "lang",
    threshold: float = 0.95,
) -> "rd.Dataset":
    """Word-set Jaccard ≥ t pairs inside each blocking group — LSH-prefiltered
    exact verification (see :func:`lsh_exact_jaccard_pairs`), NOT an all-pairs
    scan: at web scale 'en' is one block ≈ 60% of the corpus, so per-block
    O(n²) would put ~10^11 docs on one reducer.  (r=4, bands=16) misses a
    j ≥ 0.95 pair with probability (1 - 0.95⁴)^16 ≈ 2e-12."""
    return lsh_exact_jaccard_pairs(
        ds,
        id_column=id_column,
        text_column=text_column,
        block_column=block_column,
        threshold=threshold,
        n_perm=64,
        bands=16,
    )


# ---------------------------------------------------------------------------
# embedding cosine near-dup within a blocking key (oracle-checkable)


def _ivf_cell_expand(
    ds: "rd.Dataset",
    id_column: str,
    vec_column: str,
    block_column: Optional[str],
    threshold: float,
    n_cells: int,
    probes: "Optional[int]",
    centroids: "Optional[np.ndarray]",
) -> "rd.Dataset":
    """SemDeDup-style cluster-first blocking: assign every vector to one or
    more k-means/IVF cells in COSINE space and emit one replica per probed
    cell, so the downstream all-pairs kernel runs within a cell instead of
    within an unbounded label block (VERDICT r3 finding #2 — the scale fix
    for ``embedding_dup_pairs``).

    Centroids: ``centroids`` if given (the production path — train with
    Lloyd on a bounded sample, ship via closure/``ray.put``), else the
    vectors of the ``n_cells`` SMALLEST ids — deterministic and
    oracle-reproducible (the ``kmeans_assign`` convention), gathered with a
    per-batch partial top-k then one bounded driver-side merge, never a
    full sort.  Cosine is scale-invariant, so the engine's normalized dot
    against normalized centroids equals the oracle's
    ``list_cosine_similarity`` against the raw centroid rows.

    Probing:
      * ``probes=p`` — each vector joins its p best-cosine cells (ties to
        the smaller cell id, the oracle's ``ORDER BY cos DESC, cid``).
        Approximate: a pair qualifying on cosine but sharing no probed
        cell is missed; recall is gated in pytest on clustered fixtures.
        ``probes=1`` is SQL-expressible → hash-exact driver row.
      * ``probes=None`` — LOSSLESS cover-radius multi-probe: with unit
        vectors, ``cos ≥ t ⟺ ‖x̂−ŷ‖ ≤ r = √(2−2t)``; probing every cell
        within ``d_min + 2r`` guarantees any qualifying pair shares the
        nearest cell of at least one member (triangle inequality:
        ``‖x−c_y‖ ≤ d_y + r ≤ (d_x + r) + r``).  Exact at any threshold,
        but prunes only when ``2r`` is small vs centroid spacing — i.e.
        high thresholds on genuinely clustered data; at t=0.4 it
        degenerates to every cell (correct, just unpruned).

    Each replica carries its full sorted probe list (``__cells``) so the
    pair reducer can emit a pair only in its MINIMUM common cell — exactly
    once, no dedup shuffle.  A 1e-4 slack on t keeps the radius valid for
    the round-to-5-decimals-before-threshold pair predicate."""
    from language_identification_ray.stages.knn import _as_matrix, _drop_null_rows

    if centroids is None:
        k = int(n_cells)

        def part_topk(batch: pa.Table) -> pa.Table:
            ids = batch[id_column].to_numpy(zero_copy_only=False)
            order = np.argsort(ids, kind="stable")[:k]
            return batch.select([id_column, vec_column]).take(pa.array(order))

        rows = (
            ds.map_batches(part_topk, batch_format="pyarrow")
            .sort(id_column)
            .limit(k)
            .take_all()  # bounded: ≤ k rows
        )
        # centroids = NON-NULL vectors among the k smallest ids (the oracle's
        # `vec_id < k AND embedding IS NOT NULL`); a NULL row is skipped, not
        # replaced by the next id
        rows = [r for r in rows if r[vec_column] is not None]
        if not rows:
            return ds.limit(0)
        C = np.asarray(
            [np.asarray(r[vec_column], dtype=np.float64) for r in rows]
        )
    else:
        C = np.asarray(centroids, dtype=np.float64)
    cn = np.linalg.norm(C, axis=1)
    cn[cn == 0] = 1.0
    Ch = C / cn[:, None]
    n_k = Ch.shape[0]
    t_eff = max(-1.0, float(threshold) - 1e-4)
    two_r = 2.0 * np.sqrt(max(0.0, 2.0 - 2.0 * t_eff))

    def fan(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        if block_column is not None and batch[block_column].null_count:
            batch = batch.filter(_pc.is_valid(batch[block_column]))
        batch = _drop_null_rows(batch, vec_column)  # NULL vectors never pair
        n = batch.num_rows
        X = _as_matrix(batch[vec_column])
        if n == 0 or X.size == 0:
            cos = np.zeros((n, n_k))
        else:
            norms = np.linalg.norm(X, axis=1)
            norms[norms == 0] = 1.0
            cos = (X / norms[:, None]) @ Ch.T
        if probes is None:
            d = np.sqrt(np.maximum(2.0 - 2.0 * cos, 0.0))
            mask = d <= (d.min(axis=1) + two_r + 1e-12)[:, None]
        else:
            p = min(int(probes), n_k)
            # stable argsort on -cos: exact ties fall to the smaller cell
            best = np.argsort(-cos, axis=1, kind="stable")[:, :p]
            mask = np.zeros((n, n_k), dtype=bool)
            mask[np.repeat(np.arange(n), p), best.ravel()] = True
        counts = mask.sum(axis=1).astype(np.int64)
        rows_rep = np.repeat(np.arange(n, dtype=np.int64), counts)
        cells_flat = np.nonzero(mask)[1].astype(np.int64)  # asc per row
        offsets = np.r_[0, np.cumsum(counts)].astype(np.int32)
        row_lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(cells_flat, pa.int64())
        )
        keep = [id_column, vec_column] + ([block_column] if block_column else [])
        sub = batch.select(keep).take(pa.array(rows_rep))
        cell_str = pa.array(cells_flat.astype(str), pa.string())
        if block_column is not None:
            import pyarrow.compute as pc2

            ckey = pc2.binary_join_element_wise(
                sub[block_column].cast(pa.string()), cell_str, "|"
            )
        else:
            ckey = cell_str
        return (
            sub.append_column("__cell", pa.array(cells_flat, pa.int64()))
            .append_column("__cells", row_lists.take(pa.array(rows_rep)))
            .append_column("__ckey", ckey)
        )

    return ds.map_batches(fan, batch_format="pyarrow")


def embedding_dup_pairs(
    ds: "rd.Dataset",
    id_column: str = "vec_id",
    vec_column: str = "embedding",
    block_column: Optional[str] = "label",
    threshold: float = 0.4,
    n_tiles: int = 4,
    block: str = "auto",
    n_cells: int = 16,
    probes: "Optional[int]" = 1,
    centroids: "Optional[np.ndarray]" = None,
    auto_gate: int = 4096,
) -> "rd.Dataset":
    """Pairs with cosine ≥ t inside each blocking group.

    Similarities are rounded to 5 decimals BEFORE the threshold so the result
    is engine-independent.  The SQL oracle must cast the float32 lists to
    DOUBLE[] so BOTH engines do float64 math: float32-vs-float64 drift
    (~1e-7) does land on the 5e-6 rounding boundary in practice — at sf0.1
    two of 86 pairs rounded differently until the oracle was cast (float64
    accumulation-order differences are ~1e-16, which cannot).

    Blocking (``block``):
      * ``"auto"`` (default) — a label-column-only stats pass measures the
        LARGEST block; at or under ``auto_gate`` rows the exact label plan
        runs.  Above the gate the plan depends on whether lossless IVF can
        actually PRUNE: at ``threshold >= 0.75`` it switches to IVF cell
        blocking in its exact ``probes=None`` cover-radius form (identical
        pair set — the size-gated plan-switch pattern of ``dup_clusters``);
        below that the cover radius spans every cell, so the label plan
        stays but ``n_tiles`` widens (capped at 16) to keep per-reducer
        rows near ``2·auto_gate`` — exact low-threshold near-dup over a
        hot block is inherently quadratic in WORK, the gate bounds its
        MEMORY and spreads it.  A corpus-sized hot label can no longer
        serialize one reducer by default (VERDICT r4 standing scale
        caution).  ``block_column=None`` under auto follows the same
        threshold rule over the single global block.
      * ``"label"`` — pair within equal ``block_column`` values (the SQL
        inner-join contract).  Exact, but a hot label at 100 TB is
        O(n²)-within-block: use ``"ivf"`` (or leave ``"auto"``) there.
      * ``"ivf"`` — cluster-first blocking (:func:`_ivf_cell_expand`,
        SemDeDup's shape): vectors are assigned to ``n_cells`` cosine
        cells (``probes`` best cells each, or lossless cover-radius
        multi-probe with ``probes=None``) and pair only within a cell —
        still refined by ``block_column`` when one is given
        (cell-within-label), or corpus-global with ``block_column=None``.
        Quadratic work is bounded by cell size instead of label size.

    Scale shape: the quadratic all-pairs work inside a blocking group is
    **triangle-sharded** — each group's rows are hashed into ``n_tiles``
    tiles and every unordered tile pair becomes its own reducer group, so a
    hot blocking key spreads over n_tiles*(n_tiles+1)/2 reducers instead of
    serializing on one, and per-reducer memory is bounded by 2·|group|/n_tiles
    rows.  Each vector pair lands in exactly one tile-pair group → no dedup
    pass needed (in ivf multi-probe mode, the min-common-cell rule keeps
    this exactly-once property).  Raise ``n_tiles`` with group size
    (duplication factor is n_tiles per row)."""
    # auto plan choice: lossless IVF only prunes when the cover radius
    # 2r = 2·√(2−2t) is small vs centroid spacing; below this threshold it
    # degenerates to probing every cell (n_cells× replication for nothing),
    # so over-gate low-threshold blocks instead widen the triangle sharding.
    _IVF_MIN_T = 0.75
    if block == "auto":
        if block_column is None:
            if threshold >= _IVF_MIN_T:
                block, probes = "ivf", None  # lossless multi-probe: exact pairs
            else:
                # one global block: same widening rule as an over-gate label
                # (count() is metadata-cheap on a parquet source)
                n_rows = ds.count()
                if n_rows > auto_gate:
                    n_tiles = min(16, max(n_tiles, -(-int(n_rows) // auto_gate)))
                block = "label"
                block_column = "__all"
                ds = ds.map_batches(
                    lambda t: t.append_column(
                        "__all", pa.array(np.zeros(t.num_rows, np.int64))
                    ),
                    batch_format="pyarrow",
                )
        else:
            # stats pass over the label column ONLY (projection pushes into
            # the parquet read): per-batch partial counts -> one
            # label-cardinality groupby -> bounded driver max.  This is a
            # deliberate SECOND pass over the source rather than a
            # materialize(): for the normal parquet-backed input a projected
            # re-scan is far cheaper than pinning the full embedding table
            # in the object store; if ``ds`` is an expensive DERIVED
            # dataset, materialize it before calling (the stats pass will
            # then read the cached blocks).
            import pyarrow.compute as _pc
            from ray.data.aggregate import Sum as _Sum

            def _label_counts(batch: pa.Table) -> pa.Table:
                t = batch.filter(_pc.is_valid(batch[block_column]))  # NULLs never pair
                g = t.group_by([block_column]).aggregate([([], "count_all")])
                return pa.table(
                    {block_column: g[block_column], "__n": g["count_all"]}
                )

            counts = (
                ds.select_columns([block_column])
                .map_batches(_label_counts, batch_format="pyarrow")
                .groupby(block_column)
                .aggregate(_Sum("__n", alias_name="__n"))
                .take_all()  # bounded by label cardinality
            )
            max_block = max((r["__n"] for r in counts), default=0)
            if max_block <= auto_gate:
                block = "label"
            elif threshold >= _IVF_MIN_T:
                block, probes = "ivf", None  # lossless: identical pair set
            else:
                # exact low-threshold near-dup over a hot block is
                # inherently quadratic; keep the label plan but widen the
                # tile fan so per-reducer rows stay ~2·auto_gate (capped:
                # replication factor is n_tiles per row)
                block = "label"
                n_tiles = min(16, max(n_tiles, -(-int(max_block) // auto_gate)))
    if block == "ivf":
        ds = _ivf_cell_expand(
            ds, id_column, vec_column, block_column, threshold,
            n_cells, probes, centroids,
        )
        block_column = "__ckey"
    carry_cells = block == "ivf"

    def fan_out(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        # NULL blocking keys never pair: the SQL oracle joins ON
        # a.label = b.label, and NULL = NULL is not true — drop the rows
        # here (a NULL tile_key would also crash the reducer's key parse)
        if batch.num_rows and batch[block_column].null_count:
            batch = batch.filter(_pc.is_valid(batch[block_column]))
        from language_identification_ray.stages.knn import _drop_null_rows as _dnr

        batch = _dnr(batch, vec_column)  # NULL vectors never pair (SQL join)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        # stable per-id tile: low bits of the pandas siphash (engine-stable)
        tiles = (pd.util.hash_array(ids.astype(np.int64)) % n_tiles).astype(np.int64)
        n = len(ids)
        t_rep = np.repeat(tiles, n_tiles)
        u = np.tile(np.arange(n_tiles, dtype=np.int64), n)
        lo, hi = np.minimum(t_rep, u), np.maximum(t_rep, u)
        keys = lo * n_tiles + hi
        sides = (t_rep == lo).astype(np.int8)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_tiles))
        cols = [id_column, vec_column, block_column] + (
            ["__cells"] if carry_cells else []
        )
        sub = batch.select(cols).take(idx)
        import pyarrow.compute as pc

        tile_key = pc.binary_join_element_wise(
            sub[block_column].cast(pa.string()),
            pa.array(keys.astype(str), pa.string()),
            "|",
        )
        return sub.append_column("tile_key", tile_key).append_column(
            "is_lo", pa.array(sides, pa.int8())
        )

    def pairs(group: pa.Table) -> pa.Table:
        from language_identification_ray.stages.knn import _as_matrix, _drop_null_rows

        key = group["tile_key"][0].as_py()
        tk = int(key.rsplit("|", 1)[1])
        t_lo, t_hi = tk // n_tiles, tk % n_tiles
        group = _drop_null_rows(group, vec_column)  # aligned with ids below
        ids = group[id_column].to_numpy(zero_copy_only=False)
        mat = _as_matrix(group[vec_column])
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        is_lo = group["is_lo"].to_numpy(zero_copy_only=False).astype(bool)
        if t_lo == t_hi:
            # self tile: rows appear once (is_lo always true); triangular pairs
            sims = np.round(mat @ mat.T, 5)
            pi, pj = _triu32(len(ids))
            pair_sims = sims[pi, pj]
            mask = pair_sims >= threshold
            ra, rb = pi[mask], pj[mask]
            a, b = ids[ra], ids[rb]
            s = pair_sims[mask]
        else:
            la, lb = np.flatnonzero(is_lo), np.flatnonzero(~is_lo)
            sims = np.round(mat[la] @ mat[lb].T, 5)
            ii, jj = np.nonzero(sims >= threshold)
            ra, rb = la[ii], lb[jj]
            a, b, s = ids[ra], ids[rb], sims[ii, jj]
        if carry_cells and len(a):
            # ivf multi-probe: both members probed this cell, so the pair is
            # visible from every SHARED cell — emit it only from the minimum
            # shared cell (exactly-once without a dedup shuffle).  The loop
            # runs over above-threshold pairs only (output-bounded).
            cell = int(key.rsplit("|", 2)[-2])
            cl = group["__cells"].combine_chunks()
            keep = np.fromiter(
                (
                    min(set(cl[int(i)].as_py()) & set(cl[int(j)].as_py())) == cell
                    for i, j in zip(ra, rb)
                ),
                dtype=bool,
                count=len(a),
            )
            a, b, s = a[keep], b[keep], s[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "vec_a": pa.array(lo.astype(np.int64), pa.int64()),
                "vec_b": pa.array(hi.astype(np.int64), pa.int64()),
                "cos_sim": pa.array(s, pa.float64()),
            }
        )

    return (
        ds.map_batches(fan_out, batch_format="pyarrow")
        .groupby("tile_key")
        .map_groups(pairs, batch_format="pyarrow")
    )
