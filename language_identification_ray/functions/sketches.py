"""Mergeable sketches — the 100 TB path for distinct counts and percentiles.

The exact grouped operators (`analysis.distinct_words_per_lang`,
`analysis.lang_percentiles`) shuffle one row per distinct key / hold a whole
group in one block.  At 10^12 documents both break: the vocabulary no longer
fits a shuffle and a head language's lengths no longer fit a block.  These
sketches keep the shuffle O(groups × sketch-bytes) instead:

* **HyperLogLog** (Flajolet et al. 2007): per-batch fixed 2^p-byte register
  arrays, merged with elementwise max — associative, commutative, idempotent,
  so Ray can combine them in any order.  Registers are fed from the same
  stable uint32 word hashes as the dedup suite (`stages/dedup._hash_words32`
  — pandas siphash folded to 32 bits; this sandbox emulates 64-bit multiplies
  ~250× slower, and at 32 bits the estimator is good to ~10^8-10^9 distincts;
  switch the fold to 64-bit murmur on real hardware for larger vocabularies).

* **Mergeable quantile summary**: a uniform-weight centroid digest (t-digest
  with uniform bucket sizes).  Each partial is ≤ k (value, weight) centroids;
  merge = weighted sort-merge + recompress to k.  Error is O(1/k) in rank;
  k=256 gives ≲0.4% rank error — plenty for p50/p90 quality cut-offs.

Reference analogue: the reference has NO approximate aggregates (its README
cites Good–Turing papers only as PDFs, SURVEY §2.5) — these are the scale
extensions the north_star's 10^12-doc run needs.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# HyperLogLog (registers as a numpy uint8 array)

_HLL_ALPHA = {16: 0.673, 32: 0.697, 64: 0.709}


def hll_alpha(m: int) -> float:
    return _HLL_ALPHA.get(m, 0.7213 / (1.0 + 1.079 / m))


def hll_empty(p: int = 12) -> np.ndarray:
    return np.zeros(1 << p, dtype=np.uint8)


def hll_add_hashes(regs: np.ndarray, h32: np.ndarray, p: int = 12) -> None:
    """Fold a uint32 hash array into the registers, in place. Vectorized;
    no 64-bit arithmetic (sandbox-fast)."""
    if len(h32) == 0:
        return
    h32 = h32.astype(np.uint32, copy=False)
    idx = (h32 >> np.uint32(32 - p)).astype(np.int64)
    w = (h32 << np.uint32(p)).astype(np.uint32)  # top 32-p bits of interest
    # rank = leading zeros of w (within 32 bits) + 1, capped at 32-p+1
    rank = np.full(len(w), 32 - p + 1, dtype=np.uint8)
    nz = w != 0
    if nz.any():
        # floor(log2(w)) exactly via frexp on float64 (uint32 fits exactly)
        _, e = np.frexp(w[nz].astype(np.float64))
        clz = (32 - e).astype(np.uint8)  # e = floor(log2(w)) + 1
        rank[nz] = np.minimum(clz + 1, 32 - p + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    est = hll_alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            est = m * np.log(m / zeros)  # linear counting, small range
    return float(est)


# ---------------------------------------------------------------------------
# Mergeable quantile summary (uniform centroid digest)


def _compress(v: np.ndarray, w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recompress sorted (centroid, weight) pairs to ≤ k using the t-digest
    arcsine scale function (Dunning & Ertl 2019): buckets shrink toward the
    tails, so extreme quantiles (p99) stay sharp while the middle stays
    O(1/k)-accurate."""
    if len(v) <= k:
        return v, w
    cum = np.cumsum(w)
    total = cum[-1]
    q = (cum - w / 2.0) / total  # mid-rank quantile of each centroid
    scale = np.arcsin(2.0 * q - 1.0) / np.pi + 0.5  # k1 scale, in [0, 1]
    bucket = np.minimum(scale * k, k - 1e-9).astype(np.int64)
    wsum = np.bincount(bucket, weights=w, minlength=k)
    vsum = np.bincount(bucket, weights=v * w, minlength=k)
    nz = wsum > 0
    return vsum[nz] / wsum[nz], wsum[nz]


def qsketch_from_values(values: np.ndarray, k: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Compress raw values to ≤ k (centroid, weight) pairs."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    return _compress(v, np.ones(len(v), dtype=np.float64), k)


def qsketch_merge(
    vals_a: np.ndarray, wts_a: np.ndarray, vals_b: np.ndarray, wts_b: np.ndarray, k: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted merge of two digests, recompressed to ≤ k centroids."""
    v = np.concatenate([vals_a, vals_b])
    w = np.concatenate([wts_a, wts_b])
    order = np.argsort(v, kind="stable")
    return _compress(v[order], w[order], k)


def qsketch_quantile(vals: np.ndarray, wts: np.ndarray, q: float) -> float:
    """Weighted-centroid quantile with linear interpolation between
    centroids (matches np.percentile/quantile_cont semantics as k → n)."""
    if len(vals) == 0:
        return float("nan")
    if len(vals) == 1:
        return float(vals[0])
    cum = np.cumsum(wts)
    total = cum[-1]
    # centroid i sits at rank (cum[i] - wts[i]/2); target rank = q*(total-1)+0.5
    ranks = cum - wts / 2.0
    target = q * (total - 1.0) + 0.5
    return float(np.interp(target, ranks, vals))


# ---------------------------------------------------------------------------
# Misra–Gries heavy hitters (mergeable summaries, Agarwal et al. 2012)


def mg_compress(words: np.ndarray, counts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress a (word, count) summary to ≤ k entries, Misra–Gries style:
    subtract the (k+1)-th largest count from everything and drop ≤ 0.
    Counts become LOWER bounds with error ≤ n/(k+1) of the summarized
    weight; frequencies above that error can never be evicted."""
    if len(words) <= k:
        return words, counts
    kth = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    keep = counts > kth
    return words[keep], counts[keep] - kth


def mg_merge(
    words_a: np.ndarray,
    counts_a: np.ndarray,
    words_b: np.ndarray,
    counts_b: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two MG summaries: sum counts by word, recompress.  Errors add,
    staying ≤ total_weight/(k+1) — the mergeable-summaries guarantee."""
    w = np.concatenate([words_a, words_b])
    c = np.concatenate([counts_a, counts_b])
    uw, inv = np.unique(w, return_inverse=True)
    uc = np.bincount(inv, weights=c, minlength=len(uw)).astype(np.int64)
    return mg_compress(uw, uc, k)


# ---------------------------------------------------------------------------
# Bloom filter (Bloom 1970; Kirsch & Mitzenmacher 2006 double hashing)


def bloom_empty(m_bits: int = 1 << 17) -> np.ndarray:
    """Empty filter: a uint8 bit array of m_bits (power of two) bits.
    Mergeable by bitwise OR — associative/commutative/idempotent, the same
    any-order combine contract as the HLL registers above."""
    assert m_bits & (m_bits - 1) == 0, "m_bits must be a power of two"
    return np.zeros(m_bits >> 3, np.uint8)


def _avalanche32(x: np.ndarray, c1: int, c2: int) -> np.ndarray:
    """Murmur3-style 32-bit finalizer: every output bit depends on every
    input bit.  Without it, the power-of-two mask below would read ONLY the
    low log2(m) bits of the key — keys sharing those bits would collide on
    their ENTIRE index set (measured: 7.7% FP where the analysis says 0.2%)."""
    x = x.astype(np.uint32)
    x ^= x >> np.uint32(16)
    x *= np.uint32(c1)
    x ^= x >> np.uint32(15)
    x *= np.uint32(c2)
    x ^= x >> np.uint32(16)
    return x


def _bloom_indices(h32: np.ndarray, k: int, m_bits: int) -> np.ndarray:
    """(len(h32), k) bit indices via double hashing: idx_i = h1 + i*h2 mod m.
    All uint32 arithmetic (64-bit multiplies are emulated ~250× slower in
    this sandbox); the power-of-two m turns mod into a mask."""
    h1 = _avalanche32(h32, 0x7FEB352D, 0x846CA68B)
    h2 = _avalanche32(h32 ^ np.uint32(0x9E3779B1), 0x85EBCA6B, 0xC2B2AE35) | np.uint32(1)
    i = np.arange(k, dtype=np.uint32)
    return (h1[:, None] + i[None, :] * h2[:, None]) & np.uint32(m_bits - 1)


def bloom_add_hashes(bits: np.ndarray, h32: np.ndarray, k: int = 7) -> None:
    """Set the k bits of every hash, in place (vectorized scatter)."""
    if not len(h32):
        return
    idx = _bloom_indices(h32, k, len(bits) << 3).ravel()
    np.bitwise_or.at(bits, idx >> 3, np.uint8(1) << (idx & 7).astype(np.uint8))


def bloom_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_or(a, b)


def bloom_contains_hashes(bits: np.ndarray, h32: np.ndarray, k: int = 7) -> np.ndarray:
    """Membership mask: True where ALL k bits are set.  False positives at
    rate ≈ (1 - e^(-kn/m))^k — size m so n/m ≲ 1/10 bits per key at k=7;
    never false negatives."""
    if not len(h32):
        return np.zeros(0, bool)
    idx = _bloom_indices(h32, k, len(bits) << 3)
    got = (bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & np.uint8(1)
    return got.all(axis=1)


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005)


def cms_empty(d: int = 4, w: int = 1 << 14) -> np.ndarray:
    """Empty Count-Min sketch: a (d, w) int64 counter grid (w a power of
    two).  Mergeable by elementwise ADD — associative/commutative, the
    same any-order combine contract as the other sketches here.  Point
    estimates NEVER undercount; overcount ≤ 2N/w with probability
    ≥ 1 - 2^-d (N = total stream weight)."""
    assert w & (w - 1) == 0, "w must be a power of two"
    return np.zeros((d, w), np.int64)


_CMS_SALTS = (0x9E3779B1, 0x85EBCA6B, 0xC2B2AE35, 0x27D4EB2F,
              0x165667B1, 0xD3A2646C, 0xFD7046C5, 0xB55A4F09)


def _cms_indices(h32: np.ndarray, d: int, w: int) -> np.ndarray:
    """(d, len(h32)) column indices — one avalanche per row salt, all
    uint32 arithmetic (64-bit multiplies are emulated in this sandbox)."""
    return np.stack(
        [
            _avalanche32(h32 ^ np.uint32(_CMS_SALTS[i % len(_CMS_SALTS)] + i),
                         0x7FEB352D, 0x846CA68B) & np.uint32(w - 1)
            for i in range(d)
        ]
    )


def cms_add_hashes(regs: np.ndarray, h32: np.ndarray, counts: np.ndarray) -> None:
    """Add ``counts[j]`` at every row's column for hash j, in place
    (vectorized scatter-add per row)."""
    if not len(h32):
        return
    d, w = regs.shape
    idx = _cms_indices(h32, d, w)
    for i in range(d):
        np.add.at(regs[i], idx[i], counts)


def cms_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def cms_estimate(regs: np.ndarray, h32: np.ndarray) -> np.ndarray:
    """Point estimates: min over rows of the addressed counters (the CM
    upper-bound estimator; never below the true count)."""
    if not len(h32):
        return np.zeros(0, np.int64)
    d, w = regs.shape
    idx = _cms_indices(h32, d, w)
    return np.min(np.stack([regs[i][idx[i]] for i in range(d)]), axis=0)


# ---------------------------------------------------------------------------
# KMV (bottom-k / k-minimum-values) distinct sketch — Bar-Yossef et al. 2002.
# Unlike HLL it supports SET OPERATIONS: the bottom-k of a union is
# computable from two sketches, so Jaccard between two streams is the
# fraction of the union's bottom-k present in both — the primitive behind
# sketched vocabulary-overlap matrices at 100 TB (exact overlap needs a
# per-pair join; KMV ships k hashes per group).


def kmv_from_hashes(h64: np.ndarray, k: int = 1024) -> np.ndarray:
    """Bottom-``k`` DISTINCT uint64 hashes, ascending (a partial)."""
    u = np.unique(np.asarray(h64, dtype=np.uint64))
    return u[:k]


def _check_k(k: int, *sketches: np.ndarray) -> None:
    """Every KMV input must come from ``kmv_from_hashes(..., k)`` with the
    call's own ``k``.  A sketch built with a smaller k looks like an exact
    small set and biases every estimate silently; a longer one proves the
    k's differ, so it is rejected."""
    for sk in sketches:
        if len(sk) > k:
            raise ValueError(
                f"KMV sketch of {len(sk)} values passed with k={k}: all "
                "sketches of one merge/estimate must share the same k"
            )


def kmv_merge(a: np.ndarray, b: np.ndarray, k: int = 1024) -> np.ndarray:
    """Merged bottom-``k`` distinct of two partials (associative).  Both
    partials must be built with this same ``k`` (see ``_check_k``)."""
    _check_k(k, a, b)
    return np.unique(np.concatenate([a, b]))[:k]


def kmv_estimate(sk: np.ndarray, k: int = 1024) -> float:
    """Distinct-count estimate: exact when the stream had < k distinct
    values (the sketch holds them all), else the order-statistic estimator
    (k-1) / kth_min scaled to the uint64 hash space.  ``sk`` must be
    built with this same ``k``."""
    _check_k(k, sk)
    if len(sk) < k:
        return float(len(sk))
    kth = float(sk[k - 1]) + 1.0
    return (k - 1) / (kth / 2.0 ** 64)


def kmv_jaccard(a: np.ndarray, b: np.ndarray, k: int = 1024) -> float:
    """Jaccard estimate: fraction of the UNION's bottom-k found in both
    sketches.  Exact only when the UNION of the two streams has < k
    distinct values (both sketches then hold their full sets AND the
    union's bottom-k is the whole union); two individually-unsaturated
    sketches whose union exceeds k still yield an estimate.  Both
    sketches must be built with this same ``k``."""
    _check_k(k, a, b)
    union = np.unique(np.concatenate([a, b]))[:k]
    if len(union) == 0:
        return 0.0
    both = np.isin(union, a, assume_unique=True) & np.isin(
        union, b, assume_unique=True
    )
    return float(both.sum()) / float(len(union))
