"""Sketch accuracy: HLL distinct count and mergeable quantile digest must
track their exact counterparts within published error bounds."""

import numpy as np
import pytest

from language_identification_ray.functions import sketches as sk


def test_hll_accuracy_pure():
    rng = np.random.default_rng(7)
    for n in [100, 5_000, 200_000]:
        h = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
        h = np.unique(h)
        regs = sk.hll_empty(12)
        # feed in chunks and in shuffled order — merge must not care
        parts = np.array_split(rng.permutation(h), 7)
        merged = sk.hll_empty(12)
        for part in parts:
            r = sk.hll_empty(12)
            sk.hll_add_hashes(r, part, 12)
            merged = sk.hll_merge(merged, r)
        sk.hll_add_hashes(regs, h, 12)
        assert np.array_equal(regs, merged)  # merge == bulk
        est = sk.hll_estimate(regs)
        assert abs(est - len(h)) / len(h) < 0.05, (n, est)


def test_hll_idempotent_and_empty():
    regs = sk.hll_empty(12)
    assert sk.hll_estimate(regs) == 0.0
    h = np.array([123456789, 42], dtype=np.uint32)
    a = sk.hll_empty(12)
    sk.hll_add_hashes(a, h, 12)
    b = a.copy()
    sk.hll_add_hashes(b, h, 12)  # re-adding changes nothing
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dist", ["uniform", "lognormal", "bimodal"])
def test_qsketch_accuracy_pure(dist):
    rng = np.random.default_rng(11)
    n = 100_000
    if dist == "uniform":
        v = rng.uniform(0, 1000, n)
    elif dist == "lognormal":
        v = rng.lognormal(3, 1.5, n)
    else:
        v = np.concatenate([rng.normal(10, 1, n // 2), rng.normal(1000, 50, n // 2)])
    # build from shuffled chunks, merge pairwise
    vals = np.empty(0)
    wts = np.empty(0)
    for chunk in np.array_split(rng.permutation(v), 23):
        cv, cw = sk.qsketch_from_values(chunk, 256)
        vals, wts = sk.qsketch_merge(vals, wts, cv, cw, 256)
    assert len(vals) <= 256
    assert float(np.sum(wts)) == pytest.approx(n)
    for q in [0.1, 0.5, 0.9, 0.99]:
        approx = sk.qsketch_quantile(vals, wts, q)
        # the digest guarantee is on RANK error (value error is unbounded in
        # density gaps, e.g. the bimodal median): F(approx) must be within
        # 1% of q.
        rank = float(np.mean(v < approx) + 0.5 * np.mean(v == approx))
        assert abs(rank - q) < 0.01, (q, rank, approx)


def test_qsketch_small_exact():
    v = np.array([3.0, 1.0, 2.0])
    vals, wts = sk.qsketch_from_values(v, 256)
    assert sk.qsketch_quantile(vals, wts, 0.5) == 2.0
    assert sk.qsketch_quantile(vals, wts, 0.0) == 1.0
    assert sk.qsketch_quantile(vals, wts, 1.0) == 3.0


def test_sketch_pipelines_match_exact(ray_session, sf_dir):
    """The Ray sketch pipelines must track the exact grouped operators."""
    from language_identification_ray.pipelines import analysis

    exact_v = {
        r["lang"]: r["n_words"]
        for r in analysis.distinct_words_per_lang(sf_dir).take_all()
    }
    approx_v = {
        r["lang"]: r["n_words_approx"]
        for r in analysis.distinct_words_per_lang_hll(sf_dir).take_all()
    }
    assert set(exact_v) == set(approx_v)
    for lang, n in exact_v.items():
        assert abs(approx_v[lang] - n) / n < 0.05, (lang, n, approx_v[lang])

    exact_q = {
        r["lang"]: (r["p50_chars"], r["p90_chars"])
        for r in analysis.lang_percentiles(sf_dir).take_all()
    }
    approx_q = {
        r["lang"]: (r["p50_chars"], r["p90_chars"])
        for r in analysis.lang_percentiles_sketch(sf_dir).take_all()
    }
    assert set(exact_q) == set(approx_q)
    for lang in exact_q:
        for e, a in zip(exact_q[lang], approx_q[lang]):
            assert abs(a - e) / max(e, 1.0) < 0.02, (lang, e, a)


def test_mg_heavy_hitters_pure():
    """MG with compression engaged: top heavy hitters survive with bounded
    count error (≤ total/(k+1) per the mergeable-summaries guarantee)."""
    rng = np.random.default_rng(3)
    n, vocab, k = 200_000, 20_000, 512
    words = rng.zipf(1.3, n) % vocab  # skewed
    uw, uc = np.unique(words, return_counts=True)
    order = np.argsort(uc)[::-1]
    true_top = uw[order[:20]]
    true_counts = dict(zip(uw.tolist(), uc.tolist()))

    merged_w = np.empty(0, dtype=np.int64)
    merged_c = np.empty(0, dtype=np.int64)
    n_compressed = 0
    for chunk in np.array_split(words, 37):
        cw, cc = np.unique(chunk, return_counts=True)
        cw2, cc2 = sk.mg_compress(cw, cc.astype(np.int64), k)
        n_compressed += int(len(cw2) < len(cw))
        merged_w, merged_c = sk.mg_merge(merged_w, merged_c, cw2, cc2, k)
    assert n_compressed > 0, "test must exercise compression"
    assert len(merged_w) <= k
    summary = dict(zip(merged_w.tolist(), merged_c.tolist()))
    err_bound = n / (k + 1)
    for w in true_top:
        tc = true_counts[int(w)]
        assert int(w) in summary, (w, tc)
        lo = summary[int(w)]
        assert lo <= tc and tc - lo <= err_bound * 2, (w, tc, lo)


def test_mg_exact_below_k():
    w = np.asarray(["a", "b", "c"], dtype=object)
    c = np.asarray([5, 3, 1], dtype=np.int64)
    w2, c2 = sk.mg_compress(w, c, 10)
    assert list(w2) == ["a", "b", "c"] and list(c2) == [5, 3, 1]


def test_bloom_no_false_negatives_and_fp_bounded():
    rng = np.random.default_rng(11)
    members = np.unique(rng.integers(0, 2**32, size=10_000, dtype=np.uint64).astype(np.uint32))
    bits = sk.bloom_empty(1 << 17)  # ~13 bits/key at n=10k
    # chunked, shuffled adds OR-merged must equal one bulk add
    merged = sk.bloom_empty(1 << 17)
    for part in np.array_split(rng.permutation(members), 5):
        b = sk.bloom_empty(1 << 17)
        sk.bloom_add_hashes(b, part)
        merged = sk.bloom_merge(merged, b)
    sk.bloom_add_hashes(bits, members)
    assert np.array_equal(bits, merged)
    # no false negatives, ever
    assert sk.bloom_contains_hashes(bits, members).all()
    # false-positive rate near the analytic (1 - e^{-kn/m})^k ~ 0.2% here
    probes = np.setdiff1d(
        rng.integers(0, 2**32, size=50_000, dtype=np.uint64).astype(np.uint32), members
    )
    fp = sk.bloom_contains_hashes(bits, probes).mean()
    assert fp < 0.01, fp


def test_bloom_empty_probe():
    bits = sk.bloom_empty(1 << 10)
    assert sk.bloom_contains_hashes(bits, np.array([], np.uint32)).shape == (0,)
    assert not sk.bloom_contains_hashes(bits, np.array([7, 9], np.uint32)).any()


def test_bloom_incremental_dedup_matches_exact(ray_session, sf_dir):
    import duckdb

    from language_identification_ray.pipelines.analysis import incremental_dedup_bloom

    got = (
        incremental_dedup_bloom(sf_dir).to_pandas().set_index("lang").sort_index()
    )
    exact = duckdb.sql(
        f"""
        SELECT n.lang, count(*) AS n_new,
               count(*) FILTER (n.text IN (SELECT text FROM '{sf_dir}/documents.parquet'
                                           WHERE doc_id % 2 = 0)) AS n_seen
        FROM (SELECT * FROM '{sf_dir}/documents.parquet' WHERE doc_id % 2 = 1) n
        GROUP BY n.lang
        """
    ).df().set_index("lang").sort_index()
    assert (got["n_new_docs"] == exact["n_new"]).all()
    # Bloom can only over-count 'seen' (false positives), never under
    assert (got["n_seen_docs"] >= exact["n_seen"]).all()
    assert int(got["n_seen_docs"].sum()) <= int(exact["n_seen"].sum()) + max(
        1, int(0.01 * got["n_new_docs"].sum())
    )


# ---------------------------------------------------------------------------
# Count-Min sketch


def test_cms_never_undercounts_and_exact_when_sparse():
    import numpy as np
    import zlib
    from language_identification_ray.functions import sketches as sk

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(500)]
    true = rng.integers(1, 1000, size=len(words)).astype(np.int64)
    h32 = np.array([zlib.crc32(w.encode()) for w in words], dtype=np.uint32)
    regs = sk.cms_empty(d=4, w=1 << 14)
    sk.cms_add_hashes(regs, h32, true)
    est = sk.cms_estimate(regs, h32)
    assert (est >= true).all()                      # CM never undercounts
    assert (est == true).all()                      # sparse: no collisions at w=16k


def test_cms_forced_collisions_still_upper_bound():
    import numpy as np
    import zlib
    from language_identification_ray.functions import sketches as sk

    # tiny grid forces collisions; estimates must stay upper bounds
    words = [f"x{i}" for i in range(200)]
    true = np.arange(1, 201, dtype=np.int64)
    h32 = np.array([zlib.crc32(w.encode()) for w in words], dtype=np.uint32)
    regs = sk.cms_empty(d=3, w=1 << 5)
    sk.cms_add_hashes(regs, h32, true)
    est = sk.cms_estimate(regs, h32)
    assert (est >= true).all()
    assert (est > true).any()                       # collisions actually happened
    # error bound: overcount <= 2N/w with prob >= 1 - 2^-d; allow the full
    # union bound slack x4 to keep the test deterministic-tight
    assert (est - true).max() <= 8 * true.sum() // (1 << 5)


def test_cms_merge_is_add():
    import numpy as np
    import zlib
    from language_identification_ray.functions import sketches as sk

    words = ["a", "b", "c"]
    h32 = np.array([zlib.crc32(w.encode()) for w in words], dtype=np.uint32)
    r1, r2 = sk.cms_empty(2, 1 << 6), sk.cms_empty(2, 1 << 6)
    sk.cms_add_hashes(r1, h32, np.array([1, 2, 3], np.int64))
    sk.cms_add_hashes(r2, h32, np.array([10, 20, 30], np.int64))
    merged = sk.cms_merge(r1, r2)
    assert (sk.cms_estimate(merged, h32) >= np.array([11, 22, 33])).all()


def test_cms_pipeline_matches_exact(ray_session, sf_dir):
    from language_identification_ray.pipelines import analysis

    exact = analysis.word_freq_top100(sf_dir).to_pandas()
    cms = analysis.word_freq_top100_cms(sf_dir).to_pandas()
    e = dict(zip(exact["word"], exact["cnt"]))
    c = dict(zip(cms["word"], cms["cnt_est"]))
    assert set(e) == set(c)
    # w=16384 >> vocab at test scale: estimates are exact
    assert all(c[w] == e[w] for w in e)


# ---------------------------------------------------------------------------
# KMV (bottom-k) distinct sketch


def test_kmv_exact_regime_and_merge():
    import numpy as np
    import pandas as pd

    from language_identification_ray.functions.sketches import (
        kmv_estimate, kmv_from_hashes, kmv_jaccard, kmv_merge,
    )

    A = pd.util.hash_array(np.arange(100, dtype=np.int64))
    B = pd.util.hash_array(np.arange(60, 160, dtype=np.int64))
    sa, sb = kmv_from_hashes(A, 1024), kmv_from_hashes(B, 1024)
    # under k: sketch IS the set -> exact estimates
    assert kmv_estimate(sa, 1024) == 100.0
    assert kmv_jaccard(sa, sb, 1024) == 40 / 160
    # merge associativity + bottom-k property
    m = kmv_merge(sa, sb, 1024)
    assert (m == np.unique(np.concatenate([sa, sb]))[:1024]).all()


def test_kmv_rejects_sketch_longer_than_k():
    """A sketch built with a larger k than the call's must fail loudly."""
    import numpy as np
    import pandas as pd

    from language_identification_ray.functions.sketches import (
        kmv_estimate, kmv_from_hashes, kmv_jaccard, kmv_merge,
    )

    big = kmv_from_hashes(pd.util.hash_array(np.arange(300, dtype=np.int64)), 256)
    small = kmv_from_hashes(pd.util.hash_array(np.arange(50, dtype=np.int64)), 64)
    assert len(big) == 256
    with pytest.raises(ValueError, match="same k"):
        kmv_merge(big, small, 64)
    with pytest.raises(ValueError, match="same k"):
        kmv_merge(small, big, 64)
    with pytest.raises(ValueError, match="same k"):
        kmv_jaccard(small, big, 64)
    with pytest.raises(ValueError, match="same k"):
        kmv_estimate(big, 64)
    # same k throughout: accepted, and a sketch of exactly k values is fine
    assert len(kmv_merge(big, big, 256)) == 256
    assert kmv_estimate(small, 64) == 50.0


def test_kmv_estimation_accuracy():
    import numpy as np
    import pandas as pd

    from language_identification_ray.functions.sketches import (
        kmv_estimate, kmv_from_hashes, kmv_jaccard,
    )

    rng = np.random.default_rng(3)
    A = rng.integers(0, 2**62, 40000, dtype=np.int64)
    B = np.concatenate([A[:25000], rng.integers(0, 2**62, 15000, dtype=np.int64)])
    sa = kmv_from_hashes(pd.util.hash_array(A), 1024)
    sb = kmv_from_hashes(pd.util.hash_array(B), 1024)
    nA = len(np.unique(A))
    true_j = len(np.intersect1d(A, B)) / len(np.union1d(A, B))
    assert abs(kmv_estimate(sa, 1024) - nA) / nA < 0.1
    assert abs(kmv_jaccard(sa, sb, 1024) - true_j) < 0.08


def test_source_vocab_overlap_kmv_matches_exact_under_k(ray_session, sf_dir):
    """Every sf0.001 source-pair vocabulary UNION is far under k (the
    KMV exactness condition — per-source smallness alone is not enough),
    so the sketched Jaccard must EQUAL the exact kernel's on every pair
    it reports."""
    from language_identification_ray.pipelines.analysis import (
        source_vocab_overlap, source_vocab_overlap_kmv,
    )

    exact = {
        (r["s1"], r["s2"]): r["jaccard"]
        for r in source_vocab_overlap(sf_dir).to_pylist()
    }
    est = source_vocab_overlap_kmv(sf_dir)
    checked = 0
    for r in est.to_pylist():
        key = (r["src_a"], r["src_b"])
        if key in exact:
            assert abs(r["jaccard_est"] - exact[key]) < 1e-6, key
            checked += 1
    assert checked >= 10
