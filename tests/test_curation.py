"""Semantics tests for the training-data curation operators
(decontaminate_docs, train_val_test_split, semantic_dedup_docs) beyond the
oracle parity already covered by test_queries_oracle."""

import hashlib
import os
import sys

import numpy as np

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from language_identification_ray.pipelines import analysis


@pytest.fixture(scope="module")
def tiny_sf(tmp_path_factory):
    """A miniature documents+embeddings pair with a known contamination and a
    known embedding dup, so expectations are checkable by hand."""
    d = tmp_path_factory.mktemp("tiny_sf")
    texts = {
        0: "alpha beta gamma delta epsilon zeta",      # eval doc (0 % 13 == 0)
        1: "alpha beta gamma delta other words here",  # shares 4-gram with doc 0
        2: "totally different content in this doc",    # clean
        13: "unrelated eval doc text goes here now",   # eval doc
        14: "more clean text with no overlap at all",  # clean
    }
    ids = sorted(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([texts[i] for i in ids], pa.string()),
                "lang": pa.array(["en"] * len(ids), pa.string()),
                "source": pa.array(["s"] * len(ids), pa.string()),
                "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    # vec 1 duplicates vec 0 (same label) -> higher id 1 is dropped
    embs = {0: [1.0, 0.0, 0.0], 1: [1.0, 1e-4, 0.0], 2: [0.0, 1.0, 0.0],
            13: [0.0, 0.0, 1.0], 14: [0.0, -1.0, 0.0]}
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array([embs[i] for i in ids], pa.list_(pa.float32())),
                "label": pa.array([0] * len(ids), pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    return str(d)


def test_decontaminate_flags_overlap(ray_session, tiny_sf):
    df = analysis.decontaminate_docs(tiny_sf, n=4).to_pandas().set_index("doc_id")
    # eval docs (0, 13) are excluded from the output
    assert set(df.index) == {1, 2, 14}
    assert bool(df.loc[1, "contaminated"]) and df.loc[1, "n_hits"] >= 1
    assert not df.loc[2, "contaminated"] and df.loc[2, "n_hits"] == 0
    assert not df.loc[14, "contaminated"]


def test_split_is_deterministic_md5(ray_session, tiny_sf):
    df = analysis.train_val_test_split(tiny_sf).to_pandas().set_index("doc_id")
    for doc_id, row in df.iterrows():
        c = hashlib.md5(str(doc_id).encode()).hexdigest()[0]
        expect = "train" if c < "d" else ("val" if c == "d" else "test")
        assert row["split"] == expect
    # a second run yields the identical assignment (no RNG state anywhere)
    df2 = analysis.train_val_test_split(tiny_sf).to_pandas().set_index("doc_id")
    assert df["split"].to_dict() == df2["split"].to_dict()


def test_semantic_dedup_drops_higher_id_of_pair(ray_session, tiny_sf):
    out = analysis.semantic_dedup_docs(tiny_sf, threshold=0.99).to_pandas()
    # vec 1 ~ vec 0 (cos ~ 1.0) -> doc 1 dropped, everything else kept
    assert set(out["doc_id"]) == {0, 2, 13, 14}
    assert list(out.columns) == ["doc_id", "lang", "n_chars"]


def test_semantic_dedup_no_pairs_keeps_all(ray_session, tiny_sf):
    # threshold above any similarity: drop side is EMPTY — the regression
    # mode that crashes Dataset.join (schema-less empty shuffle partitions)
    out = analysis.semantic_dedup_docs(tiny_sf, threshold=1.1).to_pandas()
    assert len(out) == 5


def test_dup_clusters_transitive_chain(ray_session, tmp_path):
    """a-b and b-c are dup edges but a-c is not: the cluster {a,b,c} only
    forms through multi-round label propagation (graph diameter 2)."""
    import math

    d = tmp_path / "chain_sf"
    d.mkdir()
    ids = [10, 11, 12, 13]
    # angles 0, 25, 50 deg: cos(25)=0.906 >= 0.9, cos(50)=0.64 < 0.9
    angs = [0.0, math.radians(25), math.radians(50), math.radians(180)]
    vecs = [[math.cos(a), math.sin(a), 0.0] for a in angs]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "label": pa.array([0] * 4, pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(["x"] * 4, pa.string()),
                "lang": pa.array(["en"] * 4, pa.string()),
                "source": pa.array(["s"] * 4, pa.string()),
                "n_chars": pa.array([1] * 4, pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.dup_clusters(str(d), threshold=0.9).to_pandas().set_index("doc_id")
    assert out.loc[10, "cluster_id"] == 10
    assert out.loc[11, "cluster_id"] == 10  # direct edge
    assert out.loc[12, "cluster_id"] == 10  # TRANSITIVE via 11
    assert out.loc[13, "cluster_id"] == 13  # singleton


def test_dedup_pipelines_ivf_pair_source_parity(ray_session, sf_dir):
    """VERDICT r3 #1 done-criterion: dup_clusters / semantic_dedup_docs /
    fuzzy_dedup_keep re-verified EXACT through the cluster-first IVF pair
    source (lossless probes=None) against the label-blocked default on the
    driver fixture."""

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    for fn in (
        analysis.dup_clusters,
        analysis.semantic_dedup_docs,
        analysis.fuzzy_dedup_keep,
    ):
        base = canon(fn(sf_dir).to_pandas())
        ivf = canon(fn(sf_dir, block="ivf", n_cells=8, probes=None).to_pandas())
        pd.testing.assert_frame_equal(base, ivf, check_dtype=False)


def test_events_json_kpi_null_and_missing_key(ray_session, tmp_path):
    """Rows whose props lack an integer k (malformed JSON, NULL, other keys)
    count toward n_events but are excluded from avg_k — DuckDB avg
    semantics over a NULL-producing json_extract."""
    import datetime as dt

    d = tmp_path / "ev"
    d.mkdir()
    ts = [dt.datetime(2026, 1, 1, h) for h in range(6)]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(6), pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array([1] * 6, pa.int64()),
                "event_type": pa.array(["a", "a", "a", "b", "b", "b"], pa.string()),
                "value": pa.array([0.0] * 6, pa.float64()),
                "props": pa.array(
                    ['{"k": 4}', '{"other": 1}', None, '{"k": -2}', '{"k": 8}',
                     '{"outer": {"k": 9}}'],  # nested k must NOT match (json_extract('$.k') parity)
                    pa.string(),
                ),
            }
        ),
        d / "events.parquet",
    )
    out = analysis.events_json_kpi(str(d)).to_pandas().set_index("event_type")
    assert out.loc["a", "n_events"] == 3
    assert out.loc["a", "avg_k"] == 4.0  # only the one parseable k
    assert out.loc["b", "n_events"] == 3
    assert out.loc["b", "avg_k"] == 3.0  # (-2 + 8) / 2; nested k excluded


def test_per_source_cap_keeps_lowest_ids(ray_session, tmp_path):
    d = tmp_path / "docs"
    d.mkdir()
    ids = list(range(30))
    srcs = ["big"] * 25 + ["small"] * 5
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(["x"] * 30, pa.string()),
                "lang": pa.array(["en"] * 30, pa.string()),
                "source": pa.array(srcs, pa.string()),
                "n_chars": pa.array([1] * 30, pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.per_source_cap(str(d), cap=10).to_pandas()
    big = out[out["source"] == "big"]["doc_id"].sort_values().tolist()
    small = out[out["source"] == "small"]["doc_id"].sort_values().tolist()
    assert big == list(range(10))  # capped, lowest doc_ids win
    assert small == list(range(25, 30))  # under cap: untouched


def test_repetition_stats_counts_repeats(ray_session, tmp_path):
    d = tmp_path / "rep"
    d.mkdir()
    texts = [
        "a b c a b c a b c",  # 7 trigrams, 3 distinct -> dup_frac 4/7
        "all words here are distinct tokens",  # 4 trigrams, all distinct
        "one two",  # < 3 words: no trigrams, dup_frac 0
        "",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * 4, pa.string()),
                "source": pa.array(["s"] * 4, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.repetition_stats(str(d)).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_grams"] == 7 and out.loc[0, "n_distinct"] == 3
    assert abs(out.loc[0, "dup_frac"] - 4 / 7) < 1e-12
    assert out.loc[1, "n_grams"] == 4 and out.loc[1, "dup_frac"] == 0.0
    assert out.loc[2, "n_grams"] == 0 and out.loc[2, "dup_frac"] == 0.0
    assert out.loc[3, "n_grams"] == 0  # "" splits to one empty word -> no trigrams


def test_mixture_sample_rates_and_determinism(ray_session, tmp_path):
    d = tmp_path / "mix"
    d.mkdir()
    n = 4000
    srcs = [f"src{i % 4}" for i in range(n)]  # rates 0.25/0.5/0.75/1.0
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["x"] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(srcs, pa.string()),
                "n_chars": pa.array([1] * n, pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.mixture_sample(str(d)).to_pandas()
    kept = out.groupby("source")["doc_id"].count()
    assert kept["src3"] == n // 4  # rate 1.0 keeps everything
    for src, rate in [("src0", 0.25), ("src1", 0.5), ("src2", 0.75)]:
        frac = kept.get(src, 0) / (n // 4)
        assert abs(frac - rate) < 0.08, (src, frac)
    out2 = analysis.mixture_sample(str(d)).to_pandas()
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])  # deterministic


def test_global_length_rank_breaks_ties_by_doc_id(ray_session, tmp_path):
    d = tmp_path / "rank"
    d.mkdir()
    lens = [10, 30, 30, 20, 10]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "text": pa.array(["x"] * 5, pa.string()),
                "lang": pa.array(["en"] * 5, pa.string()),
                "source": pa.array(["s"] * 5, pa.string()),
                "n_chars": pa.array(lens, pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.global_length_rank(str(d)).to_pandas().set_index("doc_id")["rank"]
    assert out.to_dict() == {1: 1, 2: 2, 3: 3, 0: 4, 4: 5}


def test_repetition_stats_matches_naive_on_random_docs(ray_session, tmp_path):
    """200 seeded random word-soup docs vs a per-doc Python Counter — pins
    the vectorized byte-view-unique trigram counting against the obvious
    implementation across repeat-heavy and repeat-free shapes."""
    import numpy as np

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]  # tiny vocab -> many repeated grams
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(0, 40))))
        for _ in range(200)
    ]
    d = tmp_path / "randrep"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.repetition_stats(str(d)).to_pandas().set_index("doc_id")
    for i, t in enumerate(texts):
        ws = t.split(" ")
        grams = list(zip(ws, ws[1:], ws[2:]))
        assert out.loc[i, "n_grams"] == len(grams), i
        assert out.loc[i, "n_distinct"] == len(set(grams)), i


def test_global_length_rank_matches_pandas_on_random_lengths(ray_session, tmp_path):
    import numpy as np

    rng = np.random.default_rng(11)
    n = 500
    lens = rng.integers(1, 30, size=n)  # heavy ties
    d = tmp_path / "randrank"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["x"] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["s"] * n, pa.string()),
                "n_chars": pa.array(lens, pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.global_length_rank(str(d)).to_pandas()
    expect = (
        pd.DataFrame({"doc_id": range(n), "n_chars": lens})
        .sort_values(["n_chars", "doc_id"], ascending=[False, True])
        .reset_index(drop=True)
    )
    expect["rank"] = np.arange(1, n + 1, dtype=np.int64)
    got = out.sort_values("rank").reset_index(drop=True)[["doc_id", "n_chars", "rank"]]
    pd.testing.assert_frame_equal(got, expect[["doc_id", "n_chars", "rank"]])


def test_dup_clusters_no_edges_all_singletons(ray_session, tiny_sf):
    # threshold above any similarity: the edge subgraph is EMPTY — the
    # fixpoint loop must break on the empty aggregate and every doc must
    # come back as its own cluster
    out = analysis.dup_clusters(tiny_sf, threshold=1.1).to_pandas()
    assert (out["cluster_id"] == out["doc_id"]).all()
    assert len(out) == 5


def test_events_funnel_requires_strict_order(ray_session, tmp_path):
    """A purchase BEFORE the first click must not count as stage 3."""
    import datetime as dt

    d = tmp_path / "funnel"
    d.mkdir()
    T = lambda m: dt.datetime(2026, 1, 1, 0, m)
    rows = [  # (user, minute, type)
        (1, 0, "view"), (1, 1, "click"), (1, 2, "purchase"),   # full funnel
        (2, 0, "view"), (2, 2, "click"), (2, 1, "purchase"),   # purchase BEFORE click
        (3, 0, "click"), (3, 1, "view"),                        # click before view
        (4, 0, "error"),                                        # nothing
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([T(m) for _, m, _ in rows], pa.timestamp("us")),
                "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
                "event_type": pa.array([t for _, _, t in rows], pa.string()),
                "value": pa.array([0.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        d / "events.parquet",
    )
    out = analysis.events_funnel(str(d)).to_pandas().set_index("user_id")["stage"]
    assert out.to_dict() == {1: 3, 2: 2, 3: 1, 4: 0}


def test_events_funnel_conversion_window(ray_session, tmp_path):
    """A next step OUTSIDE the conversion window does not count: view at
    t=0, click at t=+25h with a 24h window stalls at stage 1."""
    import datetime as dt

    d = tmp_path / "funnel_w"
    d.mkdir()
    rows = [
        (1, dt.datetime(2026, 1, 1, 0, 0), "view"),
        (1, dt.datetime(2026, 1, 2, 1, 0), "click"),      # +25h: outside
        (2, dt.datetime(2026, 1, 1, 0, 0), "view"),
        (2, dt.datetime(2026, 1, 1, 23, 0), "click"),     # +23h: inside
        (2, dt.datetime(2026, 1, 2, 22, 0), "purchase"),  # +23h after click
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([t for _, t, _ in rows], pa.timestamp("us")),
                "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
                "event_type": pa.array([e for _, _, e in rows], pa.string()),
                "value": pa.array([0.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        d / "events.parquet",
    )
    out = analysis.events_funnel(str(d)).to_pandas().set_index("user_id")["stage"]
    assert out.to_dict() == {1: 1, 2: 3}


def test_events_sessionize_null_ts_matches_oracle(ray_session, tmp_path):
    """NULL timestamps follow the declared DuckDB oracle's window semantics:
    a NULL-ts row never STARTS a session (ts - lag(ts) is NULL → falsy), it
    merges into the user's last session, and t_start/t_end ignore NULLs like
    SQL min/max.  A user whose every ts is NULL yields one all-NULL session."""
    import datetime as dt

    import duckdb
    import __ray_entry__ as entrymod

    d = tmp_path / "sess_nat"
    d.mkdir()
    T = lambda m: dt.datetime(2026, 1, 1, 0, 0) + dt.timedelta(minutes=m)
    rows = [  # (user, ts)
        (1, T(0)), (1, T(5)), (1, None),            # NULL merges into session 1
        (2, T(0)), (2, T(90)), (2, None), (2, None),  # gap split + 2 NULLs at end
        (3, None), (3, None),                        # all-NULL user
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([t for _, t in rows], pa.timestamp("us")),
                "user_id": pa.array([u for u, _ in rows], pa.int64()),
                "event_type": pa.array(["view"] * len(rows), pa.string()),
                "value": pa.array([0.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        d / "events.parquet",
    )
    got = (
        analysis.events_sessionize(str(d))
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = (
        con.sql(entrymod.oracle_sql()["events_sessionize"])
        .df()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False
    )


@pytest.fixture()
def null_text_sf(tmp_path):
    """documents table with a NULL and an empty text row (the
    documents_profile-audited inputs the pure-Arrow word paths must not
    crash on)."""
    texts = ["alpha beta alpha beta alpha beta gamma", None, "", "delta delta"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en", "en", "de", "de"], pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    return str(tmp_path)


def test_arrow_text_paths_survive_null_text(ray_session, null_text_sf):
    """NULL text behaves like '' in every pure-Arrow word path (the r2
    ADVICE crash: null list lengths -> NaN counts into np.repeat)."""
    tc = analysis.token_count(null_text_sf).to_pandas().set_index("doc_id")
    assert tc.loc[0, "n_tokens"] == 7
    assert tc.loc[1, "n_tokens"] == 1  # NULL -> '' -> one empty token
    assert tc.loc[2, "n_tokens"] == 1

    sw = analysis.stopword_stats(null_text_sf).to_pandas()
    assert len(sw) == 4 and (sw["stop_hits"] >= 0).all()

    rep = analysis.repetition_stats(null_text_sf).to_pandas().set_index("doc_id")
    assert rep.loc[1, "n_grams"] == 0 and rep.loc[1, "dup_frac"] == 0.0
    assert rep.loc[0, "n_grams"] == 5 and rep.loc[0, "n_distinct"] == 3

    tf = analysis.tfidf_top5_per_lang(null_text_sf).to_pandas()
    assert set(tf["lang"]) == {"en", "de"}


def test_events_json_kpi_key_position_and_drift(ray_session, tmp_path):
    """`k` in ANY flat-object position is extracted (r2 ADVICE: the old
    first-key anchor silently NULLed reordered payloads) via the exact
    json.loads fallback, including string-typed numbers — matching
    json_extract_string('$.k') + CAST under schema drift."""
    import datetime as dt

    def write(d, props):
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(len(props)), pa.int64()),
                    "user_id": pa.array([1] * len(props), pa.int64()),
                    "ts": pa.array([dt.datetime(2026, 1, 1)] * len(props), pa.timestamp("us")),
                    "event_type": pa.array(["view"] * len(props), pa.string()),
                    "value": pa.array([0.0] * len(props), pa.float64()),
                    "props": pa.array(props, pa.string()),
                }
            ),
            d / "events.parquet",
        )
        return str(d)

    ok = write(tmp_path / "ok", ['{"k": 4}', '{"a": 1, "k": 6}', '{"other": 2}'])
    out = analysis.events_json_kpi(ok).to_pandas()
    assert out.loc[0, "n_events"] == 3
    assert out.loc[0, "avg_k"] == 5.0  # both positions extracted, no-k row skipped

    drifted = write(
        tmp_path / "drift",
        ['{"k": 1}', '{ "k" : 3 }', '{"k": "5"}', '{"nested": {"k": 99}}', "not json {\"k\""],
    )
    out = analysis.events_json_kpi(drifted).to_pandas()
    assert out.loc[0, "n_events"] == 5
    # odd whitespace and string-typed k recovered; nested + malformed stay NULL
    assert out.loc[0, "avg_k"] == 3.0  # (1 + 3 + 5) / 3


def test_per_source_cap_null_source_is_own_group(ray_session, tmp_path):
    """A NULL source must form its own capped group (SQL GROUP BY keeps a
    NULL group) — regression: the numpy lexsort partial raised
    str-vs-None TypeError on any NULL source."""
    d = tmp_path / "docs_null_src"
    d.mkdir()
    ids = list(range(20))
    srcs = ["a"] * 8 + [None] * 12
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(["x"] * 20, pa.string()),
                "lang": pa.array(["en"] * 20, pa.string()),
                "source": pa.array(srcs, pa.string()),
                "n_chars": pa.array([1] * 20, pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.per_source_cap(str(d), cap=5).to_pandas()
    a_ids = out[out["source"] == "a"]["doc_id"].sort_values().tolist()
    null_ids = out[out["source"].isna()]["doc_id"].sort_values().tolist()
    assert a_ids == list(range(5))
    assert null_ids == list(range(8, 13))  # lowest 5 NULL-source doc_ids


def test_boilerplate_ngram_stats_flags_repeated_spans(ray_session, tmp_path):
    """Grams shared by >= min_docs distinct docs are boilerplate; a doc that
    is mostly boilerplate is dropped (2*n_boiler > n_grams).  Short and NULL
    texts have no grams and are absent, matching the SQL UNNEST."""
    d = tmp_path / "boiler"
    d.mkdir()
    banner = "accept all cookies to continue"   # 5 words -> 3 trigrams
    texts = [
        banner + " unique tail one two three four five",  # mostly original: keep
        banner + " other words entirely different here too",
        banner,                                  # pure boilerplate: drop
        banner,
        "totally original text with no repeats at all",
        "ab",                                    # < 3 words: absent
        None,                                    # NULL: absent
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = (
        analysis.boilerplate_ngram_stats(str(d), n=3, min_docs=4)
        .to_pandas()
        .set_index("doc_id")
    )
    assert sorted(out.index) == [0, 1, 2, 3, 4]  # 5 and 6 have no grams
    # the 3 banner trigrams appear in docs 0-3 (4 distinct docs) -> boilerplate
    assert out.loc[2, "n_grams"] == 3 and out.loc[2, "n_boiler"] == 3
    assert not out.loc[2, "keep"] and not out.loc[3, "keep"]
    assert out.loc[0, "keep"] and out.loc[4, "keep"]
    assert out.loc[4, "n_boiler"] == 0


def test_line_dedup_docs_removes_global_repeats(ray_session, tmp_path):
    """Non-blank lines occurring >= min_count times corpus-wide (counting
    every OCCURRENCE, so a doc repeating its own footer qualifies it) are
    removed from every doc; blank-after-trim lines never count and always
    survive; NULL text behaves like one empty line; survivor order is kept."""
    d = tmp_path / "linededup"
    d.mkdir()
    texts = [
        "keep me\ncookie banner\nalso keep",      # banner removed, order kept
        "cookie banner\nunique line here",
        "self footer\nself footer\nself footer",  # 3x in ONE doc: all removed
        "   \ncookie banner\n\t\r",               # whitespace lines survive
        "totally original\n\nanother line",       # blank line survives
        None,                                     # one empty line, untouched
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = (
        analysis.line_dedup_docs(str(d), min_count=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == 6
    # "cookie banner" occurs 3x across docs 0,1,3 -> removed everywhere
    assert out.loc[0, "clean_text"] == "keep me\nalso keep"
    assert (out.loc[0, "n_lines"], out.loc[0, "n_removed"]) == (3, 1)
    assert out.loc[1, "clean_text"] == "unique line here"
    # per-occurrence counting: doc 2's thrice-repeated footer qualifies itself
    assert out.loc[2, "clean_text"] == ""
    assert (out.loc[2, "n_lines"], out.loc[2, "n_removed"]) == (3, 3)
    # whitespace-only lines are never boilerplate even though "   " nor "\t\r"
    # would tie with banner counts if blank lines were counted
    assert out.loc[3, "clean_text"] == "   \n\t\r"
    assert out.loc[4, "clean_text"] == "totally original\n\nanother line"
    assert (out.loc[5, "n_lines"], out.loc[5, "n_removed"]) == (1, 0)
    assert out.loc[5, "clean_text"] == ""


def test_pii_scrub_organic_text(ray_session, tmp_path):
    """synth=False path: organic emails/phones/IPs in text are counted and
    replaced; PII-free and NULL text pass through untouched; a line with two
    emails counts 2 ('g'-flag replace-all semantics)."""
    d = tmp_path / "pii"
    d.mkdir()
    texts = [
        "mail me at jo.doe+spam@corp.example.com or admin@a.co today",
        "call +1-555-0199 or +44-201-9999 now",
        "server at 192.168.0.1 and 10.0.0.255",
        "no pii here at all",
        None,
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.pii_scrub(str(d), synth=False).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_emails"] == 2
    assert out.loc[0, "clean_text"] == "mail me at <EMAIL> or <EMAIL> today"
    assert out.loc[1, "n_phones"] == 2
    assert out.loc[1, "clean_text"] == "call <PHONE> or <PHONE> now"
    assert out.loc[2, "n_ips"] == 2
    assert out.loc[2, "clean_text"] == "server at <IP> and <IP>"
    assert out.loc[3, "clean_text"] == "no pii here at all"
    assert (out.loc[3, ["n_emails", "n_phones", "n_ips"]] == 0).all()
    assert out.loc[4, "clean_text"] == ""


def test_domain_stats_organic_urls(ray_session, tmp_path):
    """synth=False path: first-match domain per doc, URL-free docs dropped,
    counts grouped across docs."""
    d = tmp_path / "domains"
    d.mkdir()
    texts = [
        "read https://news.example.com/a and http://other.org/b",  # first wins
        "see http://news.example.com/path?x=1",
        "plain text no links",
        None,
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.domain_stats(str(d), synth=False).to_pandas()
    assert dict(zip(out["domain"], out["n_docs"])) == {"news.example.com": 2}


def test_sequence_pack_offsets_prefix_sum(ray_session, tmp_path):
    """Start offsets are an exact prefix sum in doc_id order regardless of
    bucket boundaries, and the boundary flag fires exactly for docs whose
    tokens cross a pack edge."""
    d = tmp_path / "pack"
    d.mkdir()
    # budget 512; tokens: 500, 10, 5, 600 -> offsets 0, 500, 510, 515
    toks = [500, 10, 5, 600]
    texts = ["w " * (t - 1) + "w" for t in toks]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 5000, 5001], pa.int64()),  # spans 2 buckets
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * 4, pa.string()),
                "source": pa.array(["s"] * 4, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = (
        analysis.sequence_pack_offsets(str(d), budget=512, bucket=4096)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["start_offset"].tolist() == [0, 500, 510, 515]
    assert out["pack_id"].tolist() == [0, 0, 0, 1]
    # doc 1 covers tokens 500-509 (inside pack 0): no straddle; doc 5000
    # covers 510-514, crossing the 512 edge -> yes; doc 5001 covers
    # 515-1114, crossing 1024 -> yes
    assert out["spans_boundary"].tolist() == [False, False, True, True]


def test_events_hopping_window_fanout_and_null_ts(ray_session, tmp_path):
    """Each event lands in exactly `hops` windows; counts per window reflect
    which events' 1-hour spans cover it; NULL ts rows are excluded."""
    import datetime as dt

    d = tmp_path / "hop"
    d.mkdir()
    T = lambda m: dt.datetime(2026, 1, 1, 10, m)
    # two clicks 30 min apart + one NULL-ts row
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3], pa.int64()),
                "ts": pa.array([T(0), T(30), None], pa.timestamp("us")),
                "user_id": pa.array([1, 1, 1], pa.int64()),
                "event_type": pa.array(["click"] * 3, pa.string()),
                "value": pa.array([1.0, 2.0, 4.0], pa.float64()),
                "props": pa.array(["{}"] * 3, pa.string()),
            }
        ),
        d / "events.parquet",
    )
    out = (
        analysis.events_hopping_window(str(d))
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    # event@10:00 -> windows 09:15..10:00; event@10:30 -> 09:45..10:30
    assert len(out) == 6  # 8 fanned rows, 2 shared windows (09:45, 10:00)
    assert out["n_events"].sum() == 8  # 2 events x 4 hops; NULL ts excluded
    both = out[out["n_events"] == 2]
    assert [str(w)[11:16] for w in both["window_start"]] == ["09:45", "10:00"]
    assert (both["value_cents"] == 300).all()


def test_events_hopping_window_null_type_and_value(ray_session, tmp_path):
    """NULL event_type forms its own group and NULL value contributes 0
    cents while still counting toward n_events — exact parity with the
    declared DuckDB oracle on a NULL-bearing fixture."""
    import datetime as dt

    import duckdb

    import __ray_entry__ as entrymod

    d = tmp_path / "hopnull"
    d.mkdir()
    T = lambda m: dt.datetime(2026, 1, 1, 10, m)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "ts": pa.array([T(0), T(0), T(0), None], pa.timestamp("us")),
                "user_id": pa.array([1] * 4, pa.int64()),
                "event_type": pa.array(["click", None, None, "click"], pa.string()),
                "value": pa.array([1.0, 2.0, None, 8.0], pa.float64()),
                "props": pa.array(["{}"] * 4, pa.string()),
            }
        ),
        d / "events.parquet",
    )
    out = (
        analysis.events_hopping_window(str(d))
        .to_pandas()
        .sort_values(["window_start", "event_type"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    odf = (
        con.sql(entrymod.oracle_sql()["events_hopping_window"])
        .df()
        .sort_values(["window_start", "event_type"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[odf.columns.tolist()], odf, check_dtype=False
    )
    # the NULL-type group carries both NULL-value (0 cents) and real rows
    nulls = out[out["event_type"].isna()]
    assert (nulls["n_events"] == 2).all() and (nulls["value_cents"] == 200).all()


def test_word_cooccurrence_pairs_match_itertools(ray_session, tmp_path):
    """The vectorized condensed-triangular-index pair expansion must emit
    exactly itertools.combinations over each doc's sorted distinct words —
    fuzzed over random docs with varied vocab sizes."""
    import itertools
    import random
    from collections import Counter

    rng = random.Random(41)
    vocab = [f"w{i:02d}" for i in range(17)]
    texts, expect = [], Counter()
    for _ in range(60):
        v = rng.randint(0, 9)
        ws = rng.sample(vocab, v)
        ws = ws + [rng.choice(ws)] * rng.randint(0, 3) if ws else ws  # repeats
        rng.shuffle(ws)
        texts.append(" ".join(ws))
        for a, b in itertools.combinations(sorted(set(ws)), 2):
            expect[(a, b)] += 1
    d = tmp_path / "cooc"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.word_cooccurrence_top100(str(d), k=10_000).to_pandas()
    got = {(r.w1, r.w2): r.n_docs for r in out.itertuples()}
    assert got == dict(expect)


def _write_docs(d, rows):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
                "source": pa.array(["s"] * len(rows), pa.string()),
                "n_chars": pa.array(
                    [len(r[1] or "") for r in rows], pa.int64()
                ),
            }
        ),
        d / "documents.parquet",
    )


def test_gopher_flags_hand_computed(ray_session, tmp_path):
    """Each rule trips on its designed offender; evidence columns are exact."""
    d = tmp_path / "gopher"
    d.mkdir()
    good = " ".join(f"word{i % 25}" for i in range(60))  # 60 words, len 5-6, top rep 3/60
    short = "only four tiny words"  # n_words 4 < 50
    spam = " ".join(["spam"] * 60)  # top word 60/60 > 20%
    longw = " ".join(["x" * 40] * 60)  # mean word len 40 > 10
    rows = [(0, good, "en"), (1, short, "en"), (2, spam, "en"), (3, longw, "en"), (4, None, "en")]
    _write_docs(d, rows)
    out = analysis.gopher_quality_flags(str(d)).to_pandas().set_index("doc_id")
    assert bool(out.loc[0, "keep"])
    assert not out.loc[1, "flag_word_count"] and out.loc[1, "n_words"] == 4
    assert not out.loc[2, "flag_top_word"] and out.loc[2, "max_word_rep"] == 60
    assert not out.loc[3, "flag_mean_word_len"]
    assert out.loc[3, "sum_word_len"] == 40 * 60
    # NULL text: one empty token (split of ''), zero length sum, fails all
    assert out.loc[4, "n_words"] == 1 and out.loc[4, "sum_word_len"] == 0
    assert not out.loc[4, "keep"]


def test_ccnet_terciles_remainder_to_tail(ray_session, tmp_path):
    """7 docs in one lang: head gets ranks 3r<=7 (2 docs), middle 3r<=14
    (2 docs), tail the remaining 3 — remainder rows fall to LATER buckets;
    a second lang buckets independently."""
    d = tmp_path / "ccnet"
    d.mkdir()
    rows = [(i, "w " * (i + 1), "en") for i in range(7)]
    rows += [(10 + i, "w " * (i + 1), "fr") for i in range(3)]
    _write_docs(d, rows)
    out = analysis.ccnet_tercile_buckets(str(d)).to_pandas()
    en = out[out["lang"] == "en"].sort_values("doc_id")["bucket"].tolist()
    assert en == ["head", "head", "middle", "middle", "tail", "tail", "tail"]
    fr = out[out["lang"] == "fr"].sort_values("doc_id")["bucket"].tolist()
    assert fr == ["head", "middle", "tail"]


def test_ccnet_tercile_ties_break_by_doc_id(ray_session, tmp_path):
    """Equal-length docs are ranked by doc_id within the tie group."""
    d = tmp_path / "ccnet_tie"
    d.mkdir()
    _write_docs(d, [(i, "same text", "en") for i in range(6)])
    out = analysis.ccnet_tercile_buckets(str(d)).to_pandas()
    got = out.sort_values("doc_id")["bucket"].tolist()
    assert got == ["head", "head", "middle", "middle", "tail", "tail"]


def test_fuzzy_dedup_keep_representative(ray_session, tiny_sf):
    """The near-dup pair (0, 1) keeps only the smallest doc_id; singletons
    keep themselves."""
    out = analysis.fuzzy_dedup_keep(tiny_sf).to_pandas().set_index("doc_id")
    assert bool(out.loc[0, "keep"]) and out.loc[0, "cluster_id"] == 0
    assert not bool(out.loc[1, "keep"]) and out.loc[1, "cluster_id"] == 0
    for i in (2, 13, 14):
        assert bool(out.loc[i, "keep"]) and out.loc[i, "cluster_id"] == i


def test_vocab_coverage_90_boundary_cases(ray_session, tmp_path):
    """Exact-90% and mid-tie-group boundaries of the closed form: a word
    covering exactly 90% of mass needs only itself; a tail of singletons is
    counted up to (not past) the threshold."""
    d = tmp_path / "vocab"
    d.mkdir()
    rows = [
        # en: 'big' x9 + 9 singletons -> total 18; rows with prefix < 16.2:
        # 'big' (prefix 0) + singletons at prefixes 9..16 -> 9 of 10 types
        (0, "big big big big big big big big big u1 u2 u3 u4 u5 u6 u7 u8 u9", "en"),
        # fr: 'top' x9 + one singleton -> total 10; 'top' alone reaches
        # exactly 90% (prefix 9 is NOT < 9) -> 1 of 2 types
        (1, "top top top top top top top top top rare", "fr"),
    ]
    _write_docs(d, rows)
    out = analysis.vocab_coverage_90(str(d)).to_pandas().set_index("lang")
    assert out.loc["en", "total_tokens"] == 18
    assert out.loc["en", "n_types"] == 10
    assert out.loc["en", "n_types_90"] == 9
    assert out.loc["fr", "total_tokens"] == 10
    assert out.loc["fr", "n_types"] == 2
    assert out.loc["fr", "n_types_90"] == 1


def test_per_lang_kernels_keep_null_lang_group(ray_session, tmp_path):
    """NULL lang is its own partition/group (SQL keeps one), not a crash:
    the Ray 2.49 sort groupby cannot order NULL string keys, so both
    per-language kernels shuffle on the (filled-key, is-null) pattern."""
    import pyarrow.parquet as pq2

    d = tmp_path / "nulllang"
    d.mkdir()
    pq2.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(["a b", "c d e", "f", "g h", "i j k l", "m"], pa.string()),
                "lang": pa.array(["en", None, "en", "", None, "en"], pa.string()),
                "source": pa.array(["s"] * 6, pa.string()),
                "n_chars": pa.array([3, 5, 1, 3, 7, 1], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    terc = analysis.ccnet_tercile_buckets(str(d)).to_pandas()
    assert len(terc) == 6
    nul = terc[terc["lang"].isna()].sort_values("doc_id")
    # NULL partition has docs 1 (5 chars) and 4 (7 chars): ranks 1, 2 of
    # n=2 -> 3*1 <= 2 false -> 'middle' is 3*1 <= 4 true; doc 4 'tail'
    assert nul["doc_id"].tolist() == [1, 4]
    assert nul["bucket"].tolist() == ["middle", "tail"]
    # "" lang is distinct from NULL lang
    assert terc[terc["lang"] == ""]["doc_id"].tolist() == [3]

    cov = analysis.vocab_coverage_90(str(d)).to_pandas()
    rows = {(None if pd.isna(r["lang"]) else r["lang"]): r for _, r in cov.iterrows()}
    # NULL lang DROPS here (unlike the tercile kernel): the oracle's final
    # `r JOIN t ON r.lang = t.lang` never matches a NULL key ("" still joins)
    assert set(rows) == {"en", ""}
    assert rows[""]["total_tokens"] == 2
    assert rows["en"]["total_tokens"] == 4  # 'a b' + 'f' + 'm'


def test_source_novelty_first_doc_attribution(ray_session, tmp_path):
    """Each distinct bigram credits the SOURCE of the smallest doc_id
    containing it; later repeats earn nothing; NULL source keeps a group."""

    d = tmp_path / "novelty"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                # doc0 (src A): 'a b', 'b c'                  -> A introduces 2
                # doc1 (src B): 'b c' (seen), 'c d' new       -> B introduces 1
                # doc2 (NULL):  'd e' new                     -> NULL introduces 1
                # doc3 (src A): 'a b' seen, 'b d' NEW, 'd e' seen -> A +1 = 3
                "text": pa.array(["a b c", "b c d", "d e", "a b d e"], pa.string()),
                "lang": pa.array(["en"] * 4, pa.string()),
                "source": pa.array(["A", "B", None, "A"], pa.string()),
                "n_chars": pa.array([5, 5, 3, 7], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )
    out = analysis.source_novelty(str(d)).to_pandas()
    got = {
        (None if pd.isna(r["source"]) else r["source"]): int(r["n_first_grams"])
        for _, r in out.iterrows()
    }
    assert got == {"A": 3, "B": 1, None: 1}


def _random_docs(seed, n_docs, langs=("en", "fr", None), sources=("A", "B", None)):
    """Seeded random corpus with empty/None text and NULL keys mixed in."""
    import random

    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(12)] + ["x" * 15, "a"]
    rows = []
    for i in range(n_docs):
        r = rng.random()
        if r < 0.05:
            text = None
        elif r < 0.10:
            text = ""
        else:
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 60)))
        rows.append(
            (i, text, rng.choice(langs), rng.choice(sources), len(text or ""))
        )
    return rows


def _write_full_docs(d, rows):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
                "source": pa.array([r[3] for r in rows], pa.string()),
                "n_chars": pa.array([r[4] for r in rows], pa.int64()),
            }
        ),
        d / "documents.parquet",
    )


def test_source_vocab_overlap_100_sources_chunked_exact(ray_session, tmp_path):
    """VERDICT r3 #3: catalogs past the 63-source int64-bitmask bound must
    be handled totally.  100 sources force the chunk-pair path; the result
    must equal a naive per-pair set computation AND the single-mask kernel
    forced onto the same data (chunking is exact, not approximate)."""
    import itertools
    import random

    rng = random.Random(606)
    d = tmp_path / "vocab100"
    d.mkdir()
    vocab = [f"w{k}" for k in range(40)]
    rows = []
    i = 0
    for s in range(100):
        for _ in range(3):
            words = rng.sample(vocab, rng.randint(1, 6))
            rows.append((i, " ".join(words), "en", f"src{s:03d}", 10))
            i += 1
    _write_full_docs(d, rows)
    got = analysis.source_vocab_overlap(str(d)).to_pandas()
    assert got.shape[0] > 0

    # naive truth
    vocabs = {}
    for _, text, _, src, _ in rows:
        vocabs.setdefault(src, set()).update(text.split(" "))
    want = []
    for a, b in itertools.combinations(sorted(vocabs), 2):
        nc = len(vocabs[a] & vocabs[b])
        if nc:
            nu = len(vocabs[a] | vocabs[b])
            want.append((a, b, nc, nu, nc / nu))
    got_t = sorted(
        (r.s1, r.s2, int(r.n_common), int(r.n_union), float(r.jaccard))
        for r in got.itertuples()
    )
    assert got_t == sorted(want)
    # duplicate-free: chunk-pair unioning must emit each pair exactly once
    assert len(got_t) == len({(a, b) for a, b, *_ in got_t})


def test_events_latest_per_user_null_shapes_match_oracle(ray_session, tmp_path):
    """NULL ts / NULL event_id / NULL user_id rows must follow the oracle's
    DESC NULLS LAST ordering and NULL-partition semantics exactly."""
    import datetime

    import duckdb

    import __ray_entry__ as entrymod

    d = tmp_path / "latest_null"
    d.mkdir()
    t0 = datetime.datetime(2024, 1, 1)
    dt = datetime.timedelta
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, None, 5, 6, 7], pa.int64()),
                "ts": pa.array(
                    [t0, t0 + dt(hours=1), None, t0 + dt(hours=1), None, t0, None],
                    pa.timestamp("us"),
                ),
                "user_id": pa.array([10, 10, 10, 10, 11, None, None], pa.int64()),
                "event_type": pa.array(list("abcdefg"), pa.string()),
                "value": pa.array([1.0] * 7, pa.float64()),
                "props": pa.array(["{}"] * 7, pa.string()),
            }
        ),
        d / "events.parquet",
    )
    got = analysis.events_latest_per_user(str(d)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = con.sql(entrymod.oracle_sql()["events_latest_per_user"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    # user 10: ties on ts+1h between eid 2 and NULL-eid -> eid 2 wins
    # (NULLS LAST); user 11's only event has NULL ts -> still emitted;
    # NULL user partition: eid 6 (real ts) beats eid 7 (NULL ts)
    by_user = {
        (None if pd.isna(r.user_id) else int(r.user_id)): r
        for r in got.itertuples()
    }
    assert int(by_user[10].event_id) == 2
    assert int(by_user[11].event_id) == 5
    assert int(by_user[None].event_id) == 6


def test_mixture_plan_caps_oversized_sources(ray_session, tmp_path):
    d = tmp_path / "mixplan"
    d.mkdir()
    rows = []
    i = 0
    # source A: 8 docs x 10 tokens; B: 1 doc x 2 tokens; NULL source ignored
    for _ in range(8):
        rows.append((i, " ".join(["w"] * 10), "en", "A", 10)); i += 1
    rows.append((i, "w w", "en", "B", 2)); i += 1
    rows.append((i, "w w w", "en", None, 3)); i += 1
    _write_full_docs(d, rows)
    out = analysis.mixture_plan(str(d)).to_pandas().set_index("source")
    assert set(out.index) == {"A", "B"}
    # total=82, share=41: A (80 toks) downsamples to 41/80; B keeps all
    assert out.loc["A", "rate"] == pytest.approx(round(41 / 80, 6))
    assert out.loc["B", "rate"] == 1.0
    assert int(out.loc["A", "n_tokens"]) == 80 and int(out.loc["B", "n_docs"]) == 1

    e = tmp_path / "mixplan_empty"
    e.mkdir()
    _write_full_docs(e, [])
    assert analysis.mixture_plan(str(e)).to_pandas().shape[0] == 0


def test_gopher_flags_match_naive_on_random_docs(ray_session, tmp_path):
    from collections import Counter

    d = tmp_path / "gopher_rand"
    d.mkdir()
    rows = _random_docs(101, 200)
    _write_full_docs(d, rows)
    out = analysis.gopher_quality_flags(str(d)).to_pandas().set_index("doc_id")
    for doc_id, text, _, _, _ in rows:
        words = (text or "").split(" ")
        c = Counter(words)
        nw, sl, mr = len(words), sum(len(w) for w in words), max(c.values())
        assert out.loc[doc_id, "n_words"] == nw
        assert out.loc[doc_id, "sum_word_len"] == sl
        assert out.loc[doc_id, "max_word_rep"] == mr
        assert out.loc[doc_id, "keep"] == (
            50 <= nw <= 100_000 and 3 * nw <= sl <= 10 * nw and 5 * mr <= nw
        )


def test_ccnet_terciles_match_naive_on_random_docs(ray_session, tmp_path):
    d = tmp_path / "ccnet_rand"
    d.mkdir()
    rows = _random_docs(202, 300)
    _write_full_docs(d, rows)
    out = analysis.ccnet_tercile_buckets(str(d)).to_pandas()
    # naive: per lang (None its own group), rank by (n_chars, doc_id)
    by_lang = {}
    for doc_id, _, lang, _, n_chars in rows:
        by_lang.setdefault(lang, []).append((n_chars, doc_id))
    expect = {}
    for lang, docs in by_lang.items():
        docs.sort()
        n = len(docs)
        for r, (_, doc_id) in enumerate(docs, start=1):
            expect[doc_id] = "head" if 3 * r <= n else ("middle" if 3 * r <= 2 * n else "tail")
    got = dict(zip(out["doc_id"], out["bucket"]))
    assert got == expect


def test_vocab_coverage_matches_naive_on_random_docs(ray_session, tmp_path):
    from collections import Counter

    d = tmp_path / "vocab_rand"
    d.mkdir()
    rows = _random_docs(303, 250)
    _write_full_docs(d, rows)
    out = analysis.vocab_coverage_90(str(d)).to_pandas()
    got = {
        (None if pd.isna(r["lang"]) else r["lang"]): (
            int(r["total_tokens"]), int(r["n_types"]), int(r["n_types_90"])
        )
        for _, r in out.iterrows()
    }
    by_lang = {}
    for _, text, lang, _, _ in rows:
        if lang is None:
            # the oracle's final `r JOIN t ON r.lang = t.lang` drops the
            # NULL-lang group; the engine mirrors that
            continue
        by_lang.setdefault(lang, Counter()).update((text or "").split(" "))
    assert None not in got
    for lang, c in by_lang.items():
        total = sum(c.values())
        counts = sorted(c.values(), reverse=True)
        prev, k90 = 0, 0
        for v in counts:
            if 10 * prev < 9 * total:
                k90 += 1
            prev += v
        assert got[lang] == (total, len(counts), k90), lang


def test_source_novelty_matches_naive_on_random_docs(ray_session, tmp_path):
    d = tmp_path / "novelty_rand"
    d.mkdir()
    rows = _random_docs(404, 250)
    _write_full_docs(d, rows)
    out = analysis.source_novelty(str(d)).to_pandas()
    got = {
        (None if pd.isna(r["source"]) else r["source"]): int(r["n_first_grams"])
        for _, r in out.iterrows()
    }
    first = {}
    for doc_id, text, _, source, _ in sorted(rows):
        words = (text or "").split(" ")
        for g in {tuple(words[i : i + 2]) for i in range(len(words) - 1)}:
            first.setdefault(g, source)
    expect = {}
    for src in first.values():
        expect[src] = expect.get(src, 0) + 1
    assert got == expect


def test_gopher_keep_rates_match_naive_on_random_docs(ray_session, tmp_path):
    """Per-language fold of the Gopher rules agrees with the per-doc table
    summed by hand, including the NULL-lang audit row."""
    from collections import Counter

    d = tmp_path / "keep_rates"
    d.mkdir()
    rows = _random_docs(505, 200)
    _write_full_docs(d, rows)
    out = analysis.gopher_keep_rates(str(d)).to_pandas()
    got = {
        (None if pd.isna(r["lang"]) else r["lang"]): (int(r["n_docs"]), int(r["n_keep"]))
        for _, r in out.iterrows()
    }
    expect = {}
    for _, text, lang, _, _ in rows:
        words = (text or "").split(" ")
        c = Counter(words)
        nw, sl, mr = len(words), sum(len(w) for w in words), max(c.values())
        keep = 50 <= nw <= 100_000 and 3 * nw <= sl <= 10 * nw and 5 * mr <= nw
        n, k = expect.get(lang, (0, 0))
        expect[lang] = (n + 1, k + int(keep))
    assert got == expect


def test_new_kernels_survive_empty_corpus(ray_session, tmp_path):
    """An empty documents/embeddings pair (the empty-partition corner of a
    partitioned run) yields 0 rows from every new kernel, never a crash."""
    d = tmp_path / "empty_sf"
    d.mkdir()
    _write_full_docs(d, [])
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
                "label": pa.array([], pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    import ray.data as rd

    for name in [
        "gopher_quality_flags", "ccnet_tercile_buckets", "fuzzy_dedup_keep",
        "vocab_coverage_90", "source_novelty", "gopher_keep_rates",
    ]:
        res = getattr(analysis, name)(str(d))
        n = res.count() if isinstance(res, rd.Dataset) else res.num_rows
        assert n == 0, name


def test_previously_crashing_queries_survive_empty_tables(ray_session, tmp_path):
    """Empty-input contract for the 12 queries() entries that crashed on a
    fully-empty scale-factor directory (argmin-of-empty query vectors,
    column-less empty aggregate frames, zero-size dense-LUT max): each now
    returns 0 rows.  documents_profile is the exception by design — its
    one-row profile reports zeros on an empty corpus."""
    import pyarrow.parquet as pqm
    import ray.data as rd
    import __ray_entry__ as entrymod

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.001")
    d = tmp_path / "empty_all"
    d.mkdir()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        pqm.write_table(
            pqm.read_schema(f"{sf}/{t}.parquet").empty_table(), d / f"{t}.parquet"
        )
    qs = entrymod.queries()
    zero_row = [
        "knn_cosine_top10", "knn_label_filtered", "knn_lsh_top10",
        "knn_ivf_top10", "knn_ivf_pruned", "knn_pq_top10",
        "global_length_rank", "length_outlier_filter", "sequence_pack_offsets",
        "customers_per_region", "revenue_by_supplier_nation",
    ]
    for name in zero_row:
        res = qs[name](str(d))
        n = res.count() if isinstance(res, rd.Dataset) else len(res)
        assert n == 0, name
    prof = qs["documents_profile"](str(d))
    assert len(prof) == 1 and int(prof["n_docs"].iloc[0]) == 0


def test_customers_per_region_drops_dangling_nationkeys(ray_session, tmp_path):
    """Inner-join semantics: customers whose c_nationkey is outside the
    nation LUT (or hits an unfilled slot) are dropped, not crashed on or
    credited to an arbitrary region."""
    from language_identification_ray.pipelines import relational

    d = tmp_path / "dangling"
    d.mkdir()
    pq.write_table(
        pa.table({"r_regionkey": pa.array([0], pa.int64()),
                  "r_name": pa.array(["R0"], pa.string())}),
        d / "region.parquet",
    )
    pq.write_table(
        pa.table({"n_nationkey": pa.array([0, 5], pa.int64()),
                  "n_regionkey": pa.array([0, 0], pa.int64()),
                  "n_name": pa.array(["N0", "N5"], pa.string())}),
        d / "nation.parquet",
    )
    pq.write_table(
        pa.table({
            # nationkey 3 is an unfilled LUT slot; 99 is out of range
            "c_nationkey": pa.array([0, 5, 3, 99], pa.int64()),
            "c_acctbal": pa.array([10.0, 20.0, 30.0, 40.0], pa.float64()),
        }),
        d / "customer.parquet",
    )
    out = relational.customers_per_region(str(d)).to_pandas()
    assert out["region"].tolist() == ["R0"]
    assert int(out["n_customers"].iloc[0]) == 2  # docs 0 and 5 only
    assert abs(float(out["total_acctbal"].iloc[0]) - 30.0) < 1e-9


def test_previously_crashing_queries_survive_all_null_columns(ray_session, tmp_path):
    """All-NULL nullable columns (text/lang/source, events ts/props/value,
    embeddings label): the 9 queries that crashed on this corpus now run.
    Semantics pinned where cheap: NULL labels never pair (SQL inner join),
    NULL-source docs sample at the oracle's ELSE rate (kept), NULL
    lang/label form their own groups."""
    import pyarrow.parquet as pqm
    import ray.data as rd
    import __ray_entry__ as entrymod

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.001")
    nullable = {"documents": ["text", "lang", "source"],
                "events": ["ts", "props", "value"],
                "embeddings": ["label"]}
    d = tmp_path / "null_all"
    d.mkdir()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        tbl = pqm.read_table(f"{sf}/{t}.parquet").slice(0, 50)
        for col in nullable.get(t, []):
            i = tbl.schema.get_field_index(col)
            tbl = tbl.set_column(i, tbl.schema.field(i),
                                 pa.nulls(tbl.num_rows, tbl.schema.field(i).type))
        pqm.write_table(tbl, d / f"{t}.parquet")
    qs = entrymod.queries()

    def rows(name):
        res = qs[name](str(d))
        if isinstance(res, rd.Dataset):
            return res.count()
        return res.num_rows if hasattr(res, "num_rows") else len(res)

    assert rows("embedding_dup_pairs") == 0   # NULL = NULL is not true
    assert rows("semantic_dedup_docs") == 50  # no pairs -> nothing dropped
    assert rows("mixture_sample") == 50       # ELSE 'ffff' keeps all
    assert rows("lang_stats_salted") == 1     # one NULL-lang group
    assert rows("label_centroids") > 0        # one NULL-label centroid set
    for name in ["dup_clusters", "fuzzy_dedup_keep", "tfidf_top5_per_lang",
                 "incremental_dedup_bloom"]:
        rows(name)  # crash-free is the contract


def test_lang_source_groupbys_survive_mixed_null_keys(ray_session, tmp_path):
    """50%-NULL lang/source/label: every kernel that groups on a nullable
    string key now shuffles on the (filled-key, is-null) pair, so mixed
    NULL and real keys no longer hit Ray 2.49's sort-groupby TypeError.
    NULL keys form their own group (SQL GROUP BY), except COUNT(DISTINCT)
    and the NOT NULL-filtered overlap, which exclude them like their
    oracles."""
    import pyarrow.compute as pcm
    import pyarrow.parquet as pqm
    import ray.data as rd
    import __ray_entry__ as entrymod

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.001")
    nullable = {"documents": ["text", "lang", "source"], "embeddings": ["label"]}
    d = tmp_path / "mixed_null"
    d.mkdir()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        tbl = pqm.read_table(f"{sf}/{t}.parquet").slice(0, 100)
        for col in nullable.get(t, []):
            i = tbl.schema.get_field_index(col)
            mask = pa.array([(j % 2) == 0 for j in range(tbl.num_rows)])
            tbl = tbl.set_column(
                i, tbl.schema.field(i),
                pcm.if_else(mask, pa.nulls(tbl.num_rows, tbl.schema.field(i).type),
                            tbl.column(i).combine_chunks()),
            )
        pqm.write_table(tbl, d / f"{t}.parquet")
    qs = entrymod.queries()

    stats = qs["lang_stats"](str(d)).to_pandas()
    assert stats["lang"].isna().sum() == 1  # the NULL-lang group row
    assert int(stats["n_docs"].sum()) == 100
    src = qs["source_stats"](str(d)).to_pandas()
    assert src["source"].isna().sum() == 1
    prof = qs["documents_profile"](str(d))
    # COUNT(DISTINCT) ignores NULLs: only the real langs/sources count
    assert int(prof["n_langs"].iloc[0]) == stats["lang"].notna().sum()
    for name in ["top_docs_per_lang", "lang_percentiles", "length_outlier_filter",
                 "distinct_words_per_lang", "distinct_words_per_lang_hll",
                 "lang_percentiles_sketch", "source_vocab_overlap"]:
        res = qs[name](str(d))
        if isinstance(res, rd.Dataset):
            res.count()  # crash-free execution is the contract


def test_tfidf_and_outlier_match_oracle_with_null_langs(ray_session, tmp_path):
    """The two confirmed NULL-lang oracle divergences, pinned: tfidf's
    n_langs excludes the NULL group (COUNT(DISTINCT lang)) while its
    per-word df counts it, and length_outlier_filter DROPS NULL-lang docs
    (JOIN USING (lang) never matches NULL)."""
    import duckdb

    d = tmp_path / "null_lang_oracle"
    d.mkdir()
    rows = [
        (0, "a b c d", "en"), (1, "a b x y", "en"),
        (2, "a q r s", "fr"), (3, "q r s t", "fr"),
        (4, "a m n o", None), (5, "m n o p q", None),
    ]
    _write_full_docs(d, [(i, t, l, "s", len(t)) for i, t, l in rows])
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    import __ray_entry__ as entrymod

    oracles = entrymod.oracle_sql()
    for name in ["tfidf_top5_per_lang", "length_outlier_filter"]:
        ray_df = entrymod.queries()[name](str(d)).to_pandas()
        sql_df = con.sql(oracles[name]).df()
        cols = sorted(ray_df.columns)
        assert cols == sorted(sql_df.columns), name
        a = ray_df.reindex(cols, axis=1).sort_values(cols).reset_index(drop=True)
        b = sql_df.reindex(cols, axis=1).sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False), name


# ---------------------------------------------------------------------------
# session-2 operators: interarrival, cross-source dup, Lloyd assignment


def _write_events(d, rows):
    """rows: (user_id, ts_or_None) tuples."""
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([t for _, t in rows], pa.timestamp("us")),
                "user_id": pa.array([u for u, _ in rows], pa.int64()),
                "event_type": pa.array(["view"] * len(rows), pa.string()),
                "value": pa.array([0.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        d / "events.parquet",
    )


def test_interarrival_matches_naive_on_random_events(ray_session, tmp_path):
    import datetime as dt
    import random

    rng = random.Random(404)
    d = tmp_path / "gaps_rand"
    d.mkdir()
    base = dt.datetime(2026, 3, 1)
    rows = []
    for _ in range(400):
        u = rng.randint(1, 12)
        # NULL ts mixed in; duplicate timestamps too (tie order irrelevant)
        t = None if rng.random() < 0.06 else base + dt.timedelta(
            seconds=rng.randint(0, 80000)
        )
        rows.append((u, t))
    _write_events(d, rows)
    out = analysis.events_user_interarrival(str(d)).to_pandas().set_index("user_id")

    per_user = {}
    for u, t in rows:
        if t is not None:
            per_user.setdefault(u, []).append(t)
    n_checked = 0
    for u, ts in per_user.items():
        ts.sort()
        gaps = sorted(
            int((b - a).total_seconds() * 1_000_000) for a, b in zip(ts, ts[1:])
        )
        if not gaps:
            assert u not in out.index
            continue
        n_checked += 1
        assert out.loc[u, "n_gaps"] == len(gaps)
        assert out.loc[u, "max_gap_us"] == gaps[-1]
        x = (len(gaps) - 1) * 0.5
        lo, frac = int(x), x - int(x)
        hi = min(lo + 1, len(gaps) - 1)
        expect_med = float(gaps[lo]) * (1.0 - frac) + float(gaps[hi]) * frac
        assert out.loc[u, "median_gap_us"] == expect_med
    assert n_checked >= 10  # the corpus really exercised the kernel
    assert len(out) == n_checked


def test_interarrival_empty_and_single_event(ray_session, tmp_path):
    import datetime as dt

    d = tmp_path / "gaps_edge"
    d.mkdir()
    # user 1: one real event (no gaps); user 2: only NULL ts; user 3: two events
    t0 = dt.datetime(2026, 3, 1)
    _write_events(d, [(1, t0), (2, None), (3, t0), (3, t0 + dt.timedelta(seconds=5))])
    out = analysis.events_user_interarrival(str(d)).to_pandas().set_index("user_id")
    assert list(out.index) == [3]
    assert out.loc[3, "n_gaps"] == 1 and out.loc[3, "max_gap_us"] == 5_000_000

    e = tmp_path / "gaps_empty"
    e.mkdir()
    _write_events(e, [])
    assert analysis.events_user_interarrival(str(e)).to_pandas().shape[0] == 0


def test_cross_source_dup_matches_naive_on_random_docs(ray_session, tmp_path):
    d = tmp_path / "xsrc_rand"
    d.mkdir()
    rows = _random_docs(505, 250)
    # force known cross-source and same-source dup prefixes (short texts
    # share their whole string as the 40-char prefix)
    nxt = len(rows)
    rows += [
        (nxt, "shared prefix text", "en", "A", 18),
        (nxt + 1, "shared prefix text", "fr", "B", 18),
        (nxt + 2, "same source twin", "en", "A", 16),
        (nxt + 3, "same source twin", "en", "A", 16),
        (nxt + 4, "null source twin", "en", None, 16),
        (nxt + 5, "null source twin", "en", "B", 16),
    ]
    _write_full_docs(d, rows)
    out = analysis.cross_source_dup_stats(str(d)).to_pandas()
    got = {
        (None if pd.isna(r["source"]) else r["source"]): (
            int(r["n_docs"]), int(r["n_cross_docs"])
        )
        for _, r in out.iterrows()
    }

    from collections import defaultdict

    fp_sources = defaultdict(set)
    per_doc = []
    for _, text, _, source, _ in rows:
        fp = (text or "")[:40]
        fp_sources[fp].add(source)  # None is its own source
        per_doc.append((fp, source))
    expect = defaultdict(lambda: [0, 0])
    for fp, source in per_doc:
        expect[source][0] += 1
        if len(fp_sources[fp]) > 1:
            expect[source][1] += 1
    assert got == {s: tuple(v) for s, v in expect.items()}
    # the forced rows actually hit: cross for A/B/None, not for the A-twins
    assert got["A"][1] >= 1 and got["B"][1] >= 2 and got[None][1] >= 1


def test_cross_source_dup_empty(ray_session, tmp_path):
    d = tmp_path / "xsrc_empty"
    d.mkdir()
    _write_full_docs(d, [])
    assert analysis.cross_source_dup_stats(str(d)).to_pandas().shape[0] == 0


def test_kmeans_assign_matches_naive(ray_session, tmp_path):
    import numpy as np

    rng = np.random.default_rng(606)
    d = tmp_path / "kmeans_rand"
    d.mkdir()
    n, dim, k = 300, 16, 8
    X = rng.normal(size=(n, dim)).astype(np.float32)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in X], pa.list_(pa.float32())),
                "label": pa.array([0] * n, pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    out = analysis.kmeans_assign(str(d), k=k).to_pandas().set_index("vec_id")
    C = X[:k].astype(np.float64)
    Xd = X.astype(np.float64)
    for i in range(n):
        d2 = ((Xd[i][None, :] - C) ** 2).sum(axis=1)
        cid = int(np.argmin(d2))  # first index wins ties = smallest cid
        assert out.loc[i, "cid"] == cid
        assert out.loc[i, "dist"] == round(float(np.sqrt(d2[cid])), 4)
    # every centroid assigns to itself at distance 0
    for c in range(k):
        assert out.loc[c, "cid"] == c and out.loc[c, "dist"] == 0.0


def test_kmeans_assign_empty(ray_session, tmp_path):
    d = tmp_path / "kmeans_empty"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
                "label": pa.array([], pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    assert analysis.kmeans_assign(str(d)).to_pandas().shape[0] == 0


def test_source_unigram_kl_matches_naive(ray_session, tmp_path):
    import math
    from collections import Counter, defaultdict

    d = tmp_path / "kl_rand"
    d.mkdir()
    rows = _random_docs(707, 220)
    _write_full_docs(d, rows)
    out = analysis.source_unigram_kl(str(d)).to_pandas()
    got = {(r["s1"], r["s2"]): r["kl"] for _, r in out.iterrows()}

    counts = defaultdict(Counter)
    vocab = set()
    for _, text, _, source, _ in rows:
        if source is None:
            continue
        words = (text or "").split(" ")
        counts[source].update(words)
        vocab.update(words)
    V = len(vocab)
    names = sorted(counts)
    expect = {}
    for a in names:
        na = sum(counts[a].values())
        for b in names:
            if a == b:
                continue
            nb = sum(counts[b].values())
            kl = 0.0
            for w in vocab:
                p = (counts[a][w] + 1) / (na + V)
                q = (counts[b][w] + 1) / (nb + V)
                kl += p * math.log(p / q)
            expect[(a, b)] = kl
    assert set(got) == set(expect)
    for pair in expect:
        # the kernel reports round(kl, 6); allow the half-step plus float dust
        assert abs(got[pair] - expect[pair]) <= 5e-7 + 1e-12, pair
    # sanity: the divergence is positive somewhere (sources really differ)
    assert max(expect.values()) > 0


def test_source_unigram_kl_degenerate_catalogs(ray_session, tmp_path):
    d = tmp_path / "kl_one"
    d.mkdir()
    _write_full_docs(d, [(0, "a b c", "en", "A", 5), (1, "a b", "en", "A", 3)])
    assert analysis.source_unigram_kl(str(d)).num_rows == 0  # one source

    e = tmp_path / "kl_null"
    e.mkdir()
    _write_full_docs(e, [(0, "a b", "en", None, 3)])
    assert analysis.source_unigram_kl(str(e)).num_rows == 0  # all-NULL sources

    f = tmp_path / "kl_empty"
    f.mkdir()
    _write_full_docs(f, [])
    assert analysis.source_unigram_kl(str(f)).num_rows == 0


def test_stratified_sample_matches_naive(ray_session, tmp_path):
    d = tmp_path / "strat_rand"
    d.mkdir()
    rows = _random_docs(808, 260)
    _write_full_docs(d, rows)
    B, K = 10, 5
    out = analysis.stratified_sample(str(d), n_buckets=B, k=K).to_pandas()
    got = {
        int(r["doc_id"]): (
            None if pd.isna(r["lang"]) else r["lang"],
            int(r["bucket"]),
            int(r["pick"]),
        )
        for _, r in out.iterrows()
    }

    from collections import defaultdict

    by_lang = defaultdict(list)
    for doc_id, _, lang, _, n_chars in rows:
        by_lang[lang].append((n_chars, doc_id))
    expect = {}
    for lang, docs in by_lang.items():
        docs.sort()
        n = len(docs)
        q, big = n // B, n % B
        buckets = defaultdict(list)
        for r, (_, doc_id) in enumerate(docs, start=1):
            if r <= big * (q + 1):
                b = (r - 1) // (q + 1) + 1
            else:
                b = big + (r - big * (q + 1) - 1) // max(q, 1) + 1
            buckets[b].append(doc_id)
        for b, ids in buckets.items():
            ids.sort(key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
            for pick, doc_id in enumerate(ids[:K], start=1):
                expect[doc_id] = (lang, b, pick)
    assert got == expect
    # every (lang, bucket) carved at most K and buckets span 1..B
    assert out["pick"].max() <= K and out["bucket"].between(1, B).all()


def test_stratified_sample_empty_and_tiny(ray_session, tmp_path):
    d = tmp_path / "strat_empty"
    d.mkdir()
    _write_full_docs(d, [])
    assert analysis.stratified_sample(str(d)).to_pandas().shape[0] == 0

    e = tmp_path / "strat_tiny"
    e.mkdir()
    # 3 docs, 10 buckets: ntile gives each its own bucket 1..3, all picked
    _write_full_docs(e, [(i, f"doc {i}", "en", "A", 10 + i) for i in range(3)])
    out = analysis.stratified_sample(str(e)).to_pandas()
    assert sorted(out["bucket"]) == [1, 2, 3] and (out["pick"] == 1).all()


def test_stratified_sample_null_n_chars_matches_oracle(ray_session, tmp_path):
    """NULL n_chars rows must not raise and must land where the oracle's
    ntile ORDER BY n_chars puts them: last within their lang partition
    (ADVICE r3: the histogram keyed raw n_chars and int(None) blew up)."""
    import random

    import duckdb

    import __ray_entry__ as entrymod

    rng = random.Random(777)
    d = tmp_path / "strat_nullnch"
    d.mkdir()
    rows = []
    for i in range(120):
        lang = rng.choice(["en", "de", None])
        nc = None if rng.random() < 0.2 else rng.randint(0, 300)
        rows.append((i, "t", lang, "A", nc))
    _write_full_docs(d, rows)
    got = analysis.stratified_sample(str(d)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    want = con.sql(entrymod.oracle_sql()["stratified_sample"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)


def test_word_entropy_matches_naive(ray_session, tmp_path):
    import math
    from collections import Counter

    d = tmp_path / "entropy_rand"
    d.mkdir()
    rows = _random_docs(909, 200)
    _write_full_docs(d, rows)
    out = analysis.word_entropy(str(d)).to_pandas().set_index("doc_id")
    for doc_id, text, _, _, _ in rows:
        words = (text or "").split(" ")
        c = Counter(words)
        n = len(words)
        h = -sum((v / n) * math.log(v / n) for v in c.values())
        assert out.loc[doc_id, "n_words"] == n
        assert out.loc[doc_id, "n_types"] == len(c)
        got = out.loc[doc_id, "entropy"]
        assert abs(got - h) <= 5e-7 + 1e-12, doc_id
        # single-type docs (incl. empty/None text) are exactly +0.0
        if len(c) == 1:
            assert got == 0.0 and not str(got).startswith("-")


def test_word_entropy_empty_table(ray_session, tmp_path):
    d = tmp_path / "entropy_empty"
    d.mkdir()
    _write_full_docs(d, [])
    assert analysis.word_entropy(str(d)).to_pandas().shape[0] == 0


def test_dsir_weights_match_naive(ray_session, tmp_path):
    import math
    from collections import Counter

    d = tmp_path / "dsir_rand"
    d.mkdir()
    rows = _random_docs(1010, 200)
    _write_full_docs(d, rows)
    B = 4096
    out = analysis.dsir_importance_weights(str(d), n_buckets=B).to_pandas().set_index(
        "doc_id"
    )

    def bucket(w):
        return int.from_bytes(hashlib.md5(w.encode()).digest()[8:], "little") % B

    sources = [s for _, _, _, s, _ in rows if s is not None]
    target = min(sources)
    c_t, c_r = Counter(), Counter()
    for _, text, _, source, _ in rows:
        for w in (text or "").split(" "):
            b = bucket(w)
            c_r[b] += 1
            if source == target:
                c_t[b] += 1
    n_t, n_r = sum(c_t.values()), sum(c_r.values())
    for doc_id, text, _, _, _ in rows:
        words = (text or "").split(" ")
        logw = sum(
            math.log((c_t[bucket(w)] + 1) / (n_t + B))
            - math.log((c_r[bucket(w)] + 1) / (n_r + B))
            for w in words
        )
        assert out.loc[doc_id, "n_tokens"] == len(words)
        assert abs(out.loc[doc_id, "logw"] - logw) <= 5e-7 + 1e-12, doc_id


def test_dsir_weights_rank_target_like_docs_higher(ray_session, tmp_path):
    # a corpus where the target source ('A', lexicographically first) has a
    # DISTINCTIVE vocabulary: a doc written in that vocabulary must outscore
    # an equal-length doc written in the background vocabulary
    d = tmp_path / "dsir_rank"
    d.mkdir()
    rows = []
    i = 0
    for _ in range(20):
        rows.append((i, "gene protein enzyme rna dna fold", "en", "A", 30)); i += 1
    for _ in range(60):
        rows.append((i, "game score team player goal win", "en", "B", 30)); i += 1
    rows.append((i, "gene protein enzyme rna dna fold", "en", "B", 30)); probe_t = i; i += 1
    rows.append((i, "game score team player goal win", "en", "B", 30)); probe_b = i; i += 1
    _write_full_docs(d, rows)
    out = analysis.dsir_importance_weights(str(d)).to_pandas().set_index("doc_id")
    assert out.loc[probe_t, "logw"] > out.loc[probe_b, "logw"]


def test_dsir_weights_degenerate(ray_session, tmp_path):
    d = tmp_path / "dsir_null"
    d.mkdir()
    # all-NULL sources: target is undefined -> n_t = 0, weights still finite
    _write_full_docs(d, [(0, "a b c", "en", None, 5), (1, "a b", "en", None, 3)])
    out = analysis.dsir_importance_weights(str(d)).to_pandas()
    assert len(out) == 2 and out["logw"].notna().all()

    e = tmp_path / "dsir_empty"
    e.mkdir()
    _write_full_docs(e, [])
    assert analysis.dsir_importance_weights(str(e)).to_pandas().shape[0] == 0


def test_retention_cohorts_match_naive(ray_session, tmp_path):
    import datetime as dt
    import random
    from collections import defaultdict

    rng = random.Random(1111)
    d = tmp_path / "cohort_rand"
    d.mkdir()
    base = dt.datetime(2026, 2, 2)  # a Monday
    rows = []
    for _ in range(500):
        u = rng.randint(1, 25)
        t = None if rng.random() < 0.05 else base + dt.timedelta(
            days=rng.randint(0, 70), seconds=rng.randint(0, 86399)
        )
        rows.append((u, t))
    _write_events(d, rows)
    out = analysis.events_retention_cohorts(str(d)).to_pandas()
    got = {
        (r["cohort_week"].to_pydatetime(), int(r["week_offset"])): int(r["n_users"])
        for _, r in out.iterrows()
    }

    def monday(t):
        return dt.datetime(t.year, t.month, t.day) - dt.timedelta(days=t.weekday())

    weeks = defaultdict(set)
    for u, t in rows:
        if t is not None:
            weeks[u].add(monday(t))
    expect = defaultdict(int)
    for u, ws in weeks.items():
        cw = min(ws)
        for w in ws:
            expect[(cw, (w - cw).days // 7)] += 1
    assert got == dict(expect)
    # cohort diagonal: offset 0 exists for every cohort
    assert all((cw, 0) in got for cw, _ in got)


def test_retention_cohorts_empty_and_all_null_ts(ray_session, tmp_path):
    d = tmp_path / "cohort_empty"
    d.mkdir()
    _write_events(d, [])
    assert analysis.events_retention_cohorts(str(d)).to_pandas().shape[0] == 0

    e = tmp_path / "cohort_nullts"
    e.mkdir()
    _write_events(e, [(1, None), (2, None)])
    assert analysis.events_retention_cohorts(str(e)).to_pandas().shape[0] == 0


def test_session2_kernels_survive_adversarial_shapes(ray_session, tmp_path):
    """The engine-wide hardening contract, applied to the eight restart-
    session kernels: empty tables, one-row tables, all-NULL nullable
    columns, and mixed-NULL keys must produce rows, never raise."""
    import datetime as dt

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    new = [
        "events_user_interarrival", "cross_source_dup_stats", "kmeans_assign",
        "source_unigram_kl", "stratified_sample", "word_entropy",
        "dsir_importance_weights", "events_retention_cohorts",
    ]
    t0 = dt.datetime(2026, 1, 5)
    shapes = {
        "empty": ([], [], []),
        "one_row": ([(0, "a b", "en", "A", 3)], [(0, [1.0, 0.0], 0)], [(1, t0)]),
        "all_null": (
            [(0, None, None, None, 0), (1, None, None, None, 0)],
            [(0, [0.0, 0.0], 0)],
            [(1, None), (2, None)],
        ),
        "mixed_null": (
            [(0, "a b", None, "A", 3), (1, "", "en", None, 0),
             (2, None, "fr", "B", 0), (3, "a a", "en", "A", 3)],
            [(0, [1.0, 0.0], 0), (1, [0.0, 1.0], 0)],
            [(1, t0), (1, None), (2, t0), (2, t0 + dt.timedelta(hours=1))],
        ),
    }
    for sh, (dr, er, vr) in shapes.items():
        d = tmp_path / f"sweep_{sh}"
        d.mkdir()
        _write_full_docs(d, dr)
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([r[0] for r in er], pa.int64()),
                    "embedding": pa.array([r[1] for r in er], pa.list_(pa.float32())),
                    "label": pa.array([r[2] for r in er], pa.int32()),
                }
            ),
            d / "embeddings.parquet",
        )
        _write_events(d, vr)
        for name in new:
            r = qs[name](str(d))
            n = len(r) if isinstance(r, (pd.DataFrame, pa.Table)) else r.count()
            assert n >= 0, (sh, name)


def test_substring_dup_pairs_matches_naive(ray_session, tmp_path):
    import random
    from collections import defaultdict

    rng = random.Random(1212)
    d = tmp_path / "substr_rand"
    d.mkdir()
    L = 40
    vocab = [f"w{i}" for i in range(30)]
    quote = "the quick brown fox jumps over the lazy dog again and again tonight"
    rows = []
    for i in range(60):
        body = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 40)))
        if i % 7 == 0:  # plant a shared passage inside otherwise-unique docs
            body = body + " " + quote + " " + " ".join(
                rng.choice(vocab) for _ in range(5)
            )
        rows.append((i, body, "en", "A", len(body)))
    rows.append((60, None, "en", "A", 0))
    rows.append((61, "short", "en", "A", 5))
    _write_full_docs(d, rows)
    out = analysis.substring_dup_pairs(str(d), L=L).to_pandas()
    got = {
        (int(r["doc_a"]), int(r["doc_b"])): int(r["n_shared"])
        for _, r in out.iterrows()
    }

    gram_docs = defaultdict(set)
    for doc_id, text, _, _, _ in rows:
        t = text or ""
        for g in {t[i : i + L] for i in range(len(t) - L + 1)}:
            gram_docs[g].add(doc_id)
    expect = defaultdict(int)
    for g, ds in gram_docs.items():
        ds = sorted(ds)
        for x in range(len(ds)):
            for y in range(x + 1, len(ds)):
                expect[(ds[x], ds[y])] += 1
    assert got == dict(expect)
    # the planted passage really connects the quote-carrying docs
    quote_docs = [i for i in range(60) if i % 7 == 0]
    assert got[(quote_docs[0], quote_docs[1])] >= len(quote) - L + 1


def test_substring_dup_pairs_empty_and_short(ray_session, tmp_path):
    d = tmp_path / "substr_empty"
    d.mkdir()
    _write_full_docs(d, [])
    assert analysis.substring_dup_pairs(str(d)).to_pandas().shape[0] == 0

    e = tmp_path / "substr_short"
    e.mkdir()
    _write_full_docs(e, [(0, "too short", "en", "A", 9), (1, None, None, None, 0)])
    assert analysis.substring_dup_pairs(str(e)).to_pandas().shape[0] == 0


def test_bm25_matches_naive(ray_session, tmp_path):
    import math
    from collections import Counter

    d = tmp_path / "bm25_rand"
    d.mkdir()
    rows = _random_docs(1313, 220)
    _write_full_docs(d, rows)
    Q = ["w1", "w3", "a"]
    out = analysis.bm25_topk(str(d), query=" ".join(Q), k=50).to_pandas()

    docs = {i: (t or "").split(" ") for i, t, _, _, _ in rows}
    N = len(docs)
    avgdl = sum(len(w) for w in docs.values()) / N
    df = {q: sum(1 for w in docs.values() if q in w) for q in Q}
    idf = {q: math.log((N - df[q] + 0.5) / (df[q] + 0.5) + 1.0) for q in Q}
    scores = {}
    for i, w in docs.items():
        c = Counter(w)
        s = sum(
            idf[q] * c[q] * 2.2 / (c[q] + 1.2 * (1 - 0.75 + 0.75 * len(w) / avgdl))
            for q in Q
            if c[q]
        )
        if s > 0:
            scores[i] = round(s, 6)
    expect = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    got = list(zip(out["doc_id"].astype(int), out["score"]))
    assert got == expect


def test_bm25_no_hits_and_empty(ray_session, tmp_path):
    d = tmp_path / "bm25_nohit"
    d.mkdir()
    _write_full_docs(d, [(0, "a b c", "en", "A", 5), (1, None, None, None, 0)])
    assert analysis.bm25_topk(str(d), query="zzz qqq").to_pandas().shape[0] == 0

    e = tmp_path / "bm25_empty"
    e.mkdir()
    _write_full_docs(e, [])
    assert analysis.bm25_topk(str(e)).to_pandas().shape[0] == 0


def test_substring_dup_pairs_flood_cap_matches_oracle(ray_session, tmp_path):
    """The max_gram_docs=64 flood guard is part of the declared contract:
    on a corpus where a 40-char passage appears in >64 documents, BOTH the
    engine and the committed oracle SQL must drop that gram's pairs (the
    round-3 review found the oracle previously emitted 2415 pairs where
    the engine emitted 210)."""
    import duckdb

    import __ray_entry__ as entrymod

    d = tmp_path / "substr_flood"
    d.mkdir()
    shared = "X" * 45  # one 45-char passage -> six distinct 40-grams, all flooded
    rows = []
    for i in range(70):  # 70 > max_gram_docs=64
        rows.append((i, f"doc{i:03d} {shared}", "en", "A", 50))
    # a small pair that must SURVIVE the cap
    rows.append((100, "Y" * 45 + " unique tail one", "en", "A", 60))
    rows.append((101, "Y" * 45 + " unique tail two", "en", "A", 60))
    _write_full_docs(d, rows)

    out = analysis.substring_dup_pairs(str(d)).to_pandas()
    got = {
        (int(r["doc_a"]), int(r["doc_b"])): int(r["n_shared"])
        for _, r in out.iterrows()
    }
    # docs 100/101 share the Y-passage plus " unique tail " prefix region:
    # one pure Y*40 gram + 13 grams straddling into the common tail = 14
    assert got[(100, 101)] == 14
    # the X-passage grams (70 docs each) are flooded and dropped on BOTH
    # engines; what survives among docs 0..69 is only the one "d " + X*38
    # gram per last-digit group (7 docs each, n_shared=1): C(7,2)*10 pairs.
    # Without the cap this corpus would emit all C(70,2)=2415 passage pairs.
    assert len(got) == 10 * 21 + 1
    assert all(n == 1 for p, n in got.items() if p != (100, 101))

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    sql = con.sql(entrymod.oracle_sql()["substring_dup_pairs"]).df()
    oracle = {
        (int(r["doc_a"]), int(r["doc_b"])): int(r["n_shared"])
        for _, r in sql.iterrows()
    }
    assert oracle == got


def test_retention_cohorts_extreme_user_ids(ray_session, tmp_path):
    """64-bit-hash user ids (>= 2**43), negative ids, and NULL ids must not
    corrupt cohorts: the (user, week) distinct is lexsort-based, not
    bit-packed, and NULL users drop like the oracle's JOIN USING."""
    import datetime as dt

    import duckdb

    import __ray_entry__ as entrymod

    d = tmp_path / "cohort_extreme"
    d.mkdir()
    t0 = dt.datetime(2026, 1, 5)  # a Monday
    w = dt.timedelta(days=7)
    big1, big2 = (1 << 62) + 12345, (1 << 62) + 12346  # adjacent huge ids
    rows = [
        (big1, t0), (big1, t0 + w), (big1, t0 + 3 * w),
        (big2, t0 + w), (big2, t0 + 2 * w),
        (-77, t0), (-77, t0 + w),
        (None, t0), (None, t0 + w),  # NULL user: dropped on both engines
        (3, t0 + 2 * w),
    ]
    _write_events(d, rows)
    out = analysis.events_retention_cohorts(str(d)).to_pandas()
    got = {
        (r["cohort_week"].to_pydatetime(), int(r["week_offset"])): int(r["n_users"])
        for _, r in out.iterrows()
    }
    expect = {
        (t0, 0): 2,           # big1 and -77 cohort at t0
        (t0, 1): 2,           # both active the next week
        (t0, 3): 1,           # big1 three weeks later
        (t0 + w, 0): 1,       # big2 cohort
        (t0 + w, 1): 1,
        (t0 + 2 * w, 0): 1,   # user 3
    }
    assert got == expect

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    sql = con.sql(entrymod.oracle_sql()["events_retention_cohorts"]).df()
    oracle = {
        (r["cohort_week"].to_pydatetime(), int(r["week_offset"])): int(r["n_users"])
        for _, r in sql.iterrows()
    }
    assert oracle == got


def test_user_cumulative_spend_null_semantics(ray_session, tmp_path):
    """NULL users form one partition, NULL timestamps sort LAST, NULL
    values don't advance the sum and an all-NULL prefix is NULL — all
    compared against the committed window-function oracle, plus extreme
    (negative / 2**62) user ids through the lexsort bucket path."""
    import datetime as dt

    import duckdb

    import __ray_entry__ as entrymod

    d = tmp_path / "cum_spend"
    d.mkdir()
    t0 = dt.datetime(2026, 3, 2)
    h = dt.timedelta(hours=1)
    rows = [
        # (event_id, user_id, ts, value)
        (1, 5, t0, 1.005),          # 1.005*100 = 100.4999... -> 100 cents
                                    # (binary 1.005 is slightly below; both
                                    # engines share the float, so both floor
                                    # to 1.00 — the cents contract is about
                                    # cross-engine identity, not decimals)
        (2, 5, t0 + h, None),       # NULL value: sum stays 1.01
        (3, 5, None, 2.0),          # NULL ts: sorts LAST for user 5
        (4, 5, t0 + 2 * h, 0.99),
        (5, None, t0, 3.0),         # NULL users: one partition
        (6, None, t0 + h, 4.0),
        (7, -9, t0, None),          # all-NULL prefix -> NULL cum
        (8, -9, t0 + h, 1.0),
        (9, (1 << 62) + 7, t0, 2.5),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array(["view"] * len(rows), pa.string()),
                "value": pa.array([r[3] for r in rows], pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        d / "events.parquet",
    )
    out = (
        analysis.user_cumulative_spend(str(d))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    by_eid = dict(zip(out["event_id"], out["cum_spend"]))
    assert by_eid[1] == pytest.approx(1.00)
    assert by_eid[2] == pytest.approx(1.00)   # NULL value: no advance
    assert by_eid[4] == pytest.approx(1.99)   # 1.00 + 0.99 (ts order)
    assert by_eid[3] == pytest.approx(3.99)   # NULL ts LAST: + 2.0
    assert by_eid[5] == pytest.approx(3.0) and by_eid[6] == pytest.approx(7.0)
    assert pd.isna(by_eid[7]) and by_eid[8] == pytest.approx(1.0)
    assert by_eid[9] == pytest.approx(2.5)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = (
        con.sql(entrymod.oracle_sql()["user_cumulative_spend"])
        .df()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[["event_id", "cum_spend"]],
        want[["event_id", "cum_spend"]],
        check_dtype=False,
    )


def test_pmi_top100_matches_naive(ray_session, tmp_path):
    """Random small-vocab corpus (plus NULL and empty docs): the engine's
    bucket-join PMI must equal a from-scratch Counter computation."""
    import math
    import random
    from collections import Counter

    rng = random.Random(4242)
    d = tmp_path / "pmi_rand"
    d.mkdir()
    vocab = [f"w{i}" for i in range(12)]
    rows = []
    for i in range(120):
        body = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 30)))
        rows.append((i, body, "en", "A", len(body)))
    rows.append((200, None, None, None, 0))
    rows.append((201, "", "en", "A", 0))
    _write_full_docs(d, rows)

    out = analysis.pmi_top100(str(d), min_count=5, k=100).to_pandas()

    uni: Counter = Counter()
    bg: Counter = Counter()
    for _, t, _, _, _ in rows:
        if t is None:
            continue
        ws = t.split(" ")
        uni.update(ws)
        bg.update(zip(ws, ws[1:]))
    T = float(sum(uni.values()))
    B = float(sum(bg.values()))
    scored = {}
    for (a, b), c2 in bg.items():
        if c2 >= 5:
            scored[(a, b)] = round(math.log(c2 * T * T / (B * uni[a] * uni[b])), 6)
    expect = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    got = [
        ((r["w1"], r["w2"]), r["pmi"])
        for _, r in out.iterrows()
    ]
    assert [g[0] for g in got] == [e[0] for e in expect]
    for (pair_g, v_g), (_, v_e) in zip(got, expect):
        assert v_g == pytest.approx(v_e, abs=1e-9), pair_g


def test_pmi_and_cum_spend_survive_empty(ray_session, tmp_path):
    d = tmp_path / "pmi_empty"
    d.mkdir()
    _write_full_docs(d, [])
    _write_events(d, [])
    assert analysis.pmi_top100(str(d)).to_pandas().shape[0] == 0
    assert analysis.user_cumulative_spend(str(d)).to_pandas().shape[0] == 0


def test_containment_dup_pairs_matches_naive(ray_session, tmp_path):
    """Planted subset-duplicate: a short doc quoted whole inside a much
    longer one has containment 1.0 but low Jaccard — the case this op
    exists for.  Engine vs from-scratch set computation on a random
    corpus, plus the committed oracle."""
    import random
    from collections import defaultdict

    import duckdb

    import __ray_entry__ as entrymod

    rng = random.Random(777)
    d = tmp_path / "containment"
    d.mkdir()
    vocab = [f"t{i}" for i in range(400)]
    quote = " ".join(f"q{i}" for i in range(12))  # 12 tokens -> 8 5-grams
    rows = []
    for i in range(40):
        body = " ".join(rng.choice(vocab) for _ in range(rng.randint(6, 60)))
        rows.append((i, body, "en", "A", len(body)))
    rows.append((100, quote, "en", "A", len(quote)))           # the short doc
    rows.append((101, rows[3][1] + " " + quote, "en", "A", 0))  # quote embedded
    rows.append((102, None, None, None, 0))
    _write_full_docs(d, rows)

    out = analysis.containment_dup_pairs(str(d)).to_pandas()
    got = {
        (int(r["doc_a"]), int(r["doc_b"])): (
            int(r["n_shared"]), int(r["c_a"]), int(r["c_b"]), float(r["containment"])
        )
        for _, r in out.iterrows()
    }

    # naive
    shingles = {}
    for doc_id, t, *_ in rows:
        if t is None:
            continue
        ws = t.split(" ")
        shingles[doc_id] = {
            " ".join(ws[i : i + 5]) for i in range(len(ws) - 4)
        }
    gram_docs = defaultdict(set)
    for doc_id, s in shingles.items():
        for g in s:
            gram_docs[g].add(doc_id)
    shared = defaultdict(int)
    for g, ds in gram_docs.items():
        if len(ds) > 64:
            continue
        ds = sorted(ds)
        for x in range(len(ds)):
            for y in range(x + 1, len(ds)):
                shared[(ds[x], ds[y])] += 1
    expect = {}
    for (a, b), ns in shared.items():
        ca, cb = len(shingles[a]), len(shingles[b])
        ratio = ns / min(ca, cb)
        if ratio >= 0.5:
            expect[(a, b)] = (ns, ca, cb, round(ratio, 6))
    assert got == expect
    # the planted subset-dup survives with containment 1.0
    assert got[(100, 101)][3] == 1.0

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    sql = con.sql(entrymod.oracle_sql()["containment_dup_pairs"]).df()
    oracle = {
        (int(r["doc_a"]), int(r["doc_b"])): (
            int(r["n_shared"]), int(r["c_a"]), int(r["c_b"]), float(r["containment"])
        )
        for _, r in sql.iterrows()
    }
    assert oracle == got


def test_containment_dup_pairs_empty_and_short(ray_session, tmp_path):
    d = tmp_path / "containment_empty"
    d.mkdir()
    _write_full_docs(d, [])
    assert analysis.containment_dup_pairs(str(d)).to_pandas().shape[0] == 0
    e = tmp_path / "containment_short"
    e.mkdir()
    _write_full_docs(e, [(0, "a b c", "en", "A", 5), (1, None, None, None, 0)])
    assert analysis.containment_dup_pairs(str(e)).to_pandas().shape[0] == 0


def _write_events_full(d, rows):
    """rows: (event_id, user_id_or_None, ts_or_None, type_or_None,
    value_or_None) — the full adversarial surface for the event kernels."""
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
                "value": pa.array([r[4] for r in rows], pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        d / "events.parquet",
    )


def test_event_transitions_match_oracle_on_adversarial_random(ray_session, tmp_path):
    """Random events with NULL users / ts / types, duplicate timestamps —
    the Ray kernel must stay hash-identical to the SQL window oracle."""
    import datetime as dt
    import random

    import duckdb

    import __ray_entry__ as entrymod

    rng = random.Random(777)
    d = tmp_path / "trans_rand"
    d.mkdir()
    base = dt.datetime(2026, 4, 1)
    types = ["view", "click", "buy", None]
    rows = []
    for i in range(600):
        u = None if rng.random() < 0.06 else rng.randint(1, 15)
        t = None if rng.random() < 0.06 else base + dt.timedelta(
            seconds=rng.randint(0, 5000)  # dense: duplicate ts guaranteed
        )
        rows.append((i, u, t, rng.choice(types), rng.random() * 10))
    _write_events_full(d, rows)
    got = analysis.event_type_transitions(str(d)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = con.sql(entrymod.oracle_sql()["event_type_transitions"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    # NULL types are real Markov states, not dropped rows
    assert got["prev_type"].isna().any() and got["next_type"].isna().any()
    # every non-first event contributes exactly one pair; the set already
    # counts the NULL-user partition (None is a member)
    n_partitions = len({u for _, u, *_ in rows})
    assert got["n"].sum() == 600 - n_partitions


def test_zscore_outliers_match_oracle_on_adversarial_random(ray_session, tmp_path):
    import datetime as dt
    import random

    import duckdb

    import __ray_entry__ as entrymod

    rng = random.Random(778)
    d = tmp_path / "z_rand"
    d.mkdir()
    base = dt.datetime(2026, 4, 1)
    types = ["a", "b", None]
    rows = []
    for i in range(500):
        v = None if rng.random() < 0.08 else (
            rng.random() * 4 + (500.0 if rng.random() < 0.02 else 0.0)
        )
        rows.append((i, rng.randint(1, 9), base, rng.choice(types), v))
    # a constant-value type: sd = 0 -> contributes nothing
    for i in range(500, 520):
        rows.append((i, 1, base, "flat", 7.5))
    # a singleton type
    rows.append((520, 1, base, "solo", 1.0))
    _write_events_full(d, rows)
    got = analysis.value_zscore_outliers(str(d)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = con.sql(entrymod.oracle_sql()["value_zscore_outliers"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    assert len(got) > 0  # the injected 500-range spikes must surface
    assert not (got["event_type"] == "flat").any()
    assert not (got["event_type"] == "solo").any()
    # the NULL type formed its own population, not a crash or a drop
    assert set(got["event_type"].dropna()) <= {"a", "b"}


def test_event_transitions_and_zscore_survive_degenerate_shapes(
    ray_session, tmp_path
):
    import datetime as dt

    t0 = dt.datetime(2026, 1, 5)
    shapes = {
        "empty": [],
        "one_row": [(0, 1, t0, "view", 1.0)],
        "all_null": [(0, None, None, None, None), (1, None, None, None, None)],
    }
    for sh, rows in shapes.items():
        d = tmp_path / f"deg_{sh}"
        d.mkdir()
        _write_events_full(d, rows)
        tr = analysis.event_type_transitions(str(d)).to_pandas()
        zs = analysis.value_zscore_outliers(str(d)).to_pandas()
        if sh == "all_null":
            # two NULL-user events form one ordered partition -> one pair
            assert len(tr) == 1 and tr["n"].iloc[0] == 1
            assert tr["prev_type"].isna().all() and tr["next_type"].isna().all()
        else:
            assert len(tr) == 0, sh
        assert len(zs) == 0, sh


def test_trailing_spend_matches_oracle_on_dense_bursts(ray_session, tmp_path):
    """Bursty random events — duplicate timestamps (peer rows), windows
    spanning many rows, NULL users/values, NULL ts rows dropped — must stay
    hash-identical to the SQL RANGE-window oracle."""
    import datetime as dt
    import random

    import duckdb

    import __ray_entry__ as entrymod

    rng = random.Random(909)
    d = tmp_path / "trail_rand"
    d.mkdir()
    base = dt.datetime(2026, 5, 1)
    rows = []
    for i in range(800):
        u = None if rng.random() < 0.05 else rng.randint(1, 6)
        # seconds-granularity bursts: many events inside any 60-min window,
        # and guaranteed exact-duplicate timestamps within a user
        t = None if rng.random() < 0.05 else base + dt.timedelta(
            seconds=rng.randint(0, 7200) - (rng.randint(0, 7200) % 7)
        )
        v = None if rng.random() < 0.1 else rng.random() * 20
        rows.append((i, u, t, "view", v))
    _write_events_full(d, rows)
    got = analysis.user_trailing_spend(str(d)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = con.sql(entrymod.oracle_sql()["user_trailing_spend"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    assert got["w_events"].max() > 50  # windows genuinely span many rows
    assert got["user_id"].isna().any()  # the NULL-user partition survived


def test_trailing_spend_overflow_fallback_matches_vectorized(ray_session, tmp_path):
    """Per-user spans wide enough to overflow the compressed key space must
    take the slice-loop fallback and produce identical results."""
    import datetime as dt

    from language_identification_ray.pipelines import analysis as an

    d = tmp_path / "trail_wide"
    d.mkdir()
    base = dt.datetime(1971, 1, 1)
    rows = []
    i = 0
    for u in range(3):
        for k in range(5):
            # ~55-year span per user: summed compressed keys ~5e15 * 3 — NOT
            # overflowing; so force the fallback by monkeypatching below
            rows.append((i, u, base + dt.timedelta(days=k * 4000), "view", 1.0))
            i += 1
        rows.append((i, u, base + dt.timedelta(days=16000, minutes=30), "view", 2.5))
        i += 1
    _write_events_full(d, rows)
    out1 = an.user_trailing_spend(str(d)).to_pandas()

    # the overflow branch depends only on data magnitudes, so verify the
    # two bound computations agree directly on this wide-span fixture
    import numpy as np
    ts = np.sort(np.array(
        [int(r[2].timestamp() * 1e6) for r in rows if r[1] == 0], dtype=np.int64
    ))
    w = np.int64(60) * 60_000_000
    lo_v = np.searchsorted(ts, ts - w, side="left")
    hi_v = np.searchsorted(ts, ts, side="right")
    key = (ts - ts[0]) + w + 1
    lo_k = np.searchsorted(key, key - w, side="left")
    hi_k = np.searchsorted(key, key, side="right")
    assert (lo_v == lo_k).all() and (hi_v == hi_k).all()

    # the last event of each user sits 30 min after one 4000-day-spaced
    # event: its window holds exactly those two rows
    last = out1.sort_values("event_id").groupby("user_id").tail(1)
    assert (last["w_events"] == 2).all()
    assert (last["w_spend"] == 3.5).all()


def test_lang_centroids_match_oracle_on_adversarial_join(ray_session, tmp_path):
    """Dangling ids on both sides, NULL ids, NULL langs — the union-tag
    bucket join must reproduce the SQL inner join hash-exactly."""
    import duckdb

    import __ray_entry__ as entrymod

    d = tmp_path / "lc_rand"
    d.mkdir()
    # docs 0-9 (doc 3 NULL lang, doc 9 NULL id -> matches nothing)
    docs = [(i, "t", ("en" if i % 2 else "fr"), "A", 1) for i in range(9)]
    docs[3] = (3, "t", None, "A", 1)
    _write_full_docs(d, docs + [(None, "t", "de", "A", 1)])
    # vectors for ids 0-6 plus dangling 77 and a NULL id
    import random

    rng = random.Random(55)
    ids = [0, 1, 2, 3, 4, 5, 6, 77, None]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [[rng.random() for _ in range(4)] for _ in ids],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0] * len(ids), pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    got = analysis.lang_centroids(str(d)).to_pandas()
    con = duckdb.connect()
    for t in ["documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    want = con.sql(entrymod.oracle_sql()["lang_centroids"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    # NULL lang formed its own centroid; dangling/NULL ids are invisible
    assert got["lang"].isna().any()
    assert set(got["lang"].dropna()) == {"en", "fr"}


def test_lang_centroids_filter_fallback_parity(ray_session, tmp_path, monkeypatch):
    """The vec_id runtime filter is an optimization, not a semantics change:
    the filtered plan (gate open) and the unfiltered union-tag fallback
    (gate forced shut) must return identical rows on a join with dangling
    ids and NULLs on both sides."""
    d = tmp_path / "lc_gate"
    d.mkdir()
    docs = [(i, "t", ("en" if i % 3 else None), "A", 1) for i in range(12)]
    _write_full_docs(d, docs)
    import random

    rng = random.Random(7)
    ids = [0, 2, 4, 6, 8, 10, 99, None]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [[rng.random() for _ in range(3)] for _ in ids],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0] * len(ids), pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    filtered = canon(analysis.lang_centroids(str(d)).to_pandas())
    monkeypatch.setattr(analysis, "_CENTROID_FILTER_GATE", -1)
    fallback = canon(analysis.lang_centroids(str(d)).to_pandas())
    pd.testing.assert_frame_equal(filtered, fallback)
    assert filtered.shape[0] > 0


def test_lang_centroids_survive_empty_and_disjoint(ray_session, tmp_path):
    d = tmp_path / "lc_empty"
    d.mkdir()
    _write_full_docs(d, [])
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
                "label": pa.array([], pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    assert analysis.lang_centroids(str(d)).to_pandas().shape[0] == 0

    e = tmp_path / "lc_disjoint"
    e.mkdir()
    _write_full_docs(e, [(1, "t", "en", "A", 1)])
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([2], pa.int64()),
                "embedding": pa.array([[1.0, 2.0]], pa.list_(pa.float32())),
                "label": pa.array([0], pa.int32()),
            }
        ),
        e / "embeddings.parquet",
    )
    assert analysis.lang_centroids(str(e)).to_pandas().shape[0] == 0


def test_source_length_gini_matches_oracle_and_naive(ray_session, tmp_path):
    """Random lengths with NULL sources / NULL lengths, an all-zero-length
    source (NULL gini) and a singleton source (gini 0) — hash-identical to
    the SQL rank-formula oracle AND to a naive O(n²) Gini."""
    import random

    import duckdb

    import __ray_entry__ as entrymod

    rng = random.Random(4242)
    d = tmp_path / "gini_rand"
    d.mkdir()
    rows = []
    i = 0
    for _ in range(300):
        src = rng.choice(["A", "B", "C", None])
        nc = None if rng.random() < 0.05 else rng.randint(0, 500)
        rows.append((i, "t", "en", src, nc))
        i += 1
    for _ in range(5):
        rows.append((i, "t", "en", "ZERO", 0)); i += 1
    rows.append((i, "t", "en", "SOLO", 42)); i += 1
    _write_full_docs(d, rows)
    got = analysis.source_length_gini(str(d)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    want = con.sql(entrymod.oracle_sql()["source_length_gini"]).df()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)
    by_src = got.set_index("source", drop=False)
    assert pd.isna(by_src.loc["ZERO", "gini"])  # sum(x)=0 -> NULL
    assert by_src.loc["SOLO", "gini"] == 0.0
    assert pd.notna(by_src.loc["A", "gini"])
    assert got["source"].isna().any()  # NULL source is its own group

    # naive mean-absolute-difference Gini per source
    import itertools

    from collections import defaultdict

    lens = defaultdict(list)
    for _, _, _, src, nc in rows:
        if nc is not None:
            lens[src].append(nc)
    for src, xs in lens.items():
        n, sx = len(xs), sum(xs)
        if n * sx == 0:
            continue
        mad = sum(abs(a - b) for a, b in itertools.product(xs, xs))
        naive = mad / (2.0 * n * sx)
        key = by_src.index.isna() if src is None else (by_src.index == src)
        assert abs(float(got[key]["gini"].iloc[0]) - naive) < 1e-9, src


def test_gini_histogram_kernel_exact_beyond_int64():
    """Corpus-scale counts (1e12 docs x 1e4 chars) push s1 ~ 5e30 — far past
    int64 — and must still match an exact fractions-based rank formula
    (ADVICE r3: the int64 reduction silently wrapped)."""
    from fractions import Fraction

    import numpy as np

    from language_identification_ray.pipelines.analysis import (
        _gini_from_length_histogram,
    )

    lens = np.array([100, 5_000, 10_000, 20_000], dtype=np.int64)
    cnts = np.array([10**12, 5 * 10**11, 10**11, 7], dtype=np.int64)
    n, gini = _gini_from_length_histogram(lens.copy(), cnts.copy())

    # exact reference: sorted runs, midpoint tie ranks, arbitrary precision
    o = np.argsort(lens)
    ls, cs = [int(x) for x in lens[o]], [int(x) for x in cnts[o]]
    N = sum(cs)
    sx = sum(l * c for l, c in zip(ls, cs))
    before = 0
    s1 = 0
    for l, c in zip(ls, cs):
        s1 += l * (c * before + c * (c + 1) // 2)
        before += c
    want = Fraction(2 * s1 - (N + 1) * sx, N * sx)
    assert n == N
    assert abs(gini - float(want)) < 1e-15
    # sanity: the naive int64 pipeline WOULD have wrapped here
    assert s1 > np.iinfo(np.int64).max


def test_source_length_gini_survives_empty(ray_session, tmp_path):
    d = tmp_path / "gini_empty"
    d.mkdir()
    _write_full_docs(d, [])
    assert analysis.source_length_gini(str(d)).to_pandas().shape[0] == 0
    e = tmp_path / "gini_allnull"
    e.mkdir()
    _write_full_docs(e, [(0, "t", "en", "A", None), (1, "t", "en", None, None)])
    assert analysis.source_length_gini(str(e)).to_pandas().shape[0] == 0


def test_doc_chunks_windows_and_nulls(ray_session, tmp_path):
    d = tmp_path / "chunks"
    d.mkdir()
    rows = [
        (1, " ".join(f"w{i}" for i in range(80)), "en", "A", 80),  # 80 toks
        (2, "a b c", "en", "A", 5),                                # 3 toks
        (3, None, "en", "A", 0),                                   # NULL text
        (4, "", "en", "A", 0),                                     # empty
    ]
    _write_full_docs(d, rows)
    out = (
        analysis.doc_chunks(str(d), size=32, stride=24)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    # doc 1: n=80 -> ceil(80/24)=4 chunks: [0,32) [24,56) [48,80) [72,80)
    c1 = out[out.doc_id == 1]
    assert list(c1.start_tok) == [0, 24, 48, 72]
    assert list(c1.end_tok) == [32, 56, 80, 80]
    assert list(c1.n_tokens) == [32, 32, 32, 8]
    # short doc: one partial chunk; NULL/empty text: the single empty token
    assert out[out.doc_id == 2].n_tokens.tolist() == [3]
    assert out[out.doc_id == 3].n_tokens.tolist() == [1]
    assert out[out.doc_id == 4].n_tokens.tolist() == [1]

    e = tmp_path / "chunks_empty"
    e.mkdir()
    _write_full_docs(e, [])
    assert analysis.doc_chunks(str(e)).to_pandas().shape[0] == 0


def test_zipf_alpha_exact_on_constructed_ranking(ray_session, tmp_path):
    d = tmp_path / "zipf"
    d.mkdir()
    # cnt(a)=8, cnt(b)=4, cnt(c)=2, cnt(d)=1: exact power law cnt = 8/rank^? —
    # ln(cnt) = ln(8) - alpha*ln(rk) is NOT exactly linear here (ranks 1..4,
    # counts 8,4,2,1 -> y = 3ln2,2ln2,ln2,0 vs x = 0,ln2,ln3,ln4), so pin
    # against the closed-form OLS slope instead of an eyeballed constant.
    words = ["a"] * 8 + ["b"] * 4 + ["c"] * 2 + ["d"]
    rows = [(1, " ".join(words), "en", "A", len(words))]
    _write_full_docs(d, rows)
    out = analysis.zipf_alpha(str(d)).to_pandas()
    assert int(out.n_ranks[0]) == 4 and int(out.c_top[0]) == 8

    x = np.log(np.arange(1, 5, dtype=np.float64))
    y = np.log(np.array([8.0, 4.0, 2.0, 1.0]))
    slope = ((x * y).mean() - x.mean() * y.mean()) / ((x * x).mean() - x.mean() ** 2)
    assert out.alpha[0] == pytest.approx(round(-slope, 6), abs=1e-9)

    # degenerate: a single distinct word -> undefined fit, NaN alpha
    e = tmp_path / "zipf_one"
    e.mkdir()
    _write_full_docs(e, [(1, "x x x", "en", "A", 5)])
    out1 = analysis.zipf_alpha(str(e)).to_pandas()
    assert int(out1.n_ranks[0]) == 1 and np.isnan(out1.alpha[0])


def test_dup_clusters_small_graph_gate_parity(ray_session, sf_dir):
    """The size-gated driver-side union-find plan and the distributed
    min-label propagation must produce identical clusters on the driver
    fixture (the gate is a physical-plan switch, never a semantic one)."""
    fast = (
        analysis.dup_clusters(sf_dir)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    dist = (
        analysis.dup_clusters(sf_dir, small_graph_rows=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, dist)


def test_bitext_mine_pairs_top1_and_edges(ray_session, tmp_path):
    d = tmp_path / "bitext"
    d.mkdir()
    import math

    # en docs 1,2; de docs 10,11,12; fr doc 20 (must be ignored);
    # doc 3 has no embedding; vec 99 has no doc; NULL lang doc 30
    docs = [
        (1, "x", "en", "A", 1), (2, "x", "en", "A", 1), (3, "x", "en", "A", 1),
        (10, "x", "de", "A", 1), (11, "x", "de", "A", 1), (12, "x", "de", "A", 1),
        (20, "x", "fr", "A", 1), (30, "x", None, "A", 1),
    ]
    _write_full_docs(d, docs)
    angs = {1: 0.0, 2: 90.0, 10: 10.0, 11: 10.0, 12: 80.0, 20: 0.0, 30: 0.0, 99: 0.0}
    ids = sorted(angs)
    vecs = [
        [math.cos(math.radians(angs[i])), math.sin(math.radians(angs[i]))]
        for i in ids
    ]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "label": pa.array([0] * len(ids), pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    out = (
        analysis.bitext_mine_pairs(str(d), tau=0.4, n_buckets=4)
        .to_pandas()
        .sort_values("doc_a")
        .reset_index(drop=True)
    )
    # doc 1 (0 deg): best de is 10 deg -> ties between 10 and 11, keep min id 10
    # doc 2 (90 deg): best de is 80 deg -> 12
    # doc 3 (no vector), fr/NULL-lang docs, orphan vec 99: all absent
    assert out.doc_a.tolist() == [1, 2]
    assert out.doc_b.tolist() == [10, 12]
    assert out.cos_sim.tolist() == [
        round(math.cos(math.radians(10)), 5),
        round(math.cos(math.radians(10)), 5),
    ]

    # tau above every similarity -> empty result, no raise
    hi = analysis.bitext_mine_pairs(str(d), tau=0.999999, n_buckets=4).to_pandas()
    assert hi.shape[0] == 0


def test_word_burstiness_counts_and_threshold(ray_session, tmp_path):
    d = tmp_path / "burst"
    d.mkdir()
    # "spam" appears 12x in 1 doc (bursty); "the" once in each of 6 docs
    # (flat); "rare" in 2 docs (below min_df) must be cut
    rows = [(0, "spam " * 11 + "spam", "en", "A", 60)]
    rows += [(i, "the rare" if i <= 2 else "the", "en", "A", 8) for i in range(1, 7)]
    _write_full_docs(d, rows)
    out = (
        analysis.word_burstiness(str(d), min_df=5, k=10)
        .to_pandas()
        .set_index("word")
    )
    assert "rare" not in out.index and "spam" not in out.index  # df < 5
    assert int(out.loc["the", "cnt"]) == 6 and int(out.loc["the", "df"]) == 6
    assert out.loc["the", "burstiness"] == 1.0

    e = tmp_path / "burst_empty"
    e.mkdir()
    _write_full_docs(e, [])
    assert analysis.word_burstiness(str(e)).to_pandas().shape[0] == 0


def test_dup_size_histogram_counts_singletons(ray_session, tmp_path):
    import math

    d = tmp_path / "dupsz"
    d.mkdir()
    # cluster {10,11,12} (chain via 11), singletons 13 and 14
    ids = [10, 11, 12, 13, 14]
    angs = [0.0, math.radians(25), math.radians(50), math.radians(180), math.radians(120)]
    vecs = [[math.cos(a), math.sin(a), 0.0] for a in angs]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "label": pa.array([0] * 5, pa.int32()),
            }
        ),
        d / "embeddings.parquet",
    )
    _write_full_docs(d, [(i, "x", "en", "s", 1) for i in ids])
    out = (
        analysis.dup_size_histogram(str(d), threshold=0.9)
        .to_pandas()
        .set_index("cluster_size")
    )
    assert int(out.loc[3, "n_clusters"]) == 1
    assert int(out.loc[1, "n_clusters"]) == 2


def test_events_hourly_distinct_users_null_semantics(ray_session, tmp_path):
    d = tmp_path / "dau"
    d.mkdir()
    t0 = pd.Timestamp("2024-01-01 05:10:00")
    rows = {
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        # three events in hour 05 (users 7, 7, NULL), one in hour 06
        # (user 8), two with NULL ts (users 8, 9)
        "ts": pa.array(
            [t0, t0 + pd.Timedelta("5min"), t0 + pd.Timedelta("20min"),
             t0 + pd.Timedelta("1h"), None, None],
            pa.timestamp("us"),
        ),
        "user_id": pa.array([7, 7, None, 8, 8, 9], pa.int64()),
        "event_type": pa.array(["v"] * 6, pa.string()),
        "value": pa.array([1.0] * 6, pa.float64()),
        "props": pa.array(["{}"] * 6, pa.string()),
    }
    pq.write_table(pa.table(rows), d / "events.parquet")
    out = analysis.events_hourly_distinct_users(str(d)).to_pandas()
    out = out.sort_values("window_start", na_position="last").reset_index(drop=True)
    h5 = out[out.window_start == pd.Timestamp("2024-01-01 05:00:00")]
    # hour 05: user 7 twice + a NULL user -> 1 distinct user, 3 events
    assert int(h5.n_users.iloc[0]) == 1 and int(h5.n_events.iloc[0]) == 3
    h6 = out[out.window_start == pd.Timestamp("2024-01-01 06:00:00")]
    assert int(h6.n_users.iloc[0]) == 1 and int(h6.n_events.iloc[0]) == 1
    # NULL ts keeps its own window group (SQL GROUP BY): users 8 and 9
    hn = out[out.window_start.isna()]
    assert len(hn) == 1 and int(hn.n_users.iloc[0]) == 2 and int(hn.n_events.iloc[0]) == 2


def test_rolling_active_users_window_and_dedup(ray_session, tmp_path):
    d = tmp_path / "wau"
    d.mkdir()
    day = pd.Timestamp("2024-03-01")
    rows = {
        "event_id": pa.array(list(range(7)), pa.int64()),
        # user 1 active on day 0 twice and day 8 (outside 7-day window of
        # day 0's window-ends); user 2 on days 0 and 3 (counts ONCE in the
        # day-3..6 windows that contain both); NULL ts and NULL user drop
        "ts": pa.array(
            [day, day + pd.Timedelta("1h"), day + pd.Timedelta("8D"),
             day, day + pd.Timedelta("3D"), None, day],
            pa.timestamp("us"),
        ),
        "user_id": pa.array([1, 1, 1, 2, 2, 1, None], pa.int64()),
        "event_type": pa.array(["v"] * 7, pa.string()),
        "value": pa.array([1.0] * 7, pa.float64()),
        "props": pa.array(["{}"] * 7, pa.string()),
    }
    pq.write_table(pa.table(rows), d / "events.parquet")
    out = (
        analysis.rolling_active_users(str(d))
        .to_pandas()
        .set_index("day")["active_users"]
    )
    # observed days: 0, 3, 8
    assert int(out[day]) == 2                              # users 1 and 2
    assert int(out[day + pd.Timedelta("3D")]) == 2          # both, user 2 once
    # day-8 window is [day 2, day 8]: user 1 (day 8) AND user 2 (day 3)
    assert int(out[day + pd.Timedelta("8D")]) == 2
    assert len(out) == 3                                    # only observed days


def test_weighted_sample_local_top_k_breaks_ties_by_doc_id():
    """The per-batch prefilter keeps the first k rows in (es_key DESC,
    doc_id ASC) order — the final sort's and the oracle's order — when equal
    keys straddle the cut."""
    ids = np.array([11, 9, 5, 7, 3, 1], dtype=np.int64)
    key = np.array([-1.0, -1.0, 0.5, -1.0, -1.0, -2.0])
    top = analysis._es_local_top_k(ids, key, 3)
    assert ids[top].tolist() == [5, 3, 7]
