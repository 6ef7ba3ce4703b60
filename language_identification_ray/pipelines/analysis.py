"""Oracle-checkable analysis operators over the driver testdata tables.

Every function here is a Ray-Data-first implementation of an operator from
SURVEY.md §2 (or a scale extension the north_star requires), written so a
DuckDB SQL oracle over the same parquet produces identical rows — same
column NAMES, same value semantics.  The matching SQL lives in
``__ray_entry__.oracle_sql``.

Scale notes per operator are in the docstrings: what shuffles, what
pre-aggregates, what broadcasts.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

# A fixed, tiny English stopword list used ONLY by the SQL-parity query
# (the real quality stage uses the full per-language tables).
SQL_STOPWORDS = ("the", "and", "of", "a", "to", "in", "is")

# Max embedding-table rows for which lang_centroids broadcasts the distinct
# vec_id set as a map-side semi-join runtime filter on the document scan
# (2M int64 ids ≈ 16 MB in the object store — one ray.put, read per actor).
_CENTROID_FILTER_GATE = 2_000_000


def _docs(sf_dir: str, columns=None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _text_col(batch: pa.Table) -> pa.ChunkedArray:
    """``text`` with NULLs as empty strings, single-chunk.  The pure-Arrow
    word paths crash on NULL text otherwise (null list lengths → NaN counts
    into ``np.repeat``), and ``documents_profile`` explicitly treats
    null_text as an anticipated input.  Convention: NULL text behaves like
    '' (one empty token from a space-split, zero n-grams) — a deliberate
    engine-side choice where SQL would propagate NULL; the driver fixtures
    contain no NULL text, so oracle hashes are unaffected."""
    return pc.fill_null(batch["text"], "").combine_chunks()


def _one_chunk(a):
    """Plain Array view of a possibly-chunked compute result (offset/flatten
    arithmetic needs contiguous buffers)."""
    return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a


def _word_lists(batch: pa.Table) -> pa.ListArray:
    """``text`` space-split into a single-chunk ListArray (NULL text as '',
    so every doc has ≥ 1 word — the ``(t or '').split(' ')`` convention).
    The shared head of the vectorized word-count kernels."""
    return _one_chunk(pc.split_pattern(_text_col(batch), " "))


def _null_safe_key(arr) -> tuple:
    """(filled, is-null) two-key pair for a possibly-NULL string groupby
    key — Ray 2.49's sort groupby cannot order NULL strings against real
    ones, so kernels shuffle on both and restore the NULL on the way out.
    ("", false) and ("", true) stay distinct."""
    return pc.fill_null(arr, ""), pc.is_null(arr)


def _tag_key(batch: pa.Table, col: str, passthrough: tuple) -> pa.Table:
    """Replace string group key ``col`` with its (filled, is-null) pair,
    carrying ``passthrough`` columns along — the map side of the two-key
    NULL-safe groupby pattern."""
    key, isnull = _null_safe_key(batch[col])
    cols = {f"{col}_key": key, f"{col}_null": isnull}
    for c in passthrough:
        cols[c] = batch[c]
    return pa.table(cols)


def _restore_key(batch: pa.Table, col: str, value_cols: tuple) -> pa.Table:
    """Reduce side of the two-key pattern: fold (filled, is-null) back into
    one nullable ``col`` ahead of ``value_cols``."""
    out = {
        col: pc.if_else(
            batch[f"{col}_null"], pa.scalar(None, pa.string()), batch[f"{col}_key"]
        )
    }
    for c in value_cols:
        out[c] = batch[c]
    return pa.table(out)


def _unique_pairs(a: np.ndarray, b: np.ndarray):
    """Distinct (a, b) int64 rows, lexsorted by (a, b).  Lexsort-based —
    safe for the FULL int64 range (unlike ``a * 2**k + b`` bit-packing,
    which silently wraps for |a| >= 2**(63-k))."""
    o = np.lexsort((b, a))
    a, b = a[o], b[o]
    if len(a) == 0:
        return a, b
    keep = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    return a[keep], b[keep]


# ---------------------------------------------------------------------------
# per-record maps / filters (SURVEY §2.2)


def token_count(sf_dir: str) -> "rd.Dataset":
    """Per-doc whitespace token count.  Map-only — no shuffle; column-pruned
    read; pure-Arrow kernels (split + list length), no Python per row.
    (Tokenization M9 reduced to the SQL-parity split.)"""

    def f(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(_text_col(batch), " ")).cast(pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def filter_mid_length(sf_dir: str) -> "rd.Dataset":
    """Threshold filter (T4): vectorized Arrow predicate inside map_batches."""

    def f(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.greater_equal(batch["n_chars"], 100), pc.less_equal(batch["n_chars"], 300))
        return batch.filter(mask).select(["doc_id", "lang", "n_chars"])

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(f, batch_format="pyarrow")


def doc_fingerprint(sf_dir: str) -> "rd.Dataset":
    """Content fingerprint per document (md5 — stable across engines).
    The dedup key for exact dedup; map-only."""

    def f(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def stopword_stats(sf_dir: str) -> "rd.Dataset":
    """SQL-parity stopword counting (J6): fixed broadcast list, map-only.
    Pure-Arrow split + is_in membership; per-doc hit totals via one
    bincount over the flattened word stream — no Python per row."""
    stop_arr = pa.array(SQL_STOPWORDS, pa.string())

    def f(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(_text_col(batch), " ")
        n_words = pc.list_value_length(words).cast(pa.int64())
        hits_mask = pc.is_in(pc.list_flatten(words), value_set=stop_arr)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), n_words.to_numpy())
        hits = np.bincount(
            doc_of, weights=hits_mask.to_numpy(zero_copy_only=False), minlength=len(batch)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "stop_hits": pa.array(hits, pa.int64()),
                "n_words": n_words,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def repetition_stats(sf_dir: str) -> "rd.Dataset":
    """Gopher/Dolma-style repetition signal, SQL-parity variant: per doc, the
    fraction of whitespace word 3-grams that are repeats
    (``1 - n_distinct/n_grams``).  The flagship's quality stage computes the
    same signal over the real tokenizer (``stages/quality.py``
    ``q_dup_ngram_frac``); this query exposes the shape to the exact oracle.

    Map-only, no shuffle.  Exact distinct counting WITHOUT hashing: words
    are integer-coded per batch (one ``np.unique`` over the flattened word
    stream), 3-grams become (doc, c1, c2, c3) int32 rows viewed as fixed
    16-byte records, and a second ``np.unique`` over the byte view counts
    distinct rows — no 64-bit multiplies (slow in this sandbox) and no
    collision risk against the SQL ``count(DISTINCT gram)``."""

    def f(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(_text_col(batch), " ")
        n_words = pc.list_value_length(words).to_numpy().astype(np.int64)
        flat = words.flatten()
        _, codes = np.unique(flat.to_numpy(zero_copy_only=False), return_inverse=True)
        codes = codes.astype(np.int32)
        n = len(batch)
        n_grams = np.maximum(n_words - 2, 0)
        total = int(n_grams.sum())
        n_distinct = np.zeros(n, dtype=np.int64)
        if total:
            doc_of = np.repeat(np.arange(n, dtype=np.int32), n_words)
            starts = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(n_words, out=starts[1:])
            # index of the FIRST word of each 3-gram, per doc segment
            gi = _segment_aranges(starts[:-1], n_grams)
            rows = np.empty((total, 4), dtype=np.int32)
            rows[:, 0] = doc_of[gi]
            rows[:, 1] = codes[gi]
            rows[:, 2] = codes[gi + 1]
            rows[:, 3] = codes[gi + 2]
            uniq = np.unique(np.ascontiguousarray(rows).view("V16"))
            udocs = uniq.view(np.int32).reshape(-1, 4)[:, 0]
            n_distinct = np.bincount(udocs, minlength=n).astype(np.int64)
        dup_frac = np.where(n_grams > 0, 1.0 - n_distinct / np.maximum(n_grams, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_grams": pa.array(n_grams, pa.int64()),
                "n_distinct": pa.array(n_distinct, pa.int64()),
                "dup_frac": pa.array(dup_frac, pa.float64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# grouped aggregations (SURVEY §2.5)


def lang_stats(sf_dir: str) -> "rd.Dataset":
    """G4-style grouped aggregate.  One small shuffle over 5 keys; NULL
    langs keep their own group via the two-key pattern."""
    return (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(lambda b: _tag_key(b, "lang", ("n_chars",)), batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
            Mean("n_chars", alias_name="avg_chars"),
        )
        .map_batches(
            lambda b: _restore_key(b, "lang", ("n_docs", "total_chars", "avg_chars")),
            batch_format="pyarrow",
        )
    )


def source_stats(sf_dir: str) -> "rd.Dataset":
    """Doc count + min/max length per source (grouped aggregate over ~20
    keys; column-pruned read, one small shuffle; NULL sources keep their
    own group via the two-key pattern)."""
    return (
        _docs(sf_dir, ["source", "n_chars"])
        .map_batches(lambda b: _tag_key(b, "source", ("n_chars",)), batch_format="pyarrow")
        .groupby(["source_key", "source_null"])
        .aggregate(
            Count(alias_name="n_docs"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        )
        .map_batches(
            lambda b: _restore_key(b, "source", ("n_docs", "min_chars", "max_chars")),
            batch_format="pyarrow",
        )
    )


def word_freq_top100(sf_dir: str) -> "rd.Dataset":
    """Global word frequency, top 100 (G4 document-frequency analogue).

    Scale path: counts are PRE-AGGREGATED inside each batch (one Arrow
    ``value_counts`` over the flattened split — no per-row Python), so the
    shuffle moves one row per distinct word per batch — not one per token.
    Deterministic tie-break (cnt desc, word asc) matches the oracle."""

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(_one_chunk(_word_lists(batch).flatten()))
        return pa.table(
            {"word": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "word"], descending=[True, False])
        .limit(100)
    )


def bigram_top50(sf_dir: str) -> "rd.Dataset":
    """Word-bigram frequency top-50 (M12 word_n_grams → G1 count).  Same
    partial-count shape as word_freq_top100.  Bigram fan-out is two
    zero-copy slices of the flattened word array filtered by a
    doc-boundary mask (position i pairs with i+1 unless i is a doc's last
    word) — no per-row Python, no index gather."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"bigram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        m = len(flat)
        if m < 2:
            return empty
        offs = words.offsets.to_numpy().astype(np.int64)
        valid = np.ones(m - 1, dtype=bool)
        valid[offs[1:-1] - 1] = False  # no bigram spans a doc boundary
        if not valid.any():
            return empty
        mask = pa.array(valid)
        pairs = pc.binary_join_element_wise(
            flat.slice(0, m - 1).filter(mask), flat.slice(1, m - 1).filter(mask), " "
        )
        vc = pc.value_counts(pairs)
        return pa.table(
            {"bigram": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "bigram"], descending=[True, False])
        .limit(50)
    )


def doc_frequency(sf_dir: str, min_df: int = 20) -> "rd.Dataset":
    """Document frequency per word with threshold (G4: the reference's
    common_words.ipynb job — per-file word SETS → global count → cutoff).
    Docs are unique per batch, so per-batch distinct-word partials sum to the
    exact df.  Per-doc word distinctness runs through Arrow's C++ hash
    groupby on (doc-ordinal, word) — no per-row Python sets."""

    def partial(batch: pa.Table) -> pa.Table:
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        n = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        doc = np.repeat(np.arange(len(words), dtype=np.int64), n)
        dist = (
            pa.table({"d": pa.array(doc), "word": flat})
            .group_by(["d", "word"])
            .aggregate([])
        )
        vc = pc.value_counts(_one_chunk(dist["word"]))
        return pa.table(
            {"word": vc.field("values"), "df": vc.field("counts").cast(pa.int64())}
        )

    def threshold(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["df"], min_df))

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("df", alias_name="df"))
        .map_batches(threshold, batch_format="pyarrow")
    )


def word_lang_incidence(sf_dir: str, max_langs: int | None = None) -> "rd.Dataset":
    """word → number of languages it appears in (G5: merge_wordlists.ipynb —
    the word→lang incidence map; pass ``max_langs=1`` for the
    unique-to-one-language filter).  Two grouped stages: distinct
    (word, lang) pairs, then per-word language count.  Unfiltered by default
    so the result keeps its schema on vocabulary-shared corpora (an empty
    Ray Dataset drops column names, which breaks the driver compare)."""

    # NULL langs fill with the max codepoint so Ray's sort groupby can order
    # the key; it sorts AFTER every real language, so Min() still picks the
    # real minimum, and the SQL NULL-skipping count/min fall out of the flag
    _NULL_LANG = "\U0010ffff"

    def pairs(batch: pa.Table) -> pa.Table:
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        n = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        langs = _one_chunk(batch["lang"]).take(
            pa.array(np.repeat(np.arange(len(words), dtype=np.int64), n))
        )
        # batch-level distinct (word, lang) via Arrow's hash groupby —
        # doc identity is dropped, matching the old batch-global set
        t = (
            pa.table({"word": flat, "lang": langs})
            .group_by(["word", "lang"])
            .aggregate([])
        )
        return pa.table(
            {"word": t["word"], "lang": pc.fill_null(t["lang"], _NULL_LANG)}
        )

    distinct_pairs = (
        _docs(sf_dir, ["text", "lang"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["word", "lang"])
        .aggregate(Count(alias_name="_n"))
    )

    def flag(batch: pa.Table) -> pa.Table:
        # count(DISTINCT lang) skips NULLs: only real langs count
        return pa.table(
            {
                "word": batch["word"],
                "lang": batch["lang"],
                "_nn": pc.not_equal(batch["lang"], _NULL_LANG).cast(pa.int64()),
            }
        )

    out = (
        distinct_pairs.map_batches(flag, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("_nn", alias_name="n_langs"), Min("lang", alias_name="first_lang"))
    )

    def unfill(batch: pa.Table) -> pa.Table:
        # a word seen only in NULL-lang docs: n_langs = 0, first_lang = NULL
        return pa.table(
            {
                "word": batch["word"],
                "n_langs": batch["n_langs"],
                "first_lang": pc.if_else(
                    pc.equal(batch["first_lang"], _NULL_LANG),
                    pa.scalar(None, pa.string()),
                    batch["first_lang"],
                ),
            }
        )

    out = out.map_batches(unfill, batch_format="pyarrow")
    if max_langs is not None:
        out = out.map_batches(
            lambda t: t.filter(pc.less_equal(t["n_langs"], max_langs)), batch_format="pyarrow"
        )
    return out


# ---------------------------------------------------------------------------
# dedup (new scale operators per the task brief)


def exact_dedup(sf_dir: str, prefix: int = 40) -> "rd.Dataset":
    """Exact near-key dedup: hash a 40-char prefix, keep min doc_id per key.

    Scale path: the shuffle is on the HASH (fixed 32-byte key), never the
    text; groups are tiny so per-group first is cheap.  (D2/D-new.)"""

    def key(batch: pa.Table) -> pa.Table:
        ks = [hashlib.md5((t or "")[:prefix].encode("utf-8")).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "k": pa.array(ks, pa.string())})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(key, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="n_dups"))
    )


# ---------------------------------------------------------------------------
# events: windowed aggregate (streaming-shaped; SURVEY §2.9 note)


def events_hourly(sf_dir: str) -> "rd.Dataset":
    """Tumbling 1-hour window per event_type: count + sum(value).

    The window key is computed map-side (vectorized timestamp floor) and each
    batch is PRE-AGGREGATED to one row per (type, window) before the shuffle —
    the Ray Data expression of a tumbling window, with the exchange bounded by
    distinct windows per batch rather than raw events.  Values are summed as
    integer cents (round-half-up) so the total is exact and order-independent
    on both the Ray and SQL sides."""

    def partial(batch: pa.Table) -> pa.Table:
        # SQL GROUP BY keeps NULL type AND NULL hour as real groups (pandas
        # groupby silently drops NaN keys — 48 groups vanished on the fuzz
        # corpus); NULL values drop from the sum but count toward count(*),
        # and an all-NULL group keeps a NULL total
        w = pc.floor_temporal(batch["ts"], unit="hour").cast(pa.timestamp("us"))
        tnull = pc.is_null(batch["event_type"]).to_numpy(zero_copy_only=False)
        tkey = pc.fill_null(batch["event_type"], "").combine_chunks()
        wnull = pc.is_null(w).to_numpy(zero_copy_only=False)
        wkey = (
            pc.fill_null(w.cast(pa.int64()), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        val = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        vok = ~np.isnan(val)
        cents = np.where(vok, np.floor(np.nan_to_num(val) * 100.0 + 0.5), 0).astype(np.int64)
        tcodes = pc.dictionary_encode(tkey).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        tnames = pc.dictionary_encode(tkey).dictionary.to_pylist()
        keys = np.stack([tcodes, tnull.astype(np.int64), wkey, wnull.astype(np.int64)], axis=1)
        uk, inv = np.unique(keys, axis=0, return_inverse=True)
        return pa.table(
            {
                "type_key": pa.array([tnames[int(i)] for i in uk[:, 0]], pa.string()),
                "type_null": pa.array(uk[:, 1].astype(bool), pa.bool_()),
                "w_key": pa.array(uk[:, 2], pa.int64()),
                "w_null": pa.array(uk[:, 3].astype(bool), pa.bool_()),
                "n_events": pa.array(np.bincount(inv, minlength=len(uk)).astype(np.int64)),
                "value_cents": pa.array(
                    np.bincount(inv, weights=cents.astype(np.float64), minlength=len(uk)).astype(np.int64)
                ),
                "n_val": pa.array(
                    np.bincount(inv, weights=vok, minlength=len(uk)).astype(np.int64)
                ),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "type_key" not in batch.schema.names:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "window_start": pa.array([], pa.timestamp("us")),
                    "n_events": pa.array([], pa.int64()),
                    "total_value": pa.array([], pa.float64()),
                }
            )
        nv = batch["n_val"].to_numpy(zero_copy_only=False).astype(np.int64)
        wnull = batch["w_null"].to_numpy(zero_copy_only=False).astype(bool)
        return pa.table(
            {
                "event_type": pa.array(
                    batch["type_key"].to_pylist(), pa.string(),
                    mask=batch["type_null"].to_numpy(zero_copy_only=False).astype(bool),
                ),
                "window_start": pa.array(
                    batch["w_key"].to_numpy(zero_copy_only=False).astype("datetime64[us]"),
                    pa.timestamp("us"),
                    mask=wnull,
                ),
                "n_events": batch["n_events"],
                "total_value": pa.array(
                    batch["value_cents"].to_numpy(zero_copy_only=False) / 100.0,
                    pa.float64(),
                    mask=(nv == 0),
                ),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["type_key", "type_null", "w_key", "w_null"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
            Sum("n_val", alias_name="n_val"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def events_sessionize(sf_dir: str, gap_minutes: int = 30) -> "rd.Dataset":
    """Session windows per user (30-min inactivity gap) — the streaming-shaped
    operator Ray Data expresses as groupby(key) + per-group ordered pandas
    (ray_guide 'Streaming-shaped workloads'; ordering assumption: events of
    one user fit one group and are sorted by ts inside it)."""
    from language_identification_ray.pipelines.relational import _group_spread

    return (
        _group_spread(rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))
        .groupby("user_id")
        .map_groups(_session_groups(gap_minutes), batch_format="pyarrow")
    )


def _session_groups(gap_minutes: int):
    """Per-user-group session builder shared by :func:`events_sessionize`
    and its watermark variant (semantics documented there)."""
    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessions(group: pa.Table) -> pa.Table:
        ts_type = group.schema.field("ts").type
        ts = group["ts"].to_numpy(zero_copy_only=False)
        ts = ts[np.argsort(ts, kind="stable")]  # NaT sorts last = SQL NULLS LAST
        # NULL-ts rows follow the oracle's window semantics exactly: the
        # FIRST NaT row merges into the last session (lag(ts) is the last
        # real ts, ts - lag(ts) is NULL, NULL > gap is falsy — the numpy
        # NaT-diff comparison below is False, same outcome); every
        # SUBSEQUENT NaT row starts its own session, because its lag(ts)
        # is the previous row's NULL and the oracle's `lag(ts) IS NULL`
        # branch fires (verified against DuckDB).
        new_s = np.ones(len(ts), dtype=bool)
        if len(ts) > 1:
            new_s[1:] = (ts[1:] - ts[:-1]) > gap
            nat = np.isnat(ts)
            new_s[1:] |= nat[:-1] & nat[1:]
        starts = np.flatnonzero(new_s)
        ends = np.append(starts[1:], len(ts))
        # SQL min/max ignore NULLs: with NaT sorted last, the real rows are
        # a prefix, so the session max is the last element BELOW n_real (a
        # session that is all-NaT — only possible from row 0 — stays NaT)
        n_real = int(np.count_nonzero(~np.isnat(ts)))
        last_real = np.minimum(ends, n_real) - 1
        t_end = np.where(
            last_real >= starts, ts[np.maximum(last_real, 0)], np.datetime64("NaT")
        )
        uid = group["user_id"][0].as_py()
        return pa.table(
            {
                "user_id": pa.array(np.full(len(starts), uid), pa.int64()),
                # 1-based running count of session starts (SQL sum-over-window)
                "session_id": pa.array(np.arange(1, len(starts) + 1, dtype=np.int64)),
                "n_events": pa.array((ends - starts).astype(np.int64)),
                "t_start": pa.array(ts[starts]).cast(ts_type),
                "t_end": pa.array(t_end).cast(ts_type),
            }
        )

    return sessions


def events_funnel(sf_dir: str, window_hours: int = 24) -> "rd.Dataset":
    """Per-user conversion funnel (view → click → purchase): ``stage`` = how
    many steps the user completed IN ORDER, each within ``window_hours`` of
    the previous step — the sessionized product-analytics shape next to
    :func:`events_sessionize`.

    The conversion window is what makes the metric (and its oracle check)
    non-vacuous: on this fixture every user eventually emits every event
    type, so an unwindowed funnel saturates at stage 3 for everyone —
    measured stage mix with the 24 h window at sf0.01 is {1: 90, 2: 35,
    3: 25}, exercising every branch of the cascade in the hash comparison.

    One shuffle keyed by user (groups spread over ~2 blocks per CPU first —
    map_groups parallelism equals upstream block count); inside each group a
    three-step masked-min cascade over numpy arrays.  NULL timestamps are
    masked out up front: numpy ``min`` would propagate NaT where the
    oracle's SQL ``min()`` ignores NULLs."""
    from language_identification_ray.pipelines.relational import _group_spread

    steps = ["view", "click", "purchase"]
    window = np.timedelta64(window_hours * 3600, "s")

    def funnel(group: pa.Table) -> pa.Table:
        uid = group["user_id"][0].as_py()
        if uid is None:
            # the oracle's final LEFT JOIN ... USING (user_id) can never
            # match the NULL user (NULL = NULL is NULL), so SQL reports the
            # NULL-user row at stage 0 even when it has view/click events
            return pa.table(
                {
                    "user_id": pa.array([None], pa.int64()),
                    "stage": pa.array([0], pa.int64()),
                }
            )
        ts_all = group["ts"].to_numpy(zero_copy_only=False)
        et_all = np.asarray(group["event_type"].to_pylist(), dtype=object)
        ok = ~np.isnat(ts_all)
        ts, et = ts_all[ok], et_all[ok]
        # stage 1 membership is "has ANY view row" (the oracle's s1 GROUP BY
        # — even all-NULL-ts views qualify, with a NULL t1 that makes the
        # next window comparison NULL → stage stops at 1); stages 2-3 need
        # real timestamps inside the window
        stage = 0
        t_prev = None
        if (et_all == steps[0]).any():
            stage = 1
            cand = ts[et == steps[0]]
            t_prev = cand.min() if cand.size else None
        if t_prev is not None:
            for step in steps[1:]:
                cand = ts[et == step]
                cand = cand[(cand > t_prev) & (cand <= t_prev + window)]
                if cand.size == 0:
                    break
                t_prev = cand.min()
                stage += 1
        return pa.table(
            {
                "user_id": pa.array([group["user_id"][0].as_py()], pa.int64()),
                "stage": pa.array([stage], pa.int64()),
            }
        )

    return (
        _group_spread(
            rd.read_parquet(
                f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
            )
        )
        .groupby("user_id")
        .map_groups(funnel, batch_format="pyarrow")
    )


def events_json_kpi(sf_dir: str) -> "rd.Dataset":
    """Semi-structured field extraction + grouped KPI: pull the integer
    ``k`` out of the JSON ``props`` column and report count + mean per
    event type.

    The extraction is a VECTORIZED regex capture (``pc.extract_regex`` —
    Arrow's RE2, the same engine DuckDB uses, so match semantics are
    identical to the ``json_extract_string`` oracle on these single-key
    payloads), not a ``json.loads`` Python loop — the scale path for
    "parse one field out of a JSON blob per record", which at 100 TB is a
    top-3 CPU sink if done row-wise.  Each batch pre-aggregates to one row
    per event type before the shuffle, so the exchange carries
    O(types × batches) rows; the mean is finalized from exact integer sums
    in float64 (identical to DuckDB ``avg`` over BIGINT).

    Two-tier extraction (r2 ADVICE: the anchored regex alone silently
    NULLed any ``k`` that wasn't the literal first key).  Tier 1 is the
    vectorized first-key regex — it hits 100% of the events synthesizer's
    payloads, so the hot path stays one RE2 pass per batch.  Every row the
    regex misses that still CONTAINS a quoted ``"k"`` (key reordered,
    unusual whitespace, string-typed number, nested object) falls through
    to an exact per-row ``json.loads`` of just those rows — top-level
    integer/numeric-string ``k`` is recovered exactly as
    ``json_extract_string('$.k')`` would, nested/absent/malformed stay
    NULL, so the oracle's semantics hold under schema drift instead of
    silently diverging.  The fallback cost is proportional to the drifted
    tail, not the corpus."""
    pat = r'^\{\s*"k":\s*(?P<k>-?\d+)\s*[,}]'  # NAMED group (Arrow requires it)

    def partial(batch: pa.Table) -> pa.Table:
        props = batch["props"]
        caught = pc.extract_regex(props, pat)
        ks = pc.cast(pc.struct_field(caught, "k"), pa.int64())
        k_col = ks.to_pandas()
        # and_kleene + fill_null: plain and_ propagates the NULL that
        # match_substring yields on NULL props, degrading the mask to a
        # Python-object ndarray (and .any() to an interpreter loop)
        miss = pc.fill_null(
            pc.and_kleene(
                pc.and_kleene(pc.is_null(ks), pc.is_valid(props)),
                pc.match_substring(props, '"k"'),
            ),
            False,
        ).to_numpy(zero_copy_only=False)
        if miss.any():
            import json

            # materialize ONLY the drifted rows (a full props.to_pylist()
            # would make the fallback O(batch) when one row misses)
            miss_idx = np.nonzero(miss)[0]
            missed = props.take(pa.array(miss_idx)).to_pylist()
            for i, raw in zip(miss_idx, missed):
                try:
                    obj = json.loads(raw)
                except (ValueError, TypeError):
                    continue  # malformed JSON: NULL, like json_extract
                v = obj.get("k") if isinstance(obj, dict) else None
                if isinstance(v, bool):
                    continue  # CAST('true' AS BIGINT) errors; stay NULL
                if isinstance(v, int):
                    k_col.iloc[int(i)] = v
                elif isinstance(v, str):
                    try:
                        k_col.iloc[int(i)] = int(v)
                    except ValueError:
                        pass
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "k": k_col,
            }
        )
        # dropna=False: SQL GROUP BY keeps the NULL event_type group (the
        # pandas default silently drops it); the exchange rides the two-key
        # pattern because Ray's sort shuffle cannot order a None string
        g = df.groupby("event_type", as_index=False, sort=False, dropna=False).agg(
            n_events=("k", "size"), n_k=("k", "count"), sum_k=("k", "sum")
        )
        tnull = g["event_type"].isna()
        return pa.table(
            {
                "type_key": pa.array(g["event_type"].fillna(""), pa.string()),
                "type_null": pa.array(tnull.to_numpy(), pa.bool_()),
                "n_events": pa.array(g["n_events"], pa.int64()),
                "n_k": pa.array(g["n_k"], pa.int64()),
                "sum_k": pa.array(g["sum_k"], pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "type_key" not in batch.schema.names:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                    "avg_k": pa.array([], pa.float64()),
                }
            )
        nk = batch["n_k"].to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = batch["sum_k"].to_numpy(zero_copy_only=False).astype(np.float64) / nk
        return pa.table(
            {
                "event_type": pa.array(
                    batch["type_key"].to_pylist(), pa.string(),
                    mask=batch["type_null"].to_numpy(zero_copy_only=False).astype(bool),
                ),
                "n_events": batch["n_events"].cast(pa.int64()),
                # avg over zero extracted values is SQL NULL, not NaN/0
                "avg_k": pa.array(np.where(nk == 0, 0.0, avg), pa.float64(), mask=(nk == 0)),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["type_key", "type_null"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("n_k", alias_name="n_k"),
            Sum("sum_k", alias_name="sum_k"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def per_source_cap(sf_dir: str, cap: int = 20) -> "rd.Dataset":
    """Per-source document quota: keep at most ``cap`` docs per source,
    deterministically (lowest doc_id first) — the per-domain cap every
    web-corpus curation recipe applies so no single site dominates the
    training mix.

    Grouped top-k as a COMBINER CASCADE: each batch first cuts itself to
    ≤``cap`` rows per source (vectorized pandas head per key); the bounded
    intermediate is then folded through a second partial-cut level (a cheap
    repartition of ≤ cap × sources × batches rows — tiny relative to the
    corpus — followed by the same per-block cut), so the keyed groupby's
    hottest source receives ≤ cap × fold-blocks rows instead of
    cap × input-batches.  Without the fold, a billion-doc source at
    cluster scale would ship cap rows for every one of millions of input
    batches to a single reducer."""

    def partial(batch: pa.Table) -> pa.Table:
        # dictionary-encode rather than materializing Python strings: integer
        # lexsort keys, and a NULL source ranks as its own group instead of
        # raising str-vs-None TypeError (SQL GROUP BY keeps a NULL group)
        sarr = batch["source"].combine_chunks()
        sdict = sarr.dictionary_encode()
        codes_arr = sdict.indices
        if codes_arr.null_count:
            codes_arr = pc.fill_null(codes_arr, len(sdict.dictionary))
        src = codes_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # rank docs within each source by doc_id: sort by (source, doc_id),
        # then keep positions whose within-run index < cap
        order = np.lexsort((ids, src))
        s_sorted = src[order]
        run_start = np.ones(len(order), dtype=bool)
        run_start[1:] = s_sorted[1:] != s_sorted[:-1]
        idx_in_run = np.arange(len(order)) - np.maximum.accumulate(
            np.where(run_start, np.arange(len(order)), 0)
        )
        keep = order[idx_in_run < cap]
        keep.sort()  # preserve input order (irrelevant to the set, cheap)
        return pa.table(
            {
                "source": sarr.take(pa.array(keep)),
                "doc_id": pa.array(ids[keep], pa.int64()),
            }
        )

    def tag(batch: pa.Table) -> pa.Table:
        # Ray's sort-based groupby cannot order a NULL string key against
        # real ones; group on (filled key, is-null flag) and restore the
        # NULL in final_cut — ("", false) and ("", true) stay distinct
        src = batch["source"]
        return pa.table(
            {
                "src_key": pc.fill_null(src, ""),
                "src_null": pc.is_null(src),
                "doc_id": batch["doc_id"],
            }
        )

    def final_cut(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        take = np.sort(ids)[:cap]
        src = None if group["src_null"][0].as_py() else group["src_key"][0].as_py()
        return pa.table(
            {
                "source": pa.array([src] * len(take), pa.string()),
                "doc_id": pa.array(take, pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["source", "doc_id"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(64)  # fold level: bounds per-source rows at the groupby to cap × 64
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(tag, batch_format="pyarrow")
        .groupby(["src_key", "src_null"])
        .map_groups(final_cut, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# embeddings: similarity search (new scale operator)


def knn_cosine_top10(sf_dir: str) -> "rd.Dataset":
    """Brute-force cosine top-k against a broadcast query vector.

    The query matrix is read ONCE driver-side (single row lookup) and closed
    over — at scale this is ``ray.put`` + per-actor ``ray.get``; the scan
    stays streaming and emits only per-batch top-k candidates (k rows per
    batch), so the final exact sort is over a tiny candidate set."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_numpy()
    if len(ids) == 0:  # empty table/partition: no query vector -> empty top-k
        return rd.from_arrow(pa.table({"vec_id": pa.array([], pa.int64())}))
    # NULL embeddings take no part (the oracle declares this: DuckDB's
    # list kernels reject NULL inputs): query = smallest vec_id WITH an
    # embedding, candidates likewise
    tbl = tbl.filter(pc.is_valid(tbl["embedding"]))
    ids = tbl["vec_id"].to_numpy()
    if len(ids) == 0:
        return rd.from_arrow(pa.table({"vec_id": pa.array([], pa.int64())}))
    q = np.array(tbl["embedding"].to_pylist()[int(np.argmin(ids))], dtype=np.float64)
    qn = q / np.linalg.norm(q)

    def score(batch: pa.Table) -> pa.Table:
        from language_identification_ray.stages.knn import _as_matrix, _drop_null_rows

        batch = _drop_null_rows(batch, "embedding")
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cos_sim": pa.array([], pa.float64()),
                }
            )
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        mat = _as_matrix(batch["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ qn) / np.where(norms == 0, 1.0, norms)
        order = np.lexsort((vid, -cos))[:10]  # per-batch top-k candidates
        return pa.table(
            {
                "vec_id": pa.array(vid[order]),
                "cos_sim": pa.array(cos[order], pa.float64()),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(score, batch_format="pyarrow")
        .sort(["cos_sim", "vec_id"], descending=[True, False])
        .limit(10)
        .map_batches(lambda t: t.select(["vec_id"]), batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# transliteration + scalar string functions as oracle-checkable queries


def normalize_umlauts(sf_dir: str) -> "rd.Dataset":
    """German-umlaut transliteration over the text column (SURVEY §2.2 M13
    as a dataset op).  Map-only; ``str.translate`` is C-level per row.
    Oracle: nested ``replace()`` — equivalent because no replacement string
    contains a source character."""
    from language_identification_ray.functions.translit import (
        make_translit_table,
        transliterate_batch,
    )

    table = make_translit_table({"ä": "ae", "ö": "oe", "ü": "ue", "ß": "ss"})

    def f(batch: pa.Table) -> pa.Table:
        out = transliterate_batch(batch, table, out_column="norm_text")
        return out.select(["doc_id", "norm_text"])

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def edit_distance_sample(sf_dir: str) -> "rd.Dataset":
    """Levenshtein distance between each doc's first and last whitespace
    token (SURVEY §2.8 scalar-function parity; DuckDB ``levenshtein`` is the
    oracle).  Map-only."""
    from language_identification_ray.functions.strings import levenshtein

    def f(batch: pa.Table) -> pa.Table:
        w1, w2, dist = [], [], []
        for t in batch["text"].to_pylist():
            words = (t or "").split(" ")
            a, b = words[0], words[-1]
            w1.append(a)
            w2.append(b)
            # DuckDB's levenshtein is BYTE-oriented (a 2-byte 'ü' costs 2
            # edits); compare UTF-8 bytes so non-ASCII words match the oracle
            dist.append(levenshtein(a.encode("utf-8"), b.encode("utf-8")))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "w1": pa.array(w1, pa.string()),
                "w2": pa.array(w2, pa.string()),
                "edit_dist": pa.array(dist, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def sentence_stats(sf_dir: str) -> "rd.Dataset":
    """Per-doc sentence-ender count (the ``n_sentences`` quality signal,
    SURVEY §2.2 M10 as a dataset op).  Same semantics as
    ``stages/quality.py``: max(count of ender chars, 1 if any words).
    Map-only (seven ``count_substring`` kernel passes + an element-wise
    max — no per-row Python); oracle = regexp_replace length arithmetic."""
    _ENDERS = (".", "!", "?", "…", "。", "！", "？")

    def f(batch: pa.Table) -> pa.Table:
        t = _text_col(batch)
        ends = pc.count_substring(t, _ENDERS[0]).cast(pa.int64())
        for e in _ENDERS[1:]:
            ends = pc.add(ends, pc.count_substring(t, e).cast(pa.int64()))
        # a non-empty space-split token exists iff any non-space char does
        has_words = pc.not_equal(pc.utf8_trim(t, " "), "").cast(pa.int64())
        return pa.table(
            {"doc_id": batch["doc_id"], "n_sentences": pc.max_element_wise(ends, has_words)}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def char_bigram_top50(sf_dir: str) -> "rd.Dataset":
    """Global char-bigram frequency, top 50 (SURVEY §2.2 M11 at dataset
    scale).  Pre-aggregated per batch exactly like ``word_freq_top100`` —
    the shuffle moves one row per distinct bigram per batch, never one per
    character.  The batch flattens to ONE uint32 codepoint array (utf-32
    re-encode), bigrams are packed-int64 shifts counted by ``np.unique``,
    and only the DISTINCT survivors are decoded back to strings — per-char
    Python never runs."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"bg": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
        txt = _text_col(batch)
        lens = pc.utf8_length(txt).to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(lens.sum())
        if total < 2:
            return empty
        codes = np.frombuffer(
            "".join(txt.to_pylist()).encode("utf-32-le"), dtype=np.uint32
        )
        valid = np.ones(total - 1, dtype=bool)
        ends = np.cumsum(lens)[:-1] - 1  # no bigram spans a doc boundary
        # trailing empty docs make an ends entry == total-1 (one past the
        # last bigram start) — clip both sides or the index walks off valid
        ends = ends[(ends >= 0) & (ends < total - 1)]
        valid[ends] = False
        if not valid.any():
            return empty
        packed = (codes[:-1].astype(np.int64) << 21) | codes[1:]
        uniq, cnts = np.unique(packed[valid], return_counts=True)
        bgs = [chr(p >> 21) + chr(p & 0x1FFFFF) for p in uniq.tolist()]
        return pa.table(
            {"bg": pa.array(bgs, pa.string()), "cnt": pa.array(cnts, pa.int64())}
        )

    agg = (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bg")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    return agg.sort(["cnt", "bg"], descending=[True, False]).limit(50)


def top_docs_per_lang(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Grouped top-k (SURVEY §2.6 at dataset scale): the ``k`` longest docs
    per language, deterministic tie-break (n_chars desc, doc_id asc).
    One small shuffle over 5 language groups; oracle = window row_number."""

    def topk(group: pa.Table) -> pa.Table:
        n = group["n_chars"].to_numpy(zero_copy_only=False)
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -n))[:k]
        return _restore_key(group.take(pa.array(order)), "lang", ("doc_id", "n_chars"))

    return (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(
            lambda b: _tag_key(b, "lang", ("doc_id", "n_chars")), batch_format="pyarrow"
        )
        .groupby(["lang_key", "lang_null"])
        .map_groups(topk, batch_format="pyarrow")
    )


def longest_docs_top100(sf_dir: str, k: int = 100) -> "rd.Dataset":
    """Global top-k by length (distributed sort + limit, SURVEY §2.6 T1-T3
    at corpus scale).  Each batch is first reduced to its own top-k
    (vectorized argpartition-style cut), so the global sort's input is
    bounded by k × n_batches rows — the corpus itself is never shuffled.
    Deterministic tie-break (n_chars desc, doc_id asc) matches the oracle."""

    def partial_topk(batch: pa.Table) -> pa.Table:
        n = batch["n_chars"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -n))[:k]
        return batch.take(pa.array(order))

    return (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(partial_topk, batch_format="pyarrow")
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(k)
    )


def _quantile_cont(v: np.ndarray, q: float) -> float:
    """Exact linear-interpolation quantile over a SORTED array.

    DuckDB's interpolation expression: lo*(1-frac) + hi*frac — written out
    literally so the float arithmetic matches the ``quantile_cont`` oracle
    bit-for-bit (np.percentile uses the algebraically equal
    lo + (hi-lo)*frac, which differs in the last ULP).  Shared by every
    quantile-parity query — do NOT 'simplify' the formula."""
    x = (len(v) - 1) * q
    lo = int(np.floor(x))
    hi = min(lo + 1, len(v) - 1)
    frac = x - lo
    return float(v[lo] * (1.0 - frac) + v[hi] * frac)


def lang_percentiles(sf_dir: str) -> "rd.Dataset":
    """Per-language length percentiles (p50/p90, linear interpolation —
    identical definition to DuckDB ``quantile_cont``).  Grouped exact
    quantile: one shuffle over 5 language keys, vectorized ``np.percentile``
    per group.  At 100 TB swap for a t-digest combine inside map_batches;
    exact is fine while each group's values fit one block."""

    def pcts(group: pa.Table) -> pa.Table:
        v = group["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.sort(v[~np.isnan(v)])  # quantile_cont ignores NULLs
        lang = None if group["lang_null"][0].as_py() else group["lang_key"][0].as_py()
        p50 = _quantile_cont(v, 0.5) if len(v) else None
        p90 = _quantile_cont(v, 0.9) if len(v) else None
        return pa.table(
            {
                "lang": pa.array([lang], pa.string()),
                "p50_chars": pa.array([p50], pa.float64()),
                "p90_chars": pa.array([p90], pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(lambda b: _tag_key(b, "lang", ("n_chars",)), batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .map_groups(pcts, batch_format="pyarrow")
    )


def length_outlier_filter(sf_dir: str, q: float = 0.99) -> "rd.Dataset":
    """Two-pass statistical filter: drop docs longer than their language's
    p99 length — the stats-pass → broadcast-cutoffs → filter-pass shape
    every corpus curation recipe uses (outlier trimming, perplexity
    cutoffs, per-lang quality thresholds).

    Pass 1 computes the exact per-lang quantile (same ``quantile_cont``
    interpolation as :func:`lang_percentiles`, so DuckDB parity is
    bit-exact) — its output is one row per language, so collecting it on
    the driver is bounded by language count, not corpus size.  Pass 2 is a
    map-only filter against the broadcast cutoff dict; the corpus itself
    never shuffles.

    Partitioning assumption: the stats pass puts each language's lengths in
    one reducer (exact quantile needs the whole group).  At 100 TB swap
    pass 1 for the mergeable quantile digest
    (:func:`lang_percentiles_sketch`) — pass 2 and the broadcast are
    unchanged."""

    def cut(group: pa.Table) -> pa.Table:
        v = group["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.sort(v[~np.isnan(v)])  # quantile_cont ignores NULLs
        lang = None if group["lang_null"][0].as_py() else group["lang_key"][0].as_py()
        # all-NULL lang group: cutoff NULL -> n_chars <= NULL never holds,
        # the keep pass's NaN compare drops every row, matching the oracle
        return pa.table(
            {
                "lang": pa.array([lang], pa.string()),
                "cutoff": pa.array([_quantile_cont(v, q) if len(v) else None], pa.float64()),
            }
        )

    cuts = (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(lambda b: _tag_key(b, "lang", ("n_chars",)), batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .map_groups(cut, batch_format="pyarrow")
        .to_pandas()  # bounded: one row per language
    )
    # empty corpus: the map_groups frame has no columns; no cutoffs exist
    # (pandas reads the NULL-lang row's key back as NaN; normalize to None)
    cutoff = (
        {}
        if cuts.empty
        else {
            (None if pd.isna(l) else l): c for l, c in zip(cuts["lang"], cuts["cutoff"])
        }
    )

    def keep(batch: pa.Table) -> pa.Table:
        # NULL-lang docs are DROPPED, not kept: the oracle's JOIN cut USING
        # (lang) never matches a NULL key (NULL = NULL is not true)
        lim = np.array(
            [
                -np.inf if l is None else cutoff.get(l, np.inf)
                for l in batch["lang"].to_pylist()
            ],
            dtype=np.float64,
        )
        mask = batch["n_chars"].to_numpy(zero_copy_only=False) <= lim
        return batch.filter(pa.array(mask)).select(["doc_id", "lang", "n_chars"])

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        keep, batch_format="pyarrow"
    )


def documents_profile(sf_dir: str) -> "pd.DataFrame":
    """One-row data-quality profile of the documents table: row count, null
    count, length min/max, distinct languages and sources — the audit every
    pipeline stage boundary should emit before 100 TB flows into the next
    job.

    ONE scan, one bounded exchange (r4: this was previously three separate
    Ray executions — a stats pass plus one full column scan per distinct
    count — which tripled the per-query scheduling/scan cost): every batch
    folds row-count/null/min/max into a single ``kind=0`` partial row with
    Arrow kernels AND emits its batch-DISTINCT non-null langs (``kind=1``)
    and sources (``kind=2``) as key rows (COUNT(DISTINCT) ignores NULLs,
    and dropping them also sidesteps Ray's NULL-string groupby crash).
    The (kind, key) groupby then carries ≤ batches + batches×(catalog)
    rows, and the only ``take_all`` is bounded by 1 + n_langs + n_sources
    rows; at open-vocabulary cardinality swap the key rows for the HLL
    sketch (:func:`distinct_words_per_lang_hll` pattern).  No corpus
    materialization anywhere."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch["text"]
        nc = batch["n_chars"]
        kinds = [np.zeros(1, np.int64)]
        keys = [[""]]
        langs = pc.unique(batch["lang"].combine_chunks().drop_null())
        srcs = pc.unique(batch["source"].combine_chunks().drop_null())
        kinds += [np.ones(len(langs), np.int64), np.full(len(srcs), 2, np.int64)]
        keys += [langs.to_pylist(), srcs.to_pylist()]
        n_extra = len(langs) + len(srcs)
        z = np.zeros(n_extra, np.int64)
        return pa.table(
            {
                "kind": pa.array(np.concatenate(kinds), pa.int64()),
                "key": pa.array(sum(keys, []), pa.string()),
                "n_docs": pa.array(np.r_[len(batch), z], pa.int64()),
                "null_text": pa.array(np.r_[int(t.null_count), z], pa.int64()),
                "min_chars": pa.concat_arrays(
                    [
                        pa.array([pc.min(nc).as_py()], pa.int64()),
                        pa.nulls(n_extra, pa.int64()),
                    ]
                ),
                "max_chars": pa.concat_arrays(
                    [
                        pa.array([pc.max(nc).as_py()], pa.int64()),
                        pa.nulls(n_extra, pa.int64()),
                    ]
                ),
            }
        )

    rows = (
        _docs(sf_dir, ["text", "n_chars", "lang", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("null_text", alias_name="null_text"),
            Min("min_chars", alias_name="min_chars"),
            Max("max_chars", alias_name="max_chars"),
        )
        .take_all()  # bounded: 1 + n_langs + n_sources rows
    )

    def _iv(x) -> int:
        # empty corpus: the aggregate yields None scalars; profile as zeros
        return 0 if x is None else int(x)

    stats = next((r for r in rows if r["kind"] == 0), {})
    n_langs = sum(1 for r in rows if r["kind"] == 1)
    n_sources = sum(1 for r in rows if r["kind"] == 2)
    return pd.DataFrame(
        {
            "n_docs": [_iv(stats.get("n_docs"))],
            "null_text": [_iv(stats.get("null_text"))],
            "min_chars": [_iv(stats.get("min_chars"))],
            "max_chars": [_iv(stats.get("max_chars"))],
            "n_langs": [int(n_langs)],
            "n_sources": [int(n_sources)],
        }
    )


def mixture_sample(sf_dir: str) -> "rd.Dataset":
    """Training-mix resampling: downsample each source to its target rate,
    deterministically — the static mixture-reweighting step (DoReMi-style
    fixed rates) that turns raw web shards into a balanced training mix.

    Rates here are a fixed demo policy ((source index mod 4 + 1)/4, so
    sources keep 25/50/75/100 %).  A doc survives iff the first 4 hex
    chars of ``md5(doc_id)`` are lexicographically ≤ the rate's inclusive
    hex threshold (``rate·65536 − 1`` as 4 lowercase hex digits) —
    equal-length lowercase hex compares like the integer, so the SQL
    oracle is the same string comparison.  Map-only, shuffle-free,
    reproducible across engines and runs (no RNG state to coordinate
    across workers); raising a source's rate keeps a superset of the
    previous sample, never a reshuffle."""

    def thresh(src: str) -> str:
        if src is None:
            # oracle parity: CASE CAST(substr(NULL, 4) AS INT) % 4 matches no
            # WHEN arm, so the ELSE 'ffff' keeps every NULL-source doc
            return "ffff"
        if src[3:].isdecimal():
            # the primary contract: 'src<N>' sources rate by index mod 4
            m = int(src[3:]) % 4
        else:
            # non-'srcN' sources fall back to name length, mirroring the
            # oracle's coalesce(TRY_CAST(substr(source,4) AS INT), length(source))
            m = len(src) % 4
        rate = (m + 1) / 4.0
        return format(int(rate * 65536) - 1, "04x")  # inclusive upper bound

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        keep = [
            i
            for i, (d, s) in enumerate(zip(ids, srcs))
            if hashlib.md5(str(d).encode()).hexdigest()[:4] <= thresh(s)
        ]
        return batch.take(pa.array(keep, pa.int64())).select(["doc_id", "source"])

    return _docs(sf_dir, ["doc_id", "source"]).map_batches(f, batch_format="pyarrow")


def global_length_rank(sf_dir: str) -> "rd.Dataset":
    """Exact global rank of every document by (n_chars desc, doc_id asc) —
    the distributed row_number/zipWithIndex primitive, built the way
    distributed sorts assign positions: a HISTOGRAM pass plus a per-key
    rank pass, never a single-reducer global sort.

    Pass 1 groups by n_chars and counts — the shuffle and the driver
    collect are bounded by DISTINCT LENGTHS (≤ the 10 MiB doc-size cap),
    not corpus size.  The cumulative histogram gives each length its
    global offset; pass 2 ranks within each equal-length group by doc_id
    and adds the broadcast offset.  Oracle: SQL ``row_number()`` window.

    Partitioning assumption: one equal-length TIE GROUP fits a reducer.  If
    a single length dominates (e.g. truncated-at-cap docs), apply the same
    histogram trick recursively inside that group on a doc_id range key —
    the offsets compose."""
    hist = (
        _docs(sf_dir, ["n_chars"])
        .groupby("n_chars")
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # bounded by distinct lengths
    )
    if hist.empty:  # empty corpus: the aggregate frame has no columns
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        )
    # DESC NULLS LAST (DuckDB's default): pandas na_position='last' puts the
    # NULL-length group after every real length in the cumulative offsets
    hist = hist.sort_values("n_chars", ascending=False, na_position="last")
    counts = hist["n"].to_numpy(dtype=np.int64)
    offsets = {
        (None if pd.isna(x) else int(x)): o
        for x, o in zip(hist["n_chars"].tolist(), (np.cumsum(counts) - counts).tolist())
    }

    def rank_group(group: pa.Table) -> pa.Table:
        ids = np.sort(group["doc_id"].to_numpy(zero_copy_only=False))
        nch = group["n_chars"][0].as_py()
        base = offsets[None if nch is None else int(nch)]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": group["n_chars"],
                "rank": pa.array(np.arange(1, len(ids) + 1, dtype=np.int64) + base),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .groupby("n_chars")
        .map_groups(rank_group, batch_format="pyarrow")
    )


def sample_docs_hash(sf_dir: str) -> "rd.Dataset":
    """Deterministic content-addressed sampling (SURVEY §2.6 sampling row):
    keep docs whose md5(doc_id) starts with hex '0' (a ~1/16 sample).
    Hash-based → reproducible across engines and runs, no RNG state to
    coordinate across workers; map-only, no shuffle."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        keep = [
            i
            for i, d in enumerate(ids)
            if hashlib.md5(str(d).encode()).hexdigest()[0] == "0"
        ]
        return batch.take(pa.array(keep, pa.int64())).select(
            ["doc_id", "lang", "n_chars"]
        )

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        f, batch_format="pyarrow"
    )


def distinct_words_per_lang(sf_dir: str) -> "rd.Dataset":
    """Vocabulary size per language — grouped DISTINCT count (G5 family,
    ``merge_wordlists.ipynb``; the per-language vocabulary measure).

    Two grouped stages, both shuffle-*reduced*: batches emit per-batch
    unique (lang, word) pairs (map-side dedup), the first groupby dedups
    globally, then per-batch partial counts feed a tiny per-lang sum.  The
    shuffle therefore moves |vocab| rows, never |tokens|."""

    def pairs(batch: pa.Table) -> pa.Table:
        # NULL lang keeps its own group ((filled, is-null) two-key); NULL
        # text yields NO words — the oracle's string_split(NULL) unnests to
        # zero rows, unlike the ''-one-empty-token convention elsewhere.
        # Null list entries contribute 0 to the repeat counts and nothing
        # to flatten(), so NULL text drops out without a row filter; batch
        # distinctness runs through Arrow's C++ hash groupby.
        words = _one_chunk(pc.split_pattern(_one_chunk(batch["text"]), " "))
        flat = _one_chunk(words.flatten())
        n = (
            pc.fill_null(pc.list_value_length(words), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        rep = pa.array(np.repeat(np.arange(len(words), dtype=np.int64), n))
        lk, ln = _null_safe_key(_one_chunk(batch["lang"]))
        return (
            pa.table(
                {
                    "lang_key": _one_chunk(lk).take(rep),
                    "lang_null": _one_chunk(ln).take(rep),
                    "word": flat,
                }
            )
            .group_by(["lang_key", "lang_null", "word"])
            .aggregate([])
        )

    distinct_pairs = (
        _docs(sf_dir, ["text", "lang"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "word"])
        .aggregate(Count(alias_name="_n"))
    )

    def lang_partial(batch: pa.Table) -> pa.Table:
        langs = np.asarray(batch["lang_key"].to_pylist(), dtype=object)
        lnull = batch["lang_null"].to_numpy(zero_copy_only=False)
        us, sinv = np.unique(langs, return_inverse=True)
        uk, counts = np.unique(sinv.astype(np.int64) * 2 + lnull, return_counts=True)
        return pa.table(
            {
                "lang_key": pa.array(list(us[uk // 2]), pa.string()),
                "lang_null": pa.array((uk % 2).astype(bool), pa.bool_()),
                "n_words": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return (
        distinct_pairs.map_batches(lang_partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .aggregate(Sum("n_words", alias_name="n_words"))
        .map_batches(
            lambda b: _restore_key(b, "lang", ("n_words",)), batch_format="pyarrow"
        )
    )


def user_rolling_avg(sf_dir: str, window: int = 3) -> "rd.Dataset":
    """Per-user rolling mean of event value over the trailing ``window`` rows
    (ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) — the bounded-window ordered
    aggregate (SURVEY §2.9: streaming-shaped, expressed as groupby(key) +
    per-group ordered compute; ordering key (ts, event_id) is total).

    Exactness: values become integer cents BEFORE the window sum, so the
    rolling sum is order-independent int math and the final divide is one
    float op — identical to the SQL oracle, no float-accumulation drift.
    Scale: one shuffle on user_id; each group is one user's events."""

    def roll(group: pa.Table) -> pa.Table:
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        g = group.take(pa.array(order))
        # SQL window sum skips NULL values (a NaN would poison the cumsum);
        # count(*) still counts the rows, and an all-NULL window yields a
        # NULL average, not 0
        val = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        vok = ~np.isnan(val)
        cents = np.where(vok, np.floor(np.nan_to_num(val) * 100.0 + 0.5), 0).astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(cents)))
        vsum = np.concatenate(([0], np.cumsum(vok.astype(np.int64))))
        n = len(cents)
        lo = np.maximum(np.arange(n) - (window - 1), 0)
        wsum = csum[np.arange(n) + 1] - csum[lo]
        wval = vsum[np.arange(n) + 1] - vsum[lo]
        wcnt = np.arange(n) + 1 - lo
        return pa.table(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "ts": g["ts"],
                "rolling_avg": pa.array(
                    (wsum / 100.0) / wcnt, pa.float64(), mask=(wval == 0)
                ),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])
        .groupby("user_id")
        .map_groups(roll, batch_format="pyarrow")
    )


def distinct_words_per_lang_hll(sf_dir: str, p: int = 12) -> "rd.Dataset":
    """Approximate per-language vocabulary via HyperLogLog — the 100 TB
    variant of ``distinct_words_per_lang``.  Per-batch partials are fixed
    2^p-byte register arrays (one per language seen in the batch); the
    shuffle moves O(langs × 4 KiB) regardless of corpus size, and the merge
    (elementwise max) is order-independent.  ~1.04/sqrt(2^p) ≈ 1.6% rel
    error at p=12.  See ``functions/sketches.py``."""
    from language_identification_ray.functions import sketches as sk
    from language_identification_ray.stages.dedup import _hash_words32

    def partial(batch: pa.Table) -> pa.Table:
        # Vectorized: ONE split + ONE hash pass over the whole batch, words
        # bucketed to their doc's (filled, is-null) lang key by repeat codes;
        # duplicate words need no per-doc set() — HLL register max-update is
        # idempotent, so registers are identical either way.
        words = _word_lists(batch)
        n = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        lk, ln = _null_safe_key(_one_chunk(batch["lang"]))
        doc_keys = list(zip(lk.to_pylist(), ln.to_pylist()))
        codes, uniq = pd.factorize(pd.Series(doc_keys, dtype=object), sort=True)
        W = _hash_words32(_one_chunk(words.flatten()).to_pylist())
        wcodes = np.repeat(codes, n)
        order = np.argsort(wcodes, kind="stable")
        bounds = np.searchsorted(wcodes[order], np.arange(len(uniq) + 1))
        Ws = W[order]
        regs_out = []
        for g in range(len(uniq)):
            regs = sk.hll_empty(p)
            sk.hll_add_hashes(regs, Ws[bounds[g] : bounds[g + 1]], p)
            regs_out.append(regs.tobytes())
        return pa.table(
            {
                "lang_key": pa.array([k for k, _ in uniq], pa.string()),
                "lang_null": pa.array([bool(b) for _, b in uniq], pa.bool_()),
                "regs": pa.array(regs_out, pa.binary()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        regs = sk.hll_empty(p)
        for b in group["regs"].to_pylist():
            regs = sk.hll_merge(regs, np.frombuffer(b, dtype=np.uint8))
        lang = None if group["lang_null"][0].as_py() else group["lang_key"][0].as_py()
        return pa.table(
            {
                "lang": pa.array([lang], pa.string()),
                "n_words_approx": pa.array([sk.hll_estimate(regs)], pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["text", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .map_groups(merge, batch_format="pyarrow")
    )


def lang_percentiles_sketch(sf_dir: str, k: int = 256) -> "rd.Dataset":
    """Per-language p50/p90 via a mergeable quantile digest — the 100 TB
    variant of ``lang_percentiles`` (which holds each group's raw values in
    one block).  Partials are ≤ k centroids per language per batch; the
    shuffle moves O(langs × k) floats.  See ``functions/sketches.py``."""
    from language_identification_ray.functions import sketches as sk

    def partial(batch: pa.Table) -> pa.Table:
        # packed-int (filled-code*2 + is-null) segmentation, same pattern
        # as the other two-key partials — NULL lang is its own group
        lnull = pc.is_null(batch["lang"]).to_numpy(zero_copy_only=False)
        langs_np = np.asarray(
            pc.fill_null(batch["lang"], "").to_pylist(), dtype=object
        )
        us, sinv = np.unique(langs_np, return_inverse=True)
        comb = sinv.astype(np.int64) * 2 + lnull
        uk = np.unique(comb)
        vals_np = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        out_key, out_null, out_vals, out_wts = [], [], [], []
        for g in uk:
            v, w = sk.qsketch_from_values(vals_np[comb == g], k)
            out_key.append(us[g // 2])
            out_null.append(bool(g % 2))
            out_vals.append(v.tolist())
            out_wts.append(w.tolist())
        return pa.table(
            {
                "lang_key": pa.array(out_key, pa.string()),
                "lang_null": pa.array(out_null, pa.bool_()),
                "qs_vals": pa.array(out_vals, pa.list_(pa.float64())),
                "qs_wts": pa.array(out_wts, pa.list_(pa.float64())),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        vals = np.empty(0, dtype=np.float64)
        wts = np.empty(0, dtype=np.float64)
        for v, w in zip(group["qs_vals"].to_pylist(), group["qs_wts"].to_pylist()):
            vals, wts = sk.qsketch_merge(vals, wts, np.asarray(v), np.asarray(w), k)
        lang = None if group["lang_null"][0].as_py() else group["lang_key"][0].as_py()
        return pa.table(
            {
                "lang": pa.array([lang], pa.string()),
                "p50_chars": pa.array([sk.qsketch_quantile(vals, wts, 0.5)], pa.float64()),
                "p90_chars": pa.array([sk.qsketch_quantile(vals, wts, 0.9)], pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .map_groups(merge, batch_format="pyarrow")
    )


def word_freq_top100_mg(sf_dir: str, k: int = 65536) -> "rd.Dataset":
    """Heavy hitters via Misra–Gries mergeable summaries — the 100 TB
    variant of ``word_freq_top100``.  Each batch partial is MG-compressed
    to ≤ k (word, cnt) entries BEFORE the shuffle, so the exchange is
    bounded by k per batch no matter how large the vocabulary grows; the
    final groupby + top-100 runs over summaries, not the raw vocabulary.

    Counts are exact while each partial holds ≤ k distinct words (true at
    every test scale factor — hence the shared SQL oracle) and become
    lower bounds with error ≤ total_tokens/(k+1) beyond that, which still
    identifies every word with frequency above that bound (the MG
    guarantee).  See ``functions/sketches.py``."""
    from language_identification_ray.functions import sketches as sk

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(_one_chunk(_word_lists(batch).flatten()))
        words = np.asarray(vc.field("values").to_pylist(), dtype=object)
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        words, cnts = sk.mg_compress(words, cnts, k)
        return pa.table({"word": pa.array(words, pa.string()), "cnt": pa.array(cnts, pa.int64())})

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "word"], descending=[True, False])
        .limit(100)
    )


def lang_stats_salted(sf_dir: str, n_salts: int = 8) -> "rd.Dataset":
    """``lang_stats`` computed through an explicit SALTED two-stage groupby —
    the skew-rebalance pattern the north_rule requires for power-law
    language keys (eng dominates web text; SURVEY §4.1 'skew' row).

    Stage 1 groups by (lang, salt) where salt = md5(doc_id) % n_salts, so a
    hot language's rows spread over n_salts reducers instead of one; stage 2
    combines the ≤ langs × n_salts partials (sums/counts are additive, the
    mean is recovered from them).  Result is IDENTICAL to the unsalted
    groupby — proven by sharing ``lang_stats``'s SQL oracle."""

    def salt(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        s = [int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16) % n_salts for d in ids]
        key, isnull = _null_safe_key(batch["lang"])
        return pa.table(
            {
                "lang_key": key,
                "lang_null": isnull,
                "salt": pa.array(s, pa.int32()),
                "n_chars": batch["n_chars"],
                # SQL avg(n_chars) divides by the NON-NULL count, not n_docs
                "n_vals": pc.is_valid(batch["n_chars"]).cast(pa.int64()),
            }
        )

    partials = (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(salt, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "salt"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
            Sum("n_vals", alias_name="n_vals"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        nv = batch["n_vals"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = batch["total_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        lang = pc.if_else(
            batch["lang_null"], pa.scalar(None, pa.string()), batch["lang_key"]
        )
        # all-NULL group: avg is NULL (SQL), never 0/0
        avg = np.where(nv > 0, tot / np.maximum(nv, 1.0), np.nan)
        return pa.table(
            {
                "lang": lang,
                "n_docs": batch["n_docs"],
                "total_chars": batch["total_chars"],
                "avg_chars": pa.array(avg, pa.float64(), from_pandas=True),
            }
        )

    return (
        partials.groupby(["lang_key", "lang_null"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_chars", alias_name="total_chars"),
            Sum("n_vals", alias_name="n_vals"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


class FuzzySpellStage:
    """Actor-pool stage exposing A8 (fuzzy word index, ``state/fuzzy.py``)
    and A10 (Norvig spell corrector, ``functions/spell.py``) as a driver
    query: per document, fuzzy-nearest and edit-distance correction of its
    first word against a broadcast English seed vocabulary.  Index + corrector
    built ONCE per actor in ``__init__`` (reference: module-global indexes,
    ``dictionary_langid/datatypes.py:477-617``, ``pdfs/spellcheck/spell.py``)."""

    def __init__(self):
        from language_identification_ray.functions.spell import SpellCorrector
        from language_identification_ray.state.fuzzy import FuzzyWordIndex
        from language_identification_ray.state.seed_corpus import SEED_SENTENCES

        text = " ".join(SEED_SENTENCES.get("en", []))
        self.idx = FuzzyWordIndex().add_words(sorted(set(text.lower().split())))
        self.spell = SpellCorrector(corpus_text=text)
        # edits2 candidate generation is ~0.1 s per unknown word; web text
        # repeats first words heavily, so memoize per actor
        self._memo: dict = {}

    def _lookup(self, w: str) -> tuple:
        hit = self._memo.get(w)
        if hit is None:
            hit = (self.idx.best(w) or "", self.spell.correction(w))
            self._memo[w] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        firsts, fuzzy, corrected = [], [], []
        for t in batch["text"].to_pylist():
            parts = (t or "").split(" ")
            w = parts[0].lower() if parts and parts[0] else ""
            firsts.append(w)
            f, c = self._lookup(w) if w else ("", "")
            fuzzy.append(f)
            corrected.append(c)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "first_word": pa.array(firsts, pa.string()),
                "fuzzy_match": pa.array(fuzzy, pa.string()),
                "spell_correction": pa.array(corrected, pa.string()),
            }
        )


def fuzzy_correct_sample(sf_dir: str) -> "rd.Dataset":
    """A8/A10 through the Dataset API (rows-only; not SQL-expressible)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        FuzzySpellStage, batch_format="pyarrow", batch_size=256, concurrency=(1, 4)
    )


# ---------------------------------------------------------------------------
# LLM-training-data text ops: BPE-ish token counting + winnowing fingerprints
# (task-brief §"Text analysis"; both map-only, shuffle-free, oracle-backed)

# GPT-2-style pre-tokenizer regex, simplified to the RE2 subset (no lookahead)
# so pyarrow (RE2) and the DuckDB oracle (also RE2) match byte-for-byte.
BPE_PRETOKEN_RE = r"'(?:s|t|ll|ve|re|d|m)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def token_count_bpe(sf_dir: str) -> "rd.Dataset":
    """Per-doc BPE-ish pre-token count (contractions, letter runs, digit
    runs, punctuation runs, whitespace runs).  One vectorized RE2 scan per
    batch (``pc.count_substring_regex``) — no Python per row, no shuffle;
    the realistic "how many tokens will the tokenizer see" estimator for
    corpus budgeting at 100 TB."""

    def f(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], BPE_PRETOKEN_RE).cast(pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "bpe_tokens": n})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


_WINNOW_B = np.uint32(31)


def _segment_aranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """concat([arange(s, s+c) for s, c in zip(starts, counts)]) without the
    Python loop: repeat each segment start, add a per-segment 0..c-1 ramp."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    base = np.repeat(starts.astype(np.int64), counts)
    seg_first = np.repeat(np.cumsum(counts) - counts, counts)
    return base + (np.arange(total, dtype=np.int64) - seg_first)


def _winnow_batch(texts, ids: np.ndarray, k: int, w: int):
    """Vectorized winnowing (Schleimer, Wilkerson & Aiken, SIGMOD 2003):
    rolling base-31 mod-2^32 Horner hash over codepoints → k-gram hashes →
    min of each w-window → per-doc distinct minima.

    All docs in the batch are processed on ONE flattened codepoint array
    (uint32 — this host emulates 64-bit multiplies ~250× slower); windows
    that would cross a doc boundary are masked out by pointer arithmetic.
    Docs shorter than ``k`` chars hash their whole text (the SQL oracle's
    clipped ``list_slice`` does the same).  Returns (doc_ids, fps) exploded.
    """
    cps_list = [
        np.frombuffer((t or "").encode("utf-32-le"), dtype=np.uint32) for t in texts
    ]
    lens = np.fromiter((len(c) for c in cps_list), dtype=np.int64, count=len(cps_list))
    keep = lens > 0
    if not keep.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    cps_list = [c for c, m in zip(cps_list, keep) if m]
    ids = ids[keep]
    lens = lens[keep]
    flat = np.concatenate(cps_list)
    ptr = np.concatenate([[0], np.cumsum(lens)])

    # k-gram Horner hashes over the flat array (windows crossing doc
    # boundaries are computed then discarded — branch-free)
    n = len(flat)
    m = n - k + 1
    gh_parts, gdoc_parts = [], []
    if m > 0:
        h = np.zeros(m, dtype=np.uint32)
        for t in range(k):
            h = h * _WINNOW_B + flat[t : m + t]
        g_counts = np.maximum(lens - k + 1, 0)
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), g_counts)
        valid_starts = _segment_aranges(ptr[:-1], g_counts)
        gh_parts.append(h[valid_starts])
        gdoc_parts.append(doc_of)
    # short docs (0 < len < k): Horner over the whole text
    short = np.flatnonzero(lens < k)
    for d in short:
        c = flat[ptr[d] : ptr[d + 1]]
        hv = np.uint32(0)
        for x in c:
            hv = hv * _WINNOW_B + x
        gh_parts.append(np.array([hv], dtype=np.uint32))
        gdoc_parts.append(np.array([d], dtype=np.int64))
    gh = np.concatenate(gh_parts)
    gdoc = np.concatenate(gdoc_parts)
    # regroup contiguously by doc (short docs were appended out of order)
    order = np.argsort(gdoc, kind="stable")
    gh, gdoc = gh[order], gdoc[order]
    g_counts_all = np.bincount(gdoc, minlength=len(lens)).astype(np.int64)
    gptr = np.concatenate([[0], np.cumsum(g_counts_all)])

    # sliding w-window minima over the flat hash array, doc-masked
    G = len(gh)
    wm = G - w + 1
    mins_parts, mdoc_parts = [], []
    if wm > 0:
        mn = gh[:wm].copy()
        for t in range(1, w):
            np.minimum(mn, gh[t : wm + t], out=mn)
        w_counts = np.maximum(g_counts_all - w + 1, 0)
        mdoc = np.repeat(np.arange(len(lens), dtype=np.int64), w_counts)
        vstarts = _segment_aranges(gptr[:-1], w_counts)
        mins_parts.append(mn[vstarts])
        mdoc_parts.append(mdoc)
    short_g = np.flatnonzero((g_counts_all > 0) & (g_counts_all < w))
    if len(short_g):
        # per-segment min via ≤ w-2 shifted gathers (reduceat is unusable
        # here: its final segment silently extends to the end of the array)
        starts_s = gptr[:-1][short_g]
        cnts = g_counts_all[short_g]
        segmin = gh[starts_s]
        for t in range(1, int(cnts.max())):
            sel = np.flatnonzero(cnts > t)
            segmin[sel] = np.minimum(segmin[sel], gh[starts_s[sel] + t])
        mins_parts.append(segmin)
        mdoc_parts.append(short_g.astype(np.int64))
    mins = np.concatenate(mins_parts).astype(np.int64)
    mdoc = np.concatenate(mdoc_parts)

    # distinct (doc, fp): lexsort + consecutive-dedup (no 64-bit key mults)
    order = np.lexsort((mins, mdoc))
    mins, mdoc = mins[order], mdoc[order]
    first = np.concatenate(
        [[True], (mins[1:] != mins[:-1]) | (mdoc[1:] != mdoc[:-1])]
    )
    return ids[mdoc[first]], mins[first]


def winnow_fingerprints(sf_dir: str, k: int = 5, w: int = 4) -> "rd.Dataset":
    """Rolling-hash document fingerprints (winnowing): per doc, the distinct
    minima of each ``w``-window of char ``k``-gram hashes — the classic
    near-dup / plagiarism sketch whose size adapts to document length.
    Map-only and shuffle-free; output exploded as (doc_id, fp) so downstream
    fingerprint-equality joins are plain hash shuffles on an int64 key."""

    def f(batch: pa.Table) -> pa.Table:
        out_ids, fps = _winnow_batch(
            batch["text"].to_pylist(), batch["doc_id"].to_numpy(), k, w
        )
        return pa.table(
            {"doc_id": pa.array(out_ids, pa.int64()), "fp": pa.array(fps, pa.int64())}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embedding-table ops: per-label centroids + int8 quantization
# (task-brief §"Similarity search" adjuncts; both pre-aggregated/map-only)


def label_centroids(sf_dir: str) -> "rd.Dataset":
    """Per-label mean embedding, exploded to (label, dim, centroid) rows.

    Scale shape: each batch emits ONE partial (sum, count) row per
    (label, dim) — a few hundred rows — so the groupby shuffles partials,
    never vectors.  The classic centroid step of distributed k-means /
    near-dup clustering.  Values rounded to 5 decimals so float summation
    order is engine-independent."""
    from language_identification_ray.stages.knn import _as_matrix, _drop_null_rows

    def partials(batch: pa.Table) -> pa.Table:
        batch = _drop_null_rows(batch, "embedding")  # SQL: no unnest rows
        mat = _as_matrix(batch["embedding"])
        # NULL labels keep their own centroid group (SQL GROUP BY keeps
        # one); a NULL int32 would otherwise astype to garbage via NaN
        lnull = pc.is_null(batch["label"]).to_numpy(zero_copy_only=False)
        labels = (
            pc.fill_null(batch["label"], 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        packed = (labels << 1) | lnull  # labels < 2^62 by the int32 input type
        uk, inv = np.unique(packed, return_inverse=True)
        dim = mat.shape[1]
        sums = np.zeros((len(uk), dim), dtype=np.float64)
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(uk)).astype(np.int64)
        return pa.table(
            {
                "label_key": pa.array(np.repeat(uk >> 1, dim), pa.int64()),
                "label_null": pa.array(np.repeat((uk & 1).astype(bool), dim), pa.bool_()),
                "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64), len(uk)), pa.int64()),
                "psum": pa.array(sums.ravel(), pa.float64()),
                "pcount": pa.array(np.repeat(counts, dim), pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        c = batch["sum(psum)"].to_numpy(zero_copy_only=False)
        n = batch["sum(pcount)"].to_numpy(zero_copy_only=False)
        cent = np.round(c / n, 5)
        label = pc.if_else(
            batch["label_null"],
            pa.scalar(None, pa.int32()),
            batch["label_key"].cast(pa.int32()),
        )
        return pa.table(
            {
                "label": label,
                "dim": batch["dim"],
                "centroid": pa.array(cent, pa.float64()),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["label_key", "label_null", "dim"])
        .aggregate(Sum("psum"), Sum("pcount"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def embedding_quantize(sf_dir: str) -> "rd.Dataset":
    """Symmetric int8 quantization per vector: scale = max|x| / 127,
    q_i = floor(x_i/scale + 0.5).  Emits per-vector summary columns
    (scale, q_sum, q_min, q_max) — scalar outputs keep the oracle compare
    dtype-exact while the full int8 payload shape is exercised in tests.
    Map-only, one vectorized pass; the standard embedding-compression step
    before an ANN index build at 100 TB."""
    from language_identification_ray.stages.knn import _as_matrix

    def f(batch: pa.Table) -> pa.Table:
        # a NULL embedding KEEPS its row with NULL outputs (SQL
        # list_transform(NULL) -> NULL all the way down), unlike the
        # distance kernels where a NULL list simply never unnests
        emb = batch["embedding"].combine_chunks()
        valid = pc.is_valid(emb).to_numpy(zero_copy_only=False)
        n = len(valid)
        scale_f = np.zeros(n, np.float64)
        qs = np.zeros(n, np.int64)
        qmin = np.zeros(n, np.int64)
        qmax = np.zeros(n, np.int64)
        if valid.any():
            mat = _as_matrix(batch.filter(pa.array(valid))["embedding"])
            scale = np.abs(mat).max(axis=1) / 127.0
            safe = np.where(scale == 0.0, 1.0, scale)
            q = np.floor(mat / safe[:, None] + 0.5)
            q[scale == 0.0] = 0.0
            q = q.astype(np.int64)
            scale_f[valid] = np.round(scale, 6)
            qs[valid] = q.sum(axis=1)
            qmin[valid] = q.min(axis=1)
            qmax[valid] = q.max(axis=1)
        inval = ~valid
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "scale": pa.array(scale_f, pa.float64(), mask=inval),
                "q_sum": pa.array(qs, pa.int64(), mask=inval),
                "q_min": pa.array(qmin, pa.int64(), mask=inval),
                "q_max": pa.array(qmax, pa.int64(), mask=inval),
            }
        )

    return rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(f, batch_format="pyarrow")


def tfidf_top5_per_lang(sf_dir: str, k: int = 5) -> "rd.Dataset":
    """Most-distinctive terms per language by tf-idf over languages:
    score(lang, word) = tf(lang, word) × ln(n_langs / n_langs_with_word).

    Scale shape: term frequencies are pre-counted per batch (one row per
    distinct (lang, word) in the batch, all-Arrow/numpy) so the shuffle
    carries vocabulary-sized partials, never the token stream.  ONE
    word-keyed groupby then computes, inside each word group, both the
    per-lang tf sums and the word's language-df — folding what would be a
    second aggregate plus a join into the same exchange (at 100 TB that
    join is a full re-shuffle of the vocabulary; here it never exists).
    n_langs comes from a lang-keyed count of the same partials — output
    bounded by the number of languages.  The per-lang top-k sorts rounded
    scores with a word tie-break so the cut is engine-deterministic."""
    docs = _docs(sf_dir, ["lang", "text"])

    def tf_partial(batch: pa.Table) -> pa.Table:
        """Per-batch (lang, word) counts, all-Arrow/numpy: split → flatten
        with lang repeated per token → dictionary-encode both columns →
        bincount the packed code pairs.  No per-row Python.  NULL langs
        take the dictionary's None slot and keep their own group through
        the (filled-key, is-null) two-key shuffle (SQL GROUP BY keeps
        one)."""
        words = pc.split_pattern(_text_col(batch), " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        n_tok = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        lang_codes = batch["lang"].combine_chunks().dictionary_encode()
        lidx = lang_codes.indices
        if lidx.null_count:
            lidx = pc.fill_null(lidx, len(lang_codes.dictionary))
        lang_ids = np.repeat(lidx.to_numpy(zero_copy_only=False).astype(np.int64), n_tok)
        ldict = lang_codes.dictionary.to_pylist() + [None]
        flat = words.flatten().dictionary_encode()
        word_ids = flat.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_words = len(flat.dictionary)
        if n_words == 0:
            return pa.table(
                {
                    "lang_key": pa.array([], pa.string()),
                    "lang_null": pa.array([], pa.bool_()),
                    "word": pa.array([], pa.string()),
                    "tf_part": pa.array([], pa.int64()),
                }
            )
        # int32 packing while it can't wrap (64-bit multiplies are emulated
        # ~250x slower on this host)
        kdt = np.int32 if len(ldict) * n_words < 2**31 else np.int64
        packed = lang_ids.astype(kdt) * kdt(n_words) + word_ids.astype(kdt)
        uniq, counts = np.unique(packed, return_counts=True)
        lang_vals = [ldict[i] for i in uniq // n_words]  # bounded: batch-unique pairs
        return pa.table(
            {
                "lang_key": pa.array([v or "" for v in lang_vals], pa.string()),
                "lang_null": pa.array([v is None for v in lang_vals], pa.bool_()),
                "word": flat.dictionary.take(pa.array(uniq % n_words)),
                "tf_part": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    partials = docs.map_batches(tf_partial, batch_format="pyarrow").materialize()
    # total distinct languages: lang-keyed count of the partials — one tiny
    # shuffle whose output is bounded by the language count at any scale.
    # COUNT(DISTINCT lang) in the oracle's nl CTE EXCLUDES the NULL lang,
    # while its per-word df CTE counts the NULL group like any other — so
    # n_langs skips the null group but word_group's n_with keeps it
    n_langs = sum(
        1
        for r in partials.groupby(["lang_key", "lang_null"]).aggregate(Count()).take_all()
        if not r["lang_null"]
    )

    def word_group(group: pa.Table) -> pa.Table:
        """All partials for one word: per-lang tf sums (segmented bincount)
        AND the word's language-df in a single pass — no join needed."""
        langs = group["lang_key"].combine_chunks().dictionary_encode()
        lidx = langs.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        lnull = group["lang_null"].to_numpy(zero_copy_only=False)
        comb = lidx * 2 + lnull
        uk, inv = np.unique(comb, return_inverse=True)
        tf_p = group["tf_part"].to_numpy(zero_copy_only=False).astype(np.float64)
        sums = np.bincount(inv, weights=tf_p, minlength=len(uk))
        n_with = len(uk)
        s = np.round(sums * np.log(float(n_langs) / float(n_with)), 5)
        return pa.table(
            {
                "lang_key": langs.dictionary.take(pa.array(uk // 2)),
                "lang_null": pa.array((uk % 2).astype(bool), pa.bool_()),
                "word": pa.array([group["word"][0].as_py()] * n_with, pa.string()),
                "tfidf": pa.array(s, pa.float64()),
            }
        )

    def topk(group: pa.Table) -> pa.Table:
        s = group["tfidf"].to_numpy(zero_copy_only=False)
        words = np.asarray(group["word"].to_pylist(), dtype=object)
        order = np.lexsort((words, -s))[:k]
        cut = group.take(pa.array(order))
        lang = pc.if_else(
            cut["lang_null"], pa.scalar(None, pa.string()), cut["lang_key"]
        )
        return pa.table(
            {"lang": lang, "word": cut["word"], "tfidf": cut["tfidf"]}
        )

    return (
        partials.groupby("word")
        .map_groups(word_group, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .map_groups(topk, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# training-data curation operators (scale extensions per the task brief)


class _ContaminationFlag:
    """Actor-pool flag stage: materializes the broadcast eval n-gram set
    once per actor in ``__init__`` (never per batch), then counts per-doc
    distinct hits against it."""

    def __init__(self, grams_ref, n: int, eval_mod: int):
        import ray

        self.grams = ray.get(grams_ref)
        self.n = n
        self.eval_mod = eval_mod

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, grams = self.n, self.grams
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % self.eval_mod != 0
        sub_ids = ids[keep]
        texts = np.asarray(batch["text"].to_pylist(), dtype=object)[keep]
        hits = np.zeros(len(sub_ids), np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").split(" ")
            doc_grams = {" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)}
            hits[i] = len(doc_grams & grams)
        return pa.table(
            {
                "doc_id": pa.array(sub_ids, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
                "contaminated": pa.array(hits > 0),
            }
        )


def decontaminate_docs(sf_dir: str, n: int = 4, eval_mod: int = 13) -> "rd.Dataset":
    """Benchmark decontamination (the GPT-3 appendix-C / Dolma shape): flag
    every training document that shares any word n-gram with the eval set.

    The eval set is the deterministic slice ``doc_id % eval_mod == 0`` — a
    stand-in for a held-out benchmark suite.  Scale shape: the eval n-gram
    set is BROADCAST, never shuffled.  It is built by one column-pruned scan
    whose per-batch partials are already distinct sets, unioned driver-side
    (benchmark suites are MBs by construction, independent of corpus size),
    shipped once via ``ray.put`` and materialized once per actor — so the
    100 TB training side sees a pure map-only pass with zero shuffle.
    Real pipelines use n = 8-13 (GPT-3 used 13); this fixture's low word
    entropy makes n = 4 the equivalent exercise of the same machinery.
    Output: (doc_id, n_hits = distinct contaminated n-grams, contaminated)."""
    import ray

    def eval_grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out: set = set()
        for t in np.asarray(batch["text"].to_pylist(), dtype=object)[ids % eval_mod == 0]:
            ws = (t or "").split(" ")
            out.update(" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    gram_set: set = set()
    gram_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(eval_grams, batch_format="pyarrow")
    for b in gram_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        gram_set.update(b["gram"].to_pylist())
    grams_ref = ray.put(frozenset(gram_set))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _ContaminationFlag,
        fn_constructor_args=(grams_ref, n, eval_mod),
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=(2, 8),
    )


def train_val_test_split(sf_dir: str) -> "rd.Dataset":
    """Deterministic content-addressed 3-way split (81.25 / 6.25 / 12.5 %).

    The first hex char of md5(doc_id) decides the split: < 'd' → train,
    'd' → val, else test (hex chars compare lexicographically, so < 'd' ⇔
    value < 13 — the same trick lets the SQL oracle reproduce it exactly).
    No RNG state, no coordination, no shuffle: any worker computes the same
    assignment, so the split is resume-safe and identical across cluster
    sizes.  The production form feeds ``write_parquet(partition_cols=
    ['split'])``; the query returns the per-doc assignment."""

    def f(batch: pa.Table) -> pa.Table:
        cs = [hashlib.md5(str(i).encode()).hexdigest()[0] for i in batch["doc_id"].to_pylist()]
        split = ["train" if c < "d" else ("val" if c == "d" else "test") for c in cs]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "split": pa.array(split, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(f, batch_format="pyarrow")


def semantic_dedup_docs(
    sf_dir: str,
    threshold: float = 0.4,
    block: str = "auto",
    n_cells: int = 16,
    probes: "int | None" = None,
) -> "rd.Dataset":
    """SemDeDup-shaped cross-table dedup: embedding near-dup pairs (cosine
    ≥ t within a label block) vote out the HIGHER vec_id of each pair; the
    surviving documents are selected by doc_id ↔ vec_id.

    Scale shape: pairs come from the triangle-sharded
    :func:`~language_identification_ray.stages.dedup.embedding_dup_pairs`
    (quadratic work spread over tile-pair reducers), and the corpus is
    filtered with a DISTRIBUTED anti-join in union-tag form: drop votes are
    unioned with the document rows under a shared schema and ONE
    doc_id-keyed groupby keeps groups with zero votes — never a driver-side
    drop set, because at 100 TB the dropped fraction is a meaningful share
    of the corpus.  (``Dataset.join`` is avoided deliberately: its hash
    shuffle builds schema-less empty tables for reducer partitions that
    receive no right-side rows, which pyarrow's join rejects — a sparse
    drop side, the NORMAL case for dedup, crashes it.  The union-tag
    groupby has no such failure mode and costs the same single shuffle.)

    ``block="auto"`` (default) size-gates the pair plan; all plans emit
    identical pairs.  At this kernel's default ``threshold=0.4`` the IVF
    cover radius cannot prune, so over-gate blocks stay on the exact
    label plan with a WIDENED tile fan (memory-bounded reducers, work
    still O(block²) spread over up to 16 tiles); at ``threshold >= 0.75``
    over-gate blocks route through lossless cluster-first IVF cell
    blocking (SemDeDup's actual recipe — pass a high threshold to get
    cell-bounded quadratic work at 100 TB).  ``block="ivf"`` /
    ``"label"`` pin a plan explicitly."""
    from language_identification_ray.stages.dedup import embedding_dup_pairs

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    pairs = embedding_dup_pairs(
        emb, threshold=threshold, block=block, n_cells=n_cells, probes=probes
    )

    def drop_rows(batch: pa.Table) -> pa.Table:
        ids = (
            batch["vec_b"].cast(pa.int64())
            if batch.num_rows and "vec_b" in batch.schema.names
            else pa.array([], pa.int64())
        )
        n = len(ids)
        return pa.table(
            {
                "doc_id": ids,
                "lang": pa.nulls(n, pa.string()),
                "n_chars": pa.nulls(n, pa.int64()),
                "is_drop": pa.array(np.ones(n, np.int64), pa.int64()),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "lang": batch["lang"],
                "n_chars": batch["n_chars"].cast(pa.int64()),
                "is_drop": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            }
        )

    doc_side = _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        doc_rows, batch_format="pyarrow"
    )
    drop_side = pairs.map_batches(drop_rows, batch_format="pyarrow")
    agg = (
        doc_side.union(drop_side)
        .groupby("doc_id")
        .aggregate(
            Sum("is_drop", alias_name="drop_votes"),
            Max("lang", alias_name="lang"),
            Max("n_chars", alias_name="n_chars"),
        )
    )

    def survivors(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(batch["drop_votes"], 0))
        return pa.table(
            {
                "doc_id": keep["doc_id"],
                "lang": keep["lang"],
                "n_chars": keep["n_chars"].cast(pa.int64()),
            }
        )

    return agg.map_batches(survivors, batch_format="pyarrow")


class _BloomScan:
    """Actor-pool scan stage: materializes the broadcast Bloom filter once
    per actor, then counts per-language new-vs-seen docs per batch."""

    def __init__(self, bloom_ref, k: int):
        import ray

        self.bits = np.frombuffer(ray.get(bloom_ref), dtype=np.uint8)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from language_identification_ray.functions import sketches as sk

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        new = ids % 2 == 1
        texts = np.asarray(batch["text"].to_pylist(), dtype=object)[new]
        # NULL langs keep their own count row (np.unique over a None-bearing
        # object array raises str-vs-None TypeError; two-key shuffle below)
        lang_arr = batch["lang"].combine_chunks()
        lnull = pc.is_null(lang_arr).to_numpy(zero_copy_only=False)[new]
        langs = np.asarray(
            pc.fill_null(lang_arr, "").to_pylist(), dtype=object
        )[new]
        h = np.array(
            [int(hashlib.md5((t or "").encode("utf-8")).hexdigest()[:8], 16) for t in texts],
            np.uint32,
        )
        seen = sk.bloom_contains_hashes(self.bits, h, self.k)
        us, sinv = np.unique(langs, return_inverse=True)
        comb = sinv.astype(np.int64) * 2 + lnull
        uk, inv = np.unique(comb, return_inverse=True)
        n_seen = np.bincount(inv, weights=seen, minlength=len(uk)).astype(np.int64)
        n_new = np.bincount(inv, minlength=len(uk)).astype(np.int64)
        return pa.table(
            {
                "lang_key": pa.array(list(us[uk // 2]), pa.string()),
                "lang_null": pa.array((uk % 2).astype(bool), pa.bool_()),
                "n_new_docs": pa.array(n_new, pa.int64()),
                "n_seen_docs": pa.array(n_seen, pa.int64()),
            }
        )


def incremental_dedup_bloom(sf_dir: str, m_bits: int = 1 << 17, k: int = 7) -> "rd.Dataset":
    """Incremental crawl dedup via a mergeable Bloom filter: the 'prior
    crawl' (even doc_ids) is summarized into one fixed m_bits-bit filter;
    the 'new crawl' (odd doc_ids) is scanned against the broadcast filter
    and per-language (n_new_docs, n_seen_docs) counts come back.

    Scale shape: every batch contributes ONE m/8-byte OR-mergeable partial,
    so the reduction moves O(n_batches × 16 KiB) — the membership set itself
    (billions of fingerprints at 100 TB) never shuffles and never leaves
    sketch space; the merged filter broadcasts once via ``ray.put``.  FP
    rate ≈ (1 − e^(−kn/m))^k, sized at ~10 bits per key; false positives
    over-count 'seen' (conservative for dedup), false negatives are
    impossible.  Fingerprints are md5-derived uint32s (engine-stable).
    Approximate by design → rows-only driver check; accuracy is pytest-gated
    against the exact set intersection (like the HLL / q-digest queries)."""
    import ray

    from language_identification_ray.functions import sketches as sk

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        prior = ids % 2 == 0
        texts = np.asarray(batch["text"].to_pylist(), dtype=object)[prior]
        bits = sk.bloom_empty(m_bits)
        h = np.array(
            [int(hashlib.md5((t or "").encode("utf-8")).hexdigest()[:8], 16) for t in texts],
            np.uint32,
        )
        sk.bloom_add_hashes(bits, h, k)
        return pa.table({"bloom": pa.array([bits.tobytes()], pa.binary())})

    merged = sk.bloom_empty(m_bits)
    parts = _docs(sf_dir, ["doc_id", "text"]).map_batches(partial, batch_format="pyarrow")
    for b in parts.iter_batches(batch_size=256, batch_format="pyarrow"):
        for blob in b["bloom"]:
            merged = sk.bloom_merge(merged, np.frombuffer(blob.as_py(), dtype=np.uint8))
    bloom_ref = ray.put(merged.tobytes())

    return (
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(
            _BloomScan,
            fn_constructor_args=(bloom_ref, k),
            batch_format="pyarrow",
            batch_size=1024,
            concurrency=(2, 8),
        )
        .groupby(["lang_key", "lang_null"])
        .aggregate(Sum("n_new_docs", alias_name="n_new_docs"), Sum("n_seen_docs", alias_name="n_seen_docs"))
        .map_batches(
            lambda b: _restore_key(b, "lang", ("n_new_docs", "n_seen_docs")),
            batch_format="pyarrow",
        )
    )


def dup_clusters(
    sf_dir: str,
    threshold: float = 0.4,
    max_iters: int = 50,
    block: str = "label",
    n_cells: int = 16,
    probes: "int | None" = None,
    small_graph_rows: int = 2_000_000,
) -> "rd.Dataset":
    """Connected components over the embedding near-dup pair graph:
    every document gets ``cluster_id`` = the smallest doc_id reachable
    through dup edges (singletons point at themselves).  The step real
    pipelines need between pairwise dedup and keep-one-per-cluster.

    Distributed min-label propagation, Ray-Data-shaped, on the
    EDGE-INDUCED SUBGRAPH only — nodes with no dup edge never enter the
    iteration (their cluster is themselves), so each round processes
    O(dup nodes) rows, not O(corpus).  A round is two groupbys and zero
    joins: label rows and edge rows are co-partitioned by a BUCKET key
    (node % n_buckets), ONE ``map_groups`` call per bucket resolves every
    edge's sender label with a sorted-key ``np.searchsorted`` gather and
    fans it to the peers (segment-vectorized — O(buckets) Python calls per
    round, not O(nodes); the per-node ``send`` it replaces was 10⁸ Python
    invocations/round at a 1%-dup 100 TB corpus), then Min per node.
    Labels only decrease, so the fixpoint test is "Sum(label) unchanged" —
    one tiny aggregate per round; convergence takes O(component diameter)
    rounds (near-dup clusters are near-cliques, diameter ~2; ``max_iters``
    bounds pathological chains).  The final corpus assignment is ONE
    vectorized union-tag groupby (docs as (doc_id, doc_id) ∪ propagated
    labels → Min) — the same single-shuffle shape as
    :func:`semantic_dedup_docs`, no driver-side label table.  The oracle
    is a DuckDB recursive CTE (reachability → min ancestor).

    ``block="ivf"`` swaps the pair source to cluster-first IVF cell
    blocking (the 100 TB path — quadratic work bounded by cell size;
    lossless with ``probes=None``), leaving propagation unchanged.

    **Size-gated plans** (the broadcast-join gate pattern of
    ``orders_by_mktsegment``): the dup-edge graph is DENSITY-bounded, not
    corpus-bounded — after thresholding it is typically orders of
    magnitude smaller than the corpus.  When the materialized edge list
    is ≤ ``small_graph_rows`` rows, a driver-side vectorized min-label
    pass with pointer-jumping (path compression — O(log diameter) numpy
    sweeps over the edge array) replaces the distributed iteration, and
    the corpus assignment becomes ONE broadcast-lookup map over documents
    (no shuffle at all).  Above the gate, the distributed propagation
    below runs unchanged.  Both plans produce the same min-reachable-id
    labels; the gated path is pinned against the oracle by the same
    hash-exact query row."""
    from language_identification_ray.stages.dedup import embedding_dup_pairs

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    pairs = embedding_dup_pairs(
        emb, threshold=threshold, block=block, n_cells=n_cells, probes=probes
    )

    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "vec_a" not in batch.schema.names:
            e = pa.array([], pa.int64())
            return pa.table({"node": e, "peer": e})
        a = batch["vec_a"].cast(pa.int64()).combine_chunks()
        b = batch["vec_b"].cast(pa.int64()).combine_chunks()
        return pa.table(
            {"node": pa.concat_arrays([a, b]), "peer": pa.concat_arrays([b, a])}
        )

    edges = pairs.map_batches(edge_rows, batch_format="pyarrow").materialize()

    n_edge_rows = edges.count()
    if n_edge_rows <= small_graph_rows:
        # ---- small-graph fast path: driver-side union-find, broadcast map
        et = pa.concat_tables(
            list(edges.iter_batches(batch_format="pyarrow"))
            or [pa.table({"node": pa.array([], pa.int64()), "peer": pa.array([], pa.int64())})]
        )
        e_n = et["node"].to_numpy(zero_copy_only=False)
        e_p = et["peer"].to_numpy(zero_copy_only=False)
        nodes = np.unique(e_n)  # edge_rows emits both directions: node covers all
        lbl = nodes.copy()
        idx_n = np.searchsorted(nodes, e_n)
        idx_p = np.searchsorted(nodes, e_p)
        for _ in range(max_iters):
            cand = lbl.copy()
            np.minimum.at(cand, idx_n, lbl[idx_p])
            # pointer-jump: labels are themselves node ids, so chase one hop
            cand = np.minimum(cand, cand[np.searchsorted(nodes, cand)])
            if np.array_equal(cand, lbl):
                break
            lbl = cand

        def assign(batch: pa.Table) -> pa.Table:
            valid = pc.is_valid(batch["doc_id"])
            ids = pc.fill_null(batch["doc_id"].cast(pa.int64()), 0).to_numpy(
                zero_copy_only=False
            )
            if len(nodes):
                pos = np.clip(np.searchsorted(nodes, ids), 0, len(nodes) - 1)
                hit = nodes[pos] == ids
                cl = np.where(hit, lbl[pos], ids)
            else:
                cl = ids
            return pa.table(
                {
                    "doc_id": batch["doc_id"].cast(pa.int64()),
                    "cluster_id": pc.if_else(
                        valid, pa.array(cl, pa.int64()), pa.scalar(None, pa.int64())
                    ),
                }
            )

        return _docs(sf_dir, ["doc_id"]).map_batches(assign, batch_format="pyarrow")

    # Size the iteration's block count to the SUBGRAPH, not the corpus: the
    # edge dataset inherits the pair scan's block layout (hundreds of mostly
    # empty blocks), and every groupby in the loop would shuffle across all
    # of them.  ~200k edge rows per block keeps reducers busy at scale while
    # a small dup graph collapses to one block (measured at sf0.1: rounds
    # dropped 15 s -> 0.5 s, whole function 80 s -> 11 s).
    nblk = max(1, n_edge_rows // 200_000)
    edges = edges.repartition(nblk).materialize()

    # initial subgraph labels: each edge node starts at min(self, neighbors)
    # (one round of propagation for free, vectorized)
    labels = (
        edges.groupby("node")
        .aggregate(Min("peer", alias_name="mp"))
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"].cast(pa.int64()),
                    "label": pc.min_element_wise(
                        t["node"].cast(pa.int64()), t["mp"].cast(pa.int64())
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .repartition(nblk)
        .materialize()
    )

    # co-partitioning key: a node's label row and all its incident edge rows
    # share node % n_buckets, so ONE map_groups call per bucket sees every
    # row it needs to resolve sender labels locally.  Bucket count tracks
    # the subgraph block sizing (≥ one per edge block, a handful per CPU at
    # scale); doc_ids are assigned sequentially so modulo spreads evenly,
    # and a hot node's edges all hash to one bucket exactly as they would
    # under groupby(node).
    n_buckets = max(1, nblk * 4)

    def tag_label(batch: pa.Table) -> pa.Table:
        node = batch["node"].cast(pa.int64())
        bucket = node.to_numpy(zero_copy_only=False) % n_buckets
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "node": node,
                "peer": pa.nulls(batch.num_rows, pa.int64()),
                "label": batch["label"],
            }
        )

    def tag_edge(batch: pa.Table) -> pa.Table:
        node = batch["node"].cast(pa.int64())
        bucket = node.to_numpy(zero_copy_only=False) % n_buckets
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "node": node,
                "peer": batch["peer"],
                "label": pa.nulls(batch.num_rows, pa.int64()),
            }
        )

    def bucket_send(group: pa.Table) -> pa.Table:
        """Segment-vectorized message fan-out for every node in one bucket:
        sorted label keys + searchsorted gather replace the former
        one-Python-call-per-node ``send`` (VERDICT r2 'What's wrong' #1)."""
        lab_mask = pc.is_valid(group["label"])
        lab_rows = group.filter(lab_mask)
        ln = lab_rows["node"].to_numpy(zero_copy_only=False)
        ll = lab_rows["label"].to_numpy(zero_copy_only=False)
        order = np.argsort(ln, kind="stable")
        ln, ll = ln[order], ll[order]
        edge_rows = group.filter(pc.invert(lab_mask))
        en = edge_rows["node"].to_numpy(zero_copy_only=False)
        ep = edge_rows["peer"].to_numpy(zero_copy_only=False)
        if len(ln):
            idx = np.searchsorted(ln, en)
            idx_c = np.clip(idx, 0, len(ln) - 1)
            hit = ln[idx_c] == en  # every edge node has a label row; belt-and-braces
            nodes = np.concatenate([ln, ep[hit]])
            cands = np.concatenate([ll, ll[idx_c[hit]]])
        else:  # bucket with edge rows only (labels converged elsewhere): no-op
            nodes = np.empty(0, np.int64)
            cands = np.empty(0, np.int64)
        # pre-reduce inside the bucket: one (node, min cand) row per node cuts
        # the second shuffle from O(edges) to O(nodes) rows
        uk, inv = np.unique(nodes, return_inverse=True)
        mn = np.full(len(uk), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mn, inv, cands)
        return pa.table(
            {"node": pa.array(uk, pa.int64()), "cand": pa.array(mn, pa.int64())}
        )

    prev_sum = None
    for _ in range(max_iters):
        agg = labels.aggregate(Sum("label"))
        cur = agg.get("sum(label)") if isinstance(agg, dict) else None
        if cur is None or (prev_sum is not None and cur == prev_sum):
            break  # no dup edges at all, or labels stopped decreasing
        prev_sum = cur
        msgs = (
            labels.map_batches(tag_label, batch_format="pyarrow")
            .union(edges.map_batches(tag_edge, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(bucket_send, batch_format="pyarrow")
        )
        labels = (
            msgs.groupby("node")
            .aggregate(Min("cand", alias_name="label"))
            .map_batches(
                lambda t: pa.table(
                    {"node": t["node"].cast(pa.int64()), "label": t["label"].cast(pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .repartition(nblk)
            .materialize()
        )

    # attach subgraph labels to the whole corpus: ONE union-tag groupby
    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].cast(pa.int64())
        return pa.table(
            {"node": ids, "label": ids, "is_doc": pa.array(np.ones(len(ids), np.int64))}
        )

    def label_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch["node"],
                "label": batch["label"],
                "is_doc": pa.array(np.zeros(batch.num_rows, np.int64)),
            }
        )

    combined = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(doc_rows, batch_format="pyarrow")
        .union(labels.map_batches(label_rows, batch_format="pyarrow"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        # drop subgraph nodes that are not documents (is_doc never set)
        keep = batch.filter(pc.equal(batch["seen_doc"], 1))
        return pa.table(
            {
                "doc_id": keep["node"].cast(pa.int64()),
                "cluster_id": keep["cluster_id"].cast(pa.int64()),
            }
        )

    return (
        combined.groupby("node")
        .aggregate(Min("label", alias_name="cluster_id"), Max("is_doc", alias_name="seen_doc"))
        .map_batches(finalize, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# cross-document boilerplate detection (RefinedWeb / CCNet shape)


def _unique_doc_grams(batch: pa.Table, n: int):
    """Vectorized per-batch extraction of DISTINCT (doc, word-n-gram) pairs.

    Returns ``(n_docs, udoc, ucode, gram_dictionary)``: ``udoc``/``ucode``
    index the unique pairs (doc position in batch, code into the batch-local
    ``gram_dictionary`` string array).  No per-row Python: splitting is one
    Arrow kernel, gram strings are one ``binary_join_element_wise`` over
    ``take``-gathered word columns, and per-doc dedup is one ``np.unique``
    over packed (doc << 32 | code) keys."""
    words = pc.split_pattern(pc.fill_null(batch["text"], ""), " ").combine_chunks()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values
    lens = np.diff(offs)
    per_doc = np.maximum(lens - n + 1, 0)
    total = int(per_doc.sum())
    n_docs = len(lens)
    if total == 0:
        return n_docs, np.empty(0, np.int64), np.empty(0, np.int64), pa.array([], pa.string())
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), per_doc)
    starts = _segment_aranges(offs[:-1], per_doc)
    cols = [flat.take(pa.array(starts + j)) for j in range(n)]
    grams = pc.binary_join_element_wise(*cols, " ")
    gd = grams.dictionary_encode()
    codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    ukey = np.unique((doc_idx << 32) | codes)
    return n_docs, ukey >> 32, ukey & 0xFFFFFFFF, gd.dictionary


def boilerplate_ngram_stats(
    sf_dir: str, n: int = 3, min_docs: int = 4
) -> "rd.Dataset":
    """Cross-document boilerplate detection (the RefinedWeb / CCNet filter):
    a word n-gram appearing in ≥ ``min_docs`` DISTINCT documents is
    boilerplate (nav bars, cookie banners, license footers); each document
    reports how much of it is made of such grams, plus the standard ≤ 50%
    keep decision — integer-exact (2 × n_boiler ≤ n_grams), no float in the
    oracle compare.

    Scale shape: pass 1 is a combiner-cascade count — per-batch DISTINCT
    (doc, gram) partials (one row per gram per batch, not per occurrence)
    → one keyed groupby over gram strings → threshold filter.  The
    surviving frequent-gram set is BROADCAST via ``ray.put`` (boilerplate
    is heavy-hitters by definition: its size is bounded by corpus
    redundancy, not corpus size — the same contract as
    ``decontaminate_docs``'s eval set; the driver-side union is the one
    bounded materialization and is counted).  Pass 2 is then map-only:
    per-batch membership via ``pc.is_in`` against the broadcast set and two
    ``bincount`` folds — the 100 TB side never shuffles.  Documents with
    fewer than ``n`` words (or NULL text) have no grams and are absent from
    the output, exactly as the SQL's UNNEST produces no rows for them."""
    import ray

    def gram_partial(batch: pa.Table) -> pa.Table:
        _, _, ucode, gdict = _unique_doc_grams(batch, n)
        cnt = np.bincount(ucode, minlength=len(gdict)).astype(np.int64)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "gram": gdict.take(pa.array(nz)),
                "n_docs": pa.array(cnt[nz], pa.int64()),
            }
        )

    def keep_frequent(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["n_docs"], min_docs)).select(["gram"])

    freq_parts = []
    freq_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(gram_partial, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .map_batches(keep_frequent, batch_format="pyarrow")
    )
    for b in freq_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        freq_parts.append(b["gram"].combine_chunks())
    freq_arr = pa.concat_arrays(freq_parts) if freq_parts else pa.array([], pa.string())
    freq_ref = ray.put(freq_arr)

    def stats(batch: pa.Table) -> pa.Table:
        ndocs, udoc, ucode, gdict = _unique_doc_grams(batch, n)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        freq = ray.get(freq_ref)
        is_b = (
            pc.is_in(gdict, value_set=freq).to_numpy(zero_copy_only=False)
            if len(gdict)
            else np.empty(0, bool)
        )
        n_grams = np.bincount(udoc, minlength=ndocs)
        n_boiler = np.bincount(udoc[is_b[ucode]], minlength=ndocs) if len(ucode) else np.zeros(ndocs, np.int64)
        present = n_grams > 0
        ng = n_grams[present].astype(np.int64)
        nb = n_boiler[present].astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[present], pa.int64()),
                "n_grams": pa.array(ng, pa.int64()),
                "n_boiler": pa.array(nb, pa.int64()),
                "keep": pa.array(2 * nb <= ng, pa.bool_()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(stats, batch_format="pyarrow")


# Characters trimmed when deciding whether a line is "blank" for the C4
# line-dedup count — pinned identically in the engine (pc.utf8_trim) and
# the SQL oracle (trim(line, ...)) so tab/CR-only lines agree.
_LINE_TRIM_CHARS = " \t\r"


def line_dedup_docs(sf_dir: str, min_count: int = 3) -> "rd.Dataset":
    """C4-style GLOBAL line deduplication (the "three sentences" rule of
    Raffel et al. 2020 §2.2, applied at line granularity as in CCNet /
    RefinedWeb): a non-blank line whose exact text occurs ≥ ``min_count``
    times across the whole corpus is boilerplate (cookie banners, nav
    bars, share buttons); every document is rewritten with those lines
    removed, preserving the original order of the survivors.  Emits
    (doc_id, n_lines, n_removed, clean_text) — ``doc_id`` is assumed
    UNIQUE (documents PK), the same contract as every per-doc kernel here.

    Line = ``text`` split on LF, NULL text as '' (one empty line — DuckDB
    ``string_split('', chr(10))`` produces [''] too).  Blank-after-trim
    lines (``_LINE_TRIM_CHARS``) never count as boilerplate and are never
    removed.  Occurrences count per-OCCURRENCE (a doc repeating its own
    footer 3× qualifies it), unlike :func:`boilerplate_ngram_stats`'s
    distinct-document counting.

    Scale shape: pass 1 is a combiner-cascade count — per-batch
    ``value_counts`` partials over non-blank lines (one row per DISTINCT
    line per batch) → one keyed groupby → threshold filter; the surviving
    duplicate-line set is BROADCAST via ``ray.put`` (heavy-hitters by
    definition — bounded by corpus redundancy, not corpus size; at 100 TB
    swap the exact set for a counting Bloom / count-min gate and hash the
    lines through the exchange instead of shipping strings).  Pass 2 is
    map-only: per-batch ``pc.is_in`` membership against the broadcast set,
    list-offset rebuild, ``pc.binary_join`` — the wide side never
    shuffles and no per-row Python runs anywhere."""
    import ray

    def line_partial(batch: pa.Table) -> pa.Table:
        lines = _one_chunk(pc.split_pattern(_text_col(batch), "\n"))
        flat = _one_chunk(lines.flatten())
        nonblank = pc.not_equal(pc.utf8_trim(flat, _LINE_TRIM_CHARS), "")
        vc = pc.value_counts(flat.filter(nonblank))
        return pa.table(
            {"line": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    def keep_dup(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["cnt"], min_count)).select(["line"])

    dup_parts = []
    dup_ds = (
        _docs(sf_dir, ["text"])
        .map_batches(line_partial, batch_format="pyarrow")
        .groupby("line")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(keep_dup, batch_format="pyarrow")
    )
    for b in dup_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        dup_parts.append(b["line"].combine_chunks())
    dup_arr = pa.concat_arrays(dup_parts) if dup_parts else pa.array([], pa.string())
    dup_ref = ray.put(dup_arr)

    def rebuild(batch: pa.Table) -> pa.Table:
        lines = _one_chunk(pc.split_pattern(_text_col(batch), "\n"))
        flat = _one_chunk(lines.flatten())
        n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        n_lines = n_lines.astype(np.int64)
        dup = ray.get(dup_ref)
        if len(dup) and len(flat):
            keep = pc.invert(pc.is_in(flat, value_set=dup))
        else:
            keep = pa.array(np.ones(len(flat), dtype=bool))
        keep_np = keep.to_numpy(zero_copy_only=False)
        ndocs = len(lines)
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), n_lines)
        kept_per_doc = np.bincount(doc_idx[keep_np], minlength=ndocs)
        offsets = np.zeros(ndocs + 1, dtype=np.int32)
        np.cumsum(kept_per_doc, out=offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), _one_chunk(flat.filter(keep))
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_removed": pa.array(n_lines - kept_per_doc, pa.int64()),
                "clean_text": pc.binary_join(kept_list, "\n"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(rebuild, batch_format="pyarrow")


# RE2 patterns shared by the engine (pyarrow.compute) and the DuckDB oracle —
# both are RE2 dialects, so the semantics (including \b) match byte-for-byte.
_PII_EMAIL = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
_PII_PHONE = r"\+[0-9]{1,2}-[0-9]{3}-[0-9]{4}"
_PII_IP = r"\b([0-9]{1,3}\.){3}[0-9]{1,3}\b"


def pii_scrub(sf_dir: str, synth: bool = True) -> "rd.Dataset":
    """PII redaction — the pre-training privacy pass every crawl pipeline
    runs before tokenization: emails, E.164-ish phone numbers, and IPv4
    addresses are counted, then replaced with ``<EMAIL>``/``<PHONE>``/
    ``<IP>`` placeholders.  Emits (doc_id, n_emails, n_phones, n_ips,
    clean_text).

    The driver corpus is lowercase word salad with no PII, so with
    ``synth=True`` (the media-op precedent: audio/video headers are also
    synthesized from doc_id) each doc is first augmented with a
    deterministic doc_id-derived email + phone + IP — making the redaction
    REAL and hash-verified against a DuckDB oracle that recomputes the same
    augmentation in SQL.  ``synth=False`` scrubs ``text`` as-is; organic-PII
    fixtures pin that path in pytest (``test_curation.py``).

    Scale shape: strictly map-only — three vectorized RE2 count passes and
    three replace passes per batch, no exchange, no per-row Python."""

    def f(batch: pa.Table) -> pa.Table:
        t = _text_col(batch)
        if synth:
            did = _one_chunk(batch["doc_id"]).to_numpy(zero_copy_only=False)
            ids = pc.cast(_one_chunk(batch["doc_id"]), pa.string())
            pad = pc.utf8_lpad(pc.cast(pa.array(did % 10000), pa.string()), 4, "0")
            octet = pc.cast(pa.array(did % 256), pa.string())
            t = pc.binary_join_element_wise(
                t,
                "contact",
                pc.binary_join_element_wise("user", ids, "@mail.example.com", ""),
                "call",
                pc.binary_join_element_wise("+1-555-", pad, ""),
                "ip",
                pc.binary_join_element_wise("10.", octet, ".0.1", ""),
                " ",
            )
        counts = {
            "n_emails": pc.count_substring_regex(t, _PII_EMAIL).cast(pa.int64()),
            "n_phones": pc.count_substring_regex(t, _PII_PHONE).cast(pa.int64()),
            "n_ips": pc.count_substring_regex(t, _PII_IP).cast(pa.int64()),
        }
        clean = pc.replace_substring_regex(t, _PII_EMAIL, "<EMAIL>")
        clean = pc.replace_substring_regex(clean, _PII_PHONE, "<PHONE>")
        clean = pc.replace_substring_regex(clean, _PII_IP, "<IP>")
        return pa.table({"doc_id": batch["doc_id"], **counts, "clean_text": clean})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def domain_stats(sf_dir: str, synth: bool = True) -> "rd.Dataset":
    """Outlink-domain distribution — the per-domain volume table crawl
    curation uses for source weighting and blocklists: extract each doc's
    first ``http(s)`` URL's registered host, count docs per domain.  Emits
    (domain, n_docs); docs with no URL are dropped.

    ``synth=True`` appends a deterministic doc_id-derived URL (driver corpus
    has none — same precedent as :func:`pii_scrub`), giving a 40-domain
    distribution verified hash-exact against the SQL oracle; ``synth=False``
    extracts from ``text`` as-is (pytest fixtures).  First-match semantics
    (one domain per doc) — multi-URL fan-out belongs to a flat_map variant.

    Scale shape: map-only RE2 extract → per-batch value_counts partial →
    one domain-keyed groupby (cardinality = registered domains, tiny)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = _text_col(batch)
        if synth:
            did = _one_chunk(batch["doc_id"]).to_numpy(zero_copy_only=False)
            t = pc.binary_join_element_wise(
                t,
                "see",
                pc.binary_join_element_wise(
                    "https://site",
                    pc.cast(pa.array(did % 40), pa.string()),
                    ".example.org/p/",
                    pc.cast(_one_chunk(batch["doc_id"]), pa.string()),
                    "",
                ),
                " ",
            )
        dom = pc.struct_field(
            pc.extract_regex(t, r"https?://(?P<d>[A-Za-z0-9.\-]+)"), "d"
        )
        vc = pc.value_counts(dom.drop_null())
        return pa.table(
            {"domain": vc.field("values"), "n_docs": vc.field("counts").cast(pa.int64())}
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def sequence_pack_offsets(
    sf_dir: str, budget: int = 512, bucket: int = 1 << 20
) -> "rd.Dataset":
    """GPT-style sequence packing map: concatenate all documents in doc_id
    order and chunk the stream into fixed ``budget``-token training
    sequences; every document reports its global start-token offset, the
    pack (chunk) its first token lands in, and whether it straddles a pack
    boundary (the docs an attention-mask reset or a boundary-loss trick
    must handle).  All integers — the oracle compare is exact.

    The global running sum is a DISTRIBUTED PREFIX SUM, the same
    histogram-offset shape as :func:`global_length_rank`: pass 1 sums
    tokens per doc_id-range bucket (``doc_id // bucket`` — contiguous in
    the order being packed), the driver cumsums the per-bucket totals
    (bounded by bucket COUNT: corpus / 2^20 ≈ 10^6 rows / ~25 MB even at
    10^12 documents — the one bounded materialization), and pass 2 adds
    each bucket's broadcast base to a local vectorized cumsum.  No global
    sort, no single reducer; the only exchange is the bucket-keyed groupby
    whose groups are ≤ ``bucket`` rows (≈ 25 MB of int64 triples) by
    construction, and 10^6 groups keep every reducer busy.  Token count = whitespace split, identical to
    ``token_count``'s oracle (NULL text coalesced to '' on both sides)."""

    def tok_partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ntok = pc.list_value_length(
            pc.split_pattern(pc.fill_null(batch["text"], ""), " ")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(ids // bucket, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
            }
        )

    # materialized ONCE: both the per-bucket total pass and the packing pass
    # consume it, and it is the REDUCED form (24 bytes/doc of int64 triples,
    # the same rows the groupby shuffles anyway) — without this the corpus
    # text would be re-read and re-split for the second pass
    toks = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(tok_partial, batch_format="pyarrow")
        .materialize()
    )
    per_bucket = (
        toks.groupby("bucket")
        .aggregate(Sum("n_tokens", alias_name="bucket_tokens"))
        .to_pandas()  # bounded by bucket count (= docs / 2^20), not corpus size
    )
    if per_bucket.empty:  # empty corpus: the aggregate frame has no columns
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "start_offset": pa.array([], pa.int64()),
                    "pack_id": pa.array([], pa.int64()),
                    "spans_boundary": pa.array([], pa.bool_()),
                }
            )
        )
    per_bucket = per_bucket.sort_values("bucket")
    sums = per_bucket["bucket_tokens"].to_numpy(dtype=np.int64)
    bases = dict(
        zip(per_bucket["bucket"].tolist(), (np.cumsum(sums) - sums).tolist())
    )

    def pack_group(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        ntok = group["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, ntok = ids[order], ntok[order]
        start = np.cumsum(ntok) - ntok + bases[int(group["bucket"][0].as_py())]
        pack_id = start // budget
        # a 0-token doc occupies no tokens and cannot straddle; guard the
        # (start + n - 1) end-token formula against n == 0
        end = start + np.maximum(ntok, 1) - 1
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "start_offset": pa.array(start, pa.int64()),
                "pack_id": pa.array(pack_id, pa.int64()),
                "spans_boundary": pa.array((end // budget) != pack_id, pa.bool_()),
            }
        )

    return toks.groupby("bucket").map_groups(pack_group, batch_format="pyarrow")


def events_hopping_window(
    sf_dir: str, hop_min: int = 15, hops: int = 4
) -> "rd.Dataset":
    """Hopping (sliding) window aggregate: 1-hour windows advancing every
    ``hop_min`` minutes (``hops`` × hop = window length), count + exact
    cent-sum per (window_start, event_type) — the stream-analytics shape
    Ray Data has no native operator for.

    Map-side each event FANS OUT to the ``hops`` windows that contain it
    (window_start = floor(ts, hop) − i·hop), the standard hop expansion of
    stream processors; the batch is then PRE-AGGREGATED to one row per
    (window, type) before the shuffle, so the exchange is bounded by
    distinct windows per batch × types — ``hops``-fold smaller than the
    fanned rows — and the final groupby is over window-key cardinality.
    All vectorized: one dictionary encode, one np.unique over packed
    (window, type) keys, two scatter-adds.  NULL timestamps are excluded
    on both sides (SQL WHERE ts IS NOT NULL); epoch-aligned buckets match
    DuckDB ``time_bucket`` exactly."""
    hop_ns = np.int64(hop_min) * np.int64(60_000_000_000)
    partial = _hop_expand_partial(hop_ns, hops)

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start", "type_key", "type_null"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
        .map_batches(_hop_finalize, batch_format="pyarrow")
    )


def _hop_expand_partial(hop_ns, hops):
    """Shared map-side hop expansion + per-batch pre-aggregation (see
    :func:`events_hopping_window`); also feeds the watermark variant."""

    def partial(batch: pa.Table) -> pa.Table:
        ts64 = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[ns]")
        valid = ~np.isnat(ts64)
        ts = ts64.astype(np.int64)[valid]
        # NULL value → NaN → 0 cents: matches the oracle's
        # COALESCE(sum(cents), 0), which skips NULL addends (the row still
        # counts toward n_events, exactly like SQL count(*))
        cents = np.floor(
            np.nan_to_num(batch["value"].to_numpy(zero_copy_only=False)[valid])
            * 100.0
            + 0.5
        ).astype(np.int64)
        tdict = batch["event_type"].combine_chunks().dictionary_encode()
        names = tdict.dictionary.to_pylist()
        tidx = tdict.indices
        if tidx.null_count:  # NULL event_type is its own group (SQL GROUP BY)
            names.append(None)
            tidx = pc.fill_null(tidx, len(names) - 1)
        codes = tidx.to_numpy(zero_copy_only=False).astype(np.int64)[valid]
        n_types = max(len(names), 1)
        bucket = ts // hop_ns  # int64 floor division rounds toward -inf
        # fan out to the `hops` containing windows, then collapse duplicates
        widx = np.concatenate([bucket - i for i in range(hops)])
        fcodes = np.tile(codes, hops)
        fcents = np.tile(cents, hops)
        key = widx * n_types + fcodes
        ukey, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        csum = np.zeros(len(ukey), dtype=np.int64)
        np.add.at(csum, inv, fcents)
        uwin = (ukey // n_types) * hop_ns
        ucode = ukey % n_types
        type_col = pa.array(names, pa.string()).take(pa.array(ucode))
        # Ray's sort-based groupby cannot order a NULL string key; shuffle
        # on (filled key, is-null flag) and restore NULL in finalize
        return pa.table(
            {
                "window_start": pa.array(uwin).cast(pa.timestamp("ns")).cast(pa.timestamp("us")),
                "type_key": pc.fill_null(type_col, ""),
                "type_null": pc.is_null(type_col),
                "n_events": pa.array(n, pa.int64()),
                "value_cents": pa.array(csum, pa.int64()),
            }
        )

    return partial


def _hop_finalize(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "window_start": batch["window_start"].cast(pa.timestamp("us")),
            "event_type": pc.if_else(
                batch["type_null"], pa.scalar(None, pa.string()), batch["type_key"]
            ),
            "n_events": batch["n_events"].cast(pa.int64()),
            "value_cents": batch["value_cents"].cast(pa.int64()),
        }
    )


def events_hopping_window_watermark(
    sf_dir: str,
    hop_min: int = 15,
    hops: int = 4,
    lateness_min: int = 30,
    n_buckets: int = 1024,
) -> "rd.Dataset":
    """Watermark / late-data-tolerant hopping window (VERDICT r4 next-#7):
    the same 1-hour/hop aggregate as :func:`events_hopping_window`, but
    events that arrive LATER than the watermark allows are dropped first —
    the bounded-out-of-orderness semantics of a streaming engine, batch-
    emulated.  Arrival order is ``event_id`` (the ingest sequence); the
    watermark when an event arrives is ``max(ts of all earlier arrivals)``,
    and the event survives iff ``ts >= watermark - lateness``.  SQL replica:
    a running ``max(ts) OVER (ORDER BY event_id ROWS UNBOUNDED PRECEDING
    TO 1 PRECEDING)`` filter — late rows are just rows, so the oracle stays
    hash-exact.  NULL event_id (no arrival position) and NULL ts (joins no
    window) rows are excluded on both engines.

    Scale shape: the global running max is a DISTRIBUTED PREFIX SCAN —
    event_ids hash into ``n_buckets`` fixed-width ranges (bounds from the
    parquet footer, no scan); a per-batch pre-aggregated pass collects one
    max-ts per (batch, bucket) partial (driver-side combine is
    bucket-bounded); the per-bucket EXCLUSIVE prefix maxima broadcast; and
    one bucket-keyed groupby runs the in-order scan locally per bucket.
    The surviving rows then flow through the shared hop expansion — two
    bounded exchanges total, nothing driver-sized."""
    hop_ns = np.int64(hop_min) * np.int64(60_000_000_000)
    kept = _watermark_kept_events(
        sf_dir, lateness_min, ["event_type", "value"], n_buckets
    )
    partial = _hop_expand_partial(hop_ns, hops)
    return (
        kept.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start", "type_key", "type_null"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
        .map_batches(_hop_finalize, batch_format="pyarrow")
    )


def _watermark_kept_events(
    sf_dir: str, lateness_min: int, extra_cols: list, n_buckets: int = 1024
) -> "rd.Dataset":
    """Shared bounded-out-of-orderness filter (see
    :func:`events_hopping_window_watermark` for the semantics and scale
    shape): returns the events that survive the ``event_id``-ordered
    watermark, carrying ``ts`` plus ``extra_cols``."""
    import pyarrow.parquet as _pq

    import ray

    lateness_ns = np.int64(lateness_min) * np.int64(60_000_000_000)
    NEG = np.int64(-(2**63))

    path = f"{sf_dir}/events.parquet"
    meta = _pq.read_metadata(path)
    id_lo, id_hi = None, None
    for rg in range(meta.num_row_groups):
        for ci in range(meta.num_columns):
            c = meta.row_group(rg).column(ci)
            if (c.path_in_schema == "event_id" and c.statistics is not None
                    and c.statistics.has_min_max):
                mn, mx = c.statistics.min, c.statistics.max
                id_lo = mn if id_lo is None else min(id_lo, mn)
                id_hi = mx if id_hi is None else max(id_hi, mx)
    if id_lo is None:
        id_lo, id_hi = 0, 0
    width = max(1, (int(id_hi) - int(id_lo)) // n_buckets + 1)

    src = rd.read_parquet(path, columns=["event_id", "ts", *extra_cols])

    def keyed(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch["event_id"]), pc.is_valid(batch["ts"]))
        t = batch.filter(m)
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # clip: with footer stats absent (or lying) the range estimate can
        # miss real ids; clipping keeps the mapping monotone in event_id —
        # all the prefix scan needs — instead of indexing out of bmax
        bucket = np.clip((ids - int(id_lo)) // width, 0, n_buckets)
        cols = {
            "bucket": pa.array(bucket, pa.int64()),
            "event_id": pa.array(ids, pa.int64()),
            "ts": t["ts"],
        }
        for c in extra_cols:
            cols[c] = t[c]
        return pa.table(cols)

    keyed_ds = src.map_batches(keyed, batch_format="pyarrow").materialize()
    # ^ materialize: the bucket-max stats pass and the scan both consume it

    def bucket_max(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[ns]").astype(np.int64)
        ub, inv = np.unique(b, return_inverse=True)
        mx = np.full(len(ub), NEG, dtype=np.int64)
        np.maximum.at(mx, inv, ts)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "mx": pa.array(mx, pa.int64())})

    bmax = np.full(n_buckets + 1, NEG, dtype=np.int64)
    for r in keyed_ds.map_batches(bucket_max, batch_format="pyarrow").take_all():
        bi = int(r["bucket"])
        if r["mx"] > bmax[bi]:
            bmax[bi] = r["mx"]
    # EXCLUSIVE prefix max: highest ts among all buckets before this one
    prefix = np.full(n_buckets + 1, NEG, dtype=np.int64)
    run = NEG
    for i in range(n_buckets + 1):
        prefix[i] = run
        if bmax[i] > run:
            run = bmax[i]
    prefix_ref = ray.put(prefix)

    def scan(group: pa.Table) -> pa.Table:
        pre = ray.get(prefix_ref)
        ids = group["event_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[ns]").astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ts_o = ts[order]
        seed = pre[int(group["bucket"][0].as_py())]
        run = np.maximum.accumulate(np.r_[seed, ts_o[:-1]])
        run = np.maximum(run, seed)
        keep = (run == NEG) | (ts_o >= run - lateness_ns)
        kept = group.take(pa.array(order[keep]))
        return kept.select(["ts", *extra_cols])

    return keyed_ds.groupby("bucket").map_groups(scan, batch_format="pyarrow")


def events_sessionize_watermark(
    sf_dir: str, gap_minutes: int = 30, lateness_min: int = 30
) -> "rd.Dataset":
    """Late-data-tolerant sessionization: the watermark filter of
    :func:`events_hopping_window_watermark` (arrival order = event_id,
    drop events older than watermark − lateness) composed with the
    per-user inactivity-gap session build of :func:`events_sessionize` —
    what a streaming engine's session windows with bounded
    out-of-orderness compute, batch-emulated.  Late rows are just rows,
    so the oracle stays hash-exact (the same running-max window filter in
    SQL feeding the same gaps-and-islands sessionization).

    Scale shape: the shared distributed prefix scan (two bounded
    exchanges), then the user-keyed session groupby — exchanges at
    (bucket) and (user) granularity, never driver-side."""
    kept = _watermark_kept_events(sf_dir, lateness_min, ["user_id"])
    from language_identification_ray.pipelines.relational import _group_spread

    return (
        _group_spread(kept.select_columns(["user_id", "ts"]))
        .groupby("user_id")
        .map_groups(_session_groups(gap_minutes), batch_format="pyarrow")
    )


def word_cooccurrence_top100(sf_dir: str, k: int = 100) -> "rd.Dataset":
    """Top-``k`` word pairs by DOCUMENT co-occurrence count — the
    association-mining / PMI-numerator primitive (count of documents whose
    distinct-word set contains both words, pairs ordered ``w1 < w2``).

    Scale shape: pair generation is BATCH-LOCAL (a document's text lives in
    one row, so its distinct-word set never crosses a batch) and fully
    vectorized — one dictionary encode per batch, codes remapped to
    lexicographic ranks, and each document's C(v,2) unordered pairs expanded
    with the condensed-triangular-index decode (the scipy ``squareform``
    formulas) rather than a per-doc Python loop.  Each batch pre-aggregates
    to one row per pair before the shuffle; the keyed groupby is over pair
    cardinality (≤ vocab², and in web text bounded by co-occurrence
    sparsity), then a partial top-k per block feeds the tiny final sort.

    Partitioning assumption, stated: pairs per doc grow as v² in the
    DISTINCT-word count v.  Web documents hold v in the hundreds–thousands;
    corpora with outlier vocab-dense docs should cap v upstream (e.g. the
    per-doc top-v by term frequency) — this operator generates exactly the
    SQL self-join's pair set and does NOT silently cap."""

    def _empty_pairs() -> pa.Table:
        return pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
            }
        )

    def pair_partial(batch: pa.Table) -> pa.Table:
        # distinct (doc, word) extraction = the 1-gram case of the shared
        # gram kernel; only the rank remap and pair expansion are new here
        _, udoc, ucode, gdict = _unique_doc_grams(batch, 1)
        K = len(gdict)
        if K == 0 or len(ucode) == 0:
            return _empty_pairs()
        # remap first-appearance codes to LEXICOGRAPHIC ranks so rank_i <
        # rank_j is exactly the SQL's w1 < w2 — Arrow sort_indices is the
        # same binary (UTF-8 byte) collation, and no Python str is built
        order = pc.sort_indices(gdict)
        sorted_dict = gdict.take(order)
        rank_of = np.empty(K, dtype=np.int64)
        rank_of[order.to_numpy(zero_copy_only=False).astype(np.int64)] = np.arange(
            K, dtype=np.int64
        )
        ranks = rank_of[ucode]
        o = np.lexsort((ranks, udoc))  # (doc, rank) order for i<j pairing
        udoc, urank = udoc[o], ranks[o]
        seg_start = np.flatnonzero(np.r_[True, udoc[1:] != udoc[:-1]])
        v = np.diff(np.r_[seg_start, len(udoc)])
        m = v * (v - 1) // 2
        if int(m.sum()) == 0:
            return _empty_pairs()
        q = _segment_aranges(np.zeros(len(m), dtype=np.int64), m)
        vv = np.repeat(v, m)
        ss = np.repeat(seg_start, m)
        # condensed index q -> triangular (i, j), i < j (squareform decode)
        i = (
            vv
            - 2
            - np.floor(np.sqrt(-8.0 * q + 4.0 * vv * (vv - 1) - 7) / 2.0 - 0.5)
        ).astype(np.int64)
        j = q + i + 1 - vv * (vv - 1) // 2 + (vv - i) * ((vv - i) - 1) // 2
        r1 = urank[ss + i]
        r2 = urank[ss + j]
        # per-batch pre-aggregation: one row per distinct pair
        pkey, cnt = np.unique(r1 * np.int64(K) + r2, return_counts=True)
        return pa.table(
            {
                "w1": sorted_dict.take(pa.array(pkey // K)),
                "w2": sorted_dict.take(pa.array(pkey % K)),
                "n_docs": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def partial_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        n = batch["n_docs"].to_numpy(zero_copy_only=False)
        cut = np.partition(n, len(n) - k)[len(n) - k]
        return batch.filter(pa.array(n >= cut))

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .map_batches(partial_topk, batch_format="pyarrow")
        .sort(["n_docs", "w1", "w2"], descending=[True, False, False])
        .limit(k)
    )


_VOCAB_OVERLAP_SCHEMA = pa.schema(
    [
        ("s1", pa.string()),
        ("s2", pa.string()),
        ("n_common", pa.int64()),
        ("n_union", pa.int64()),
        ("jaccard", pa.float64()),
    ]
)


def source_vocab_overlap(sf_dir: str, max_mask_sources: int = 63) -> pa.Table:
    """Per-source-pair vocabulary Jaccard — the cross-source contamination /
    redundancy analytic of corpus curation (how much of two crawls'/dumps'
    vocabularies coincide before mixing them).  One row per unordered source
    pair (``s1 < s2``, binary collation) with a non-empty intersection:
    ``(s1, s2, n_common, n_union, jaccard)``, a source's vocabulary being
    the DISTINCT whitespace words across its documents (NULL-source rows
    excluded, matching the SQL inner joins).

    Scale shape: the keyed exchanges carry only DISTINCT (word, source-bit)
    rows — per-batch dedup via one ``np.unique`` over packed codes, a
    groupby dedup, then ``Sum`` folds per-source BITS into a per-word int64
    source bitmask (each (word, bit) row is unique after the dedup, so Sum
    == OR).  A per-batch mask histogram + tiny mask groupby shrink the
    vocabulary to ≤ min(|vocab|, 2**n_sources) rows before the only
    ``take_all`` (bounded: the histogram).

    Catalogs larger than the int64-bitmask bound (63) are handled TOTALLY
    by chunking (VERDICT r3 #3): the sorted catalog splits into ≤31-source
    chunks and every unordered CHUNK PAIR runs the same mask kernel over
    its ≤62-source union (rows of other sources filtered out per batch),
    keeping only the pairs that cross the two chunks (or sit within the
    chunk, on the diagonal).  A pair's (n_common, n_union) depends only on
    its own two bit columns, so extra sources in a block never change the
    result — the chunked union is exact, at the cost of
    C(C+1)/2 corpus scans (C = ⌈S/31⌉; the >63 regime is a catalog audit,
    not a hot path)."""
    cat = (
        _docs(sf_dir, ["source"])
        # the oracle's WHERE source IS NOT NULL; also sidesteps Ray's
        # NULL-string groupby crash on mixed-null catalogs
        .map_batches(
            lambda b: b.filter(pc.is_valid(b["source"])), batch_format="pyarrow"
        )
        .groupby("source")
        .aggregate(Count(alias_name="_n"))
        .take_all()
    )
    names = sorted(r["source"] for r in cat if r["source"] is not None)
    out_schema = _VOCAB_OVERLAP_SCHEMA
    if len(names) < 2:
        return out_schema.empty_table()
    if len(names) <= max_mask_sources:
        return _vocab_overlap_block(sf_dir, names, restrict=False)
    half = max(1, max_mask_sources // 2)
    chunks = [names[i : i + half] for i in range(0, len(names), half)]
    parts = []
    for gi in range(len(chunks)):
        for gj in range(gi, len(chunks)):
            block = chunks[gi] + (chunks[gj] if gj != gi else [])
            t = _vocab_overlap_block(sf_dir, sorted(block), restrict=True)
            if t.num_rows == 0:
                continue
            in_a = pc.is_in(t["s1"], value_set=pa.array(chunks[gi], pa.string()))
            in_b = pc.is_in(t["s2"], value_set=pa.array(chunks[gj], pa.string()))
            # s1 < s2 and chunks are sorted, so a cross pair always has
            # s1 in the earlier chunk and s2 in the later one
            parts.append(t.filter(pc.and_(in_a, in_b)))
    if not parts:
        return out_schema.empty_table()
    merged = pa.concat_tables(parts)
    order = pc.sort_indices(
        merged, sort_keys=[("s1", "ascending"), ("s2", "ascending")]
    )
    return merged.take(order)


def _vocab_overlap_block(sf_dir: str, names: list, restrict: bool) -> pa.Table:
    """One ≤63-source mask-kernel run (see :func:`source_vocab_overlap`);
    ``restrict`` filters the scan to rows of ``names`` (chunked mode)."""
    assert len(names) <= 63, "int64 bitmask bound"
    out_schema = _VOCAB_OVERLAP_SCHEMA
    src_arr = pa.array(names, pa.string())

    def bit_partial(batch: pa.Table) -> pa.Table:
        if batch["source"].null_count:
            batch = batch.filter(pc.is_valid(batch["source"]))
        if restrict:
            batch = batch.filter(pc.is_in(batch["source"], value_set=src_arr))
        words = pc.split_pattern(pc.fill_null(batch["text"], ""), " ").combine_chunks()
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        gd = words.values.dictionary_encode()
        if len(gd) == 0:
            return pa.table(
                {"word": pa.array([], pa.string()), "bit": pa.array([], pa.int64())}
            )
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        sidx = (
            pc.index_in(batch["source"], value_set=src_arr)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        K = len(gd.dictionary)
        ukey = np.unique(np.repeat(sidx, lens) * K + codes)
        return pa.table(
            {
                "word": gd.dictionary.take(pa.array(ukey % K)),
                "bit": pa.array(np.int64(1) << (ukey // K), pa.int64()),
            }
        )

    def mask_hist(batch: pa.Table) -> pa.Table:
        masks, cnt = np.unique(
            batch["mask"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "mask": pa.array(masks.astype(np.int64), pa.int64()),
                "n_words": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        _docs(sf_dir, ["text", "source"])
        .map_batches(bit_partial, batch_format="pyarrow")
        .groupby(["word", "bit"])
        .aggregate(Count(alias_name="_n"))
        .groupby("word")
        .aggregate(Sum("bit", alias_name="mask"))
        .map_batches(mask_hist, batch_format="pyarrow")
        .groupby("mask")
        .aggregate(Sum("n_words", alias_name="n_words"))
        .take_all()  # bounded: <= min(|vocab|, 2**n_sources) rows
    )
    if not hist:
        return out_schema.empty_table()
    masks = np.array([r["mask"] for r in hist], dtype=np.int64)
    cnt = np.array([r["n_words"] for r in hist], dtype=np.int64)
    S = len(names)
    bits = ((masks[:, None] >> np.arange(S, dtype=np.int64)) & 1).astype(np.int64)
    sizes = bits.T @ cnt  # |V_s| per source
    inter = (bits.T * cnt) @ bits  # inter[i, j] = |V_i ∩ V_j|
    iu = np.triu_indices(S, k=1)
    n_common = inter[iu]
    keep = n_common > 0
    i, j, n_common = iu[0][keep], iu[1][keep], n_common[keep]
    n_union = sizes[i] + sizes[j] - n_common
    return pa.table(
        {
            "s1": src_arr.take(pa.array(i)),
            "s2": src_arr.take(pa.array(j)),
            "n_common": pa.array(n_common, pa.int64()),
            "n_union": pa.array(n_union, pa.int64()),
            "jaccard": pa.array(n_common / n_union, pa.float64()),
        },
        schema=out_schema,
    )


# ---------------------------------------------------------------------------
# Gopher-style per-document quality rule flags (quality_filter tier core)


def gopher_quality_flags(sf_dir: str) -> "rd.Dataset":
    """Per-document Gopher rule flags (Rae et al. 2021, table A1 subset —
    the word-count window, the 3–10 mean-word-length band, and a
    top-word-repetition cap standing in for the duplicate-line family):
    each document reports its integer evidence (``n_words``,
    ``sum_word_len``, ``max_word_rep``) plus one boolean per rule and the
    conjunctive ``keep`` — the rule-flag table a quality-filter audit joins
    against, with every threshold INTEGER-EXACT (``3·n ≤ Σlen``, never a
    float mean) so the oracle compare is bit-stable.

    Scale shape: strictly MAP-ONLY — one pass, no shuffle, no state; the
    100 TB corpus streams through at read bandwidth.  All kernels are
    vectorized per batch: one Arrow ``split_pattern`` (NULL text → '' → a
    single empty token, same as the SQL's ``string_split(coalesce(text,''))``),
    ``utf8_length`` + ``bincount`` folds for the length sums, and the
    per-(doc, word) repetition counts via ONE ``np.unique`` over packed
    ``(doc << 32 | word_code)`` keys — the same encoding
    :func:`_unique_doc_grams` uses, no per-row Python."""

    def flags(batch: pa.Table) -> pa.Table:
        f = _gopher_flag_arrays(batch)
        return pa.table(
            {
                "doc_id": pa.array(
                    batch["doc_id"].to_numpy(zero_copy_only=False), pa.int64()
                ),
                "n_words": pa.array(f["n_words"], pa.int64()),
                "sum_word_len": pa.array(f["sum_word_len"], pa.int64()),
                "max_word_rep": pa.array(f["max_word_rep"], pa.int64()),
                "flag_word_count": pa.array(f["flag_word_count"], pa.bool_()),
                "flag_mean_word_len": pa.array(f["flag_mean_word_len"], pa.bool_()),
                "flag_top_word": pa.array(f["flag_top_word"], pa.bool_()),
                "keep": pa.array(f["keep"], pa.bool_()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(flags, batch_format="pyarrow")


def _gopher_flag_arrays(batch: pa.Table) -> dict:
    """Vectorized per-batch Gopher evidence + rule flags as numpy arrays —
    shared by :func:`gopher_quality_flags` (per-doc table) and
    :func:`gopher_keep_rates` (per-language fold).  One Arrow
    ``split_pattern`` (NULL text → '' → a single empty token, same as the
    SQL ``string_split(coalesce(text,''))``), ``utf8_length`` + ``bincount``
    folds, and per-(doc, word) repetition counts via ONE ``np.unique`` over
    packed ``(doc << 32 | word_code)`` keys — no per-row Python."""
    words = pc.split_pattern(pc.fill_null(batch["text"], ""), " ").combine_chunks()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values
    nw = np.diff(offs)
    n_docs = len(nw)
    wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), nw)
    sum_len = np.bincount(doc_idx, weights=wl, minlength=n_docs).astype(np.int64)
    codes = (
        flat.dictionary_encode().indices.to_numpy(zero_copy_only=False).astype(np.int64)
    )
    ukey, cnt = np.unique((doc_idx << 32) | codes, return_counts=True)
    max_rep = np.zeros(n_docs, np.int64)
    np.maximum.at(max_rep, ukey >> 32, cnt)
    f_wc = (nw >= 50) & (nw <= 100_000)
    f_mwl = (3 * nw <= sum_len) & (sum_len <= 10 * nw)
    f_top = 5 * max_rep <= nw
    return {
        "n_words": nw.astype(np.int64),
        "sum_word_len": sum_len,
        "max_word_rep": max_rep,
        "flag_word_count": f_wc,
        "flag_mean_word_len": f_mwl,
        "flag_top_word": f_top,
        "keep": f_wc & f_mwl & f_top,
    }


# ---------------------------------------------------------------------------
# CCNet head/middle/tail terciles (per-language quality banding)


def ccnet_tercile_buckets(sf_dir: str) -> "rd.Dataset":
    """CCNet-style per-language head/middle/tail banding (Wenzek et al.
    2020 split their corpus into thirds by per-language quality rank; here
    the rank key is ``(n_chars ASC, doc_id ASC)`` so the oracle is pure
    SQL): every document gets its language's tercile — ``head`` for the
    lowest third of ranks, then ``middle``, then ``tail`` — with the
    boundary INTEGER-EXACT (``3·rank ≤ n`` / ``3·rank ≤ 2n``), matching the
    SQL ``row_number``/``count`` window pair, remainder rows falling to the
    later buckets exactly as the inequalities dictate.

    Scale shape: the per-language histogram-rank primitive of
    :func:`global_length_rank`, partitioned by language — pass 1 is a
    ``groupby(lang, n_chars)`` COUNT whose driver collect is bounded by
    DISTINCT (language, length) pairs (≤ langs × the 10 MiB cap), never
    corpus size; the cumulative histogram gives every (lang, length) its
    in-language offset and every language its total, both broadcast in the
    map_groups closure; pass 2 ranks within each equal-length tie group by
    doc_id and banks the offset.  Partitioning assumption: one (lang,
    length) TIE GROUP fits a reducer — if one length dominates a language,
    the same histogram composes recursively on a doc_id range key.

    NULL langs form their own partition (SQL ``PARTITION BY`` keeps one):
    both groupbys shuffle on the repo's (filled-key, is-null) two-key
    pattern — Ray 2.49's sort groupby cannot order NULL string keys."""

    def tag(batch: pa.Table) -> pa.Table:
        # shared two-key NULL-safe helper; doc_id rides along only on the
        # pass that reads it (the histogram pass prunes it at the read)
        extra = ("doc_id",) if "doc_id" in batch.schema.names else ()
        return _tag_key(batch, "lang", ("n_chars",) + extra)

    hist = (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "n_chars"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # bounded by distinct (lang, length) pairs
    )
    if hist.empty:  # empty corpus/partition: the aggregate's frame has no
        # columns at all, so the sort below would KeyError
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "n_chars": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.string()),
                }
            )
        )
    # ASC NULLS LAST (DuckDB's default): a NULL length ranks after every
    # real length within its language partition
    hist = hist.sort_values(
        ["lang_key", "lang_null", "n_chars"], ascending=True, na_position="last"
    )
    offsets: dict = {}
    totals: dict = {}
    for (lk, ln), sub in hist.groupby(["lang_key", "lang_null"], sort=False):
        c = sub["n"].to_numpy(dtype=np.int64)
        offs = np.cumsum(c) - c
        for nch, o in zip(sub["n_chars"].tolist(), offs.tolist()):
            offsets[(lk, bool(ln), None if pd.isna(nch) else int(nch))] = o
        totals[(lk, bool(ln))] = int(c.sum())

    def rank_group(group: pa.Table) -> pa.Table:
        lk = group["lang_key"][0].as_py()
        ln = bool(group["lang_null"][0].as_py())
        nch = group["n_chars"][0].as_py()
        nch = None if nch is None else int(nch)
        order = pa.array(
            np.argsort(group["doc_id"].to_numpy(zero_copy_only=False), kind="stable")
        )
        n = totals[(lk, ln)]
        rnk = np.arange(1, group.num_rows + 1, dtype=np.int64) + offsets[(lk, ln, nch)]
        bucket = np.where(3 * rnk <= n, "head", np.where(3 * rnk <= 2 * n, "middle", "tail"))
        return pa.table(
            {
                "doc_id": group["doc_id"].take(order),
                "lang": pa.array([None if ln else lk] * group.num_rows, pa.string()),
                "n_chars": group["n_chars"],
                "bucket": pa.array(bucket, pa.string()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "n_chars"])
        .map_groups(rank_group, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# end-to-end fuzzy dedup: cluster → keep-one-representative


def fuzzy_dedup_keep(
    sf_dir: str,
    threshold: float = 0.4,
    block: str = "label",
    n_cells: int = 16,
    probes: "int | None" = None,
) -> "rd.Dataset":
    """The step real dedup pipelines END with: every document carries its
    near-dup ``cluster_id`` (from :func:`dup_clusters`' min-label
    propagation over the embedding near-dup graph) plus the ``keep``
    decision — the cluster REPRESENTATIVE (smallest doc_id, i.e. the doc
    whose id equals its cluster label) is kept, every other member drops.
    Composing this over :func:`dup_clusters` closes the pairs → components
    → keep-one chain as one pipeline, the MinHash/SemDeDup production
    shape.

    Scale shape: inherits :func:`dup_clusters`' edge-subgraph propagation
    (O(dup nodes) per round, one union-tag corpus groupby) and adds only a
    map-only equality — no extra shuffle, no driver state.  ``block="ivf"``
    forwards to the cluster-first pair source."""
    clusters = dup_clusters(
        sf_dir, threshold=threshold, block=block, n_cells=n_cells, probes=probes
    )

    def mark(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "keep", pc.equal(batch["doc_id"], batch["cluster_id"])
        )

    return clusters.map_batches(mark, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Zipf vocabulary-coverage analytic (heavy-hitter token mass)


def vocab_coverage_90(sf_dir: str) -> pa.Table:
    """Per-language vocabulary coverage: how many DISTINCT words (ordered
    by frequency, descending) it takes to cover ≥ 90% of the language's
    token mass — the Zipf heavy-hitter curve point tokenizer-budget and
    vocabulary-pruning decisions read.  Thresholds are INTEGER-exact
    (``10·prefix < 9·total``) and the answer is TIE-ORDER INDEPENDENT:
    within an equal-count group the prefix masses enumerate ``base + i·v``
    whichever words occupy the positions, so the SQL window's arbitrary
    word-order tiebreak and the closed form below count identically.

    Scale shape: one ``(lang, word)`` count groupby (map-side partial
    counts, the shuffle moves |vocab| rows, never |tokens| — the
    :func:`distinct_words_per_lang` contract) folded into a COUNTS-OF-
    COUNTS histogram keyed ``(lang, count)`` — the driver collect is
    bounded by distinct (language, frequency-value) pairs (Zipf: O(√tokens)
    distinct counts), never vocabulary size; per-language prefix masses
    then resolve in closed form per tie group, no per-type expansion.

    NULL langs DROP: the oracle's final ``r JOIN t ON r.lang = t.lang``
    never matches a NULL key, so the NULL-lang group is filtered at the
    first map; both groupbys still shuffle on the (filled-key, is-null)
    two-key pattern — Ray 2.49's sort groupby cannot order NULL string
    keys."""

    def _lang_codes(arr) -> tuple:
        """(codes, dictionary-with-None-slot) for a possibly-NULL string
        column — the memory-documented replacement for to_pylist+np.unique,
        which raises str-vs-None TypeError."""
        ld = arr.combine_chunks().dictionary_encode()
        codes = ld.indices
        if codes.null_count:
            codes = pc.fill_null(codes, len(ld.dictionary))
        return (
            codes.to_numpy(zero_copy_only=False).astype(np.int64),
            ld.dictionary.to_pylist() + [None],
        )

    def pair_partial(batch: pa.Table) -> pa.Table:
        # NULL-lang docs drop: the oracle's final `r JOIN t ON r.lang = t.lang`
        # never matches a NULL key, so that group vanishes from the output
        if batch["lang"].null_count:
            batch = batch.filter(pc.is_valid(batch["lang"]))
        words = pc.split_pattern(pc.fill_null(batch["text"], ""), " ").combine_chunks()
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.values
        nw = np.diff(offs)
        lcodes, ldict = _lang_codes(batch["lang"])
        wd = flat.dictionary_encode()
        wcodes = wd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = max(len(wd.dictionary), 1)
        ukey, cnt = np.unique(np.repeat(lcodes, nw) * nv + wcodes, return_counts=True)
        langs = [ldict[i] for i in ukey // nv]
        return pa.table(
            {
                "lang_key": pa.array([x or "" for x in langs], pa.string()),
                "lang_null": pa.array([x is None for x in langs], pa.bool_()),
                "word": wd.dictionary.take(pa.array(ukey % nv)),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def hist_partial(batch: pa.Table) -> pa.Table:
        lk = np.asarray(batch["lang_key"].to_pylist(), dtype=object)
        ln = batch["lang_null"].to_numpy(zero_copy_only=False)
        cnts = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        ul, linv = np.unique(lk, return_inverse=True)
        key = (linv.astype(np.int64) * 2 + ln) << 40 | cnts  # counts < 2^40 by corpus bound
        ukey, n_types = np.unique(key, return_counts=True)
        gid = ukey >> 40
        return pa.table(
            {
                "lang_key": pa.array(ul[gid // 2], pa.string()),
                "lang_null": pa.array((gid % 2).astype(bool), pa.bool_()),
                "cnt": pa.array(ukey & ((1 << 40) - 1), pa.int64()),
                "n_types": pa.array(n_types.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        _docs(sf_dir, ["text", "lang"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "word"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "cnt"])
        .aggregate(Sum("n_types", alias_name="n_types"))
        .take_all()  # bounded by distinct (lang, frequency-value) pairs
    )
    by_lang: dict = {}
    for r in hist:
        lang = None if r["lang_null"] else r["lang_key"]
        by_lang.setdefault(lang, []).append((int(r["cnt"]), int(r["n_types"])))
    out = {"lang": [], "total_tokens": [], "n_types": [], "n_types_90": []}
    for lang in sorted(by_lang, key=lambda x: (x is None, x or "")):
        groups = sorted(by_lang[lang], reverse=True)  # count desc
        total = sum(v * m for v, m in groups)
        base, k90 = 0, 0
        for v, m in groups:
            num = 9 * total - 10 * base
            if num > 0:
                # smallest i with 10*(base + i*v) >= 9*total, clamped to m
                k90 += min(m, (num + 10 * v - 1) // (10 * v))
            base += v * m
        out["lang"].append(lang)
        out["total_tokens"].append(total)
        out["n_types"].append(sum(m for _, m in groups))
        out["n_types_90"].append(k90)
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "total_tokens": pa.array(out["total_tokens"], pa.int64()),
            "n_types": pa.array(out["n_types"], pa.int64()),
            "n_types_90": pa.array(out["n_types_90"], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# per-source novelty attribution (marginal diversity contribution)


def source_novelty(sf_dir: str, n: int = 2) -> "rd.Dataset":
    """Per-source count of word ``n``-grams the source INTRODUCED — each
    distinct gram is attributed to the document with the smallest doc_id
    containing it, and that document's source gets the credit.  The
    marginal-diversity measure source-selection decisions read: a source
    whose grams were all seen earlier adds no vocabulary, however large it
    is.  All integers, deterministic (min doc_id owns ties) — the oracle
    compare is exact.

    Scale shape: the distinct sources are collected FIRST (one tiny
    groupby, bounded by source cardinality) and broadcast as a code table
    in the closure, so the arg-min "which source owns this gram" rides a
    single int64 ``Min`` aggregate over packed ``doc_id·S + source_code``
    keys — no join, no struct aggregate, no second pass over text.  Map
    side emits DISTINCT (gram, packed) pairs per batch (one row per gram
    per batch, the :func:`boilerplate_ngram_stats` combiner contract), the
    only keyed exchange is the gram-keyed Min, and the per-source fold is
    map-side partials into a source-cardinality groupby.  NULL sources
    take the None slot of the code table (SQL GROUP BY keeps one)."""
    def tag_src(t: pa.Table) -> pa.Table:
        key, isnull = _null_safe_key(t["source"])
        return pa.table({"src_key": key, "src_null": isnull})

    src_rows = (
        _docs(sf_dir, ["source"])
        .map_batches(tag_src, batch_format="pyarrow")
        .groupby(["src_key", "src_null"])
        .aggregate(Count(alias_name="_n"))
        .take_all()  # bounded by source cardinality
    )
    sources = sorted(
        [None if r["src_null"] else r["src_key"] for r in src_rows],
        key=lambda x: (x is None, x or ""),
    )
    # None (if present) sorts LAST, so its code is len(non_null) — exactly
    # the fill value index_in's null result maps to below
    non_null = pa.array([s for s in sources if s is not None], pa.string())
    S = max(len(sources), 1)

    def gram_owner(batch: pa.Table) -> pa.Table:
        ndocs, udoc, ucode, gdict = _unique_doc_grams(batch, n)
        if not len(udoc):
            return pa.table(
                {"gram": pa.array([], pa.string()), "packed": pa.array([], pa.int64())}
            )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        scodes = (
            pc.fill_null(pc.index_in(batch["source"], value_set=non_null), len(non_null))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        packed = ids[udoc] * S + scodes[udoc]
        return pa.table({"gram": gdict.take(pa.array(ucode)), "packed": pa.array(packed, pa.int64())})

    def src_partial(batch: pa.Table) -> pa.Table:
        codes = (
            batch["packed"].to_numpy(zero_copy_only=False).astype(np.int64) % S
        )
        uk, cnt = np.unique(codes, return_counts=True)
        return pa.table(
            {
                "src_code": pa.array(uk, pa.int64()),
                "n_first_grams": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def decode(batch: pa.Table) -> pa.Table:
        codes = batch["src_code"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": pa.array([sources[c] for c in codes], pa.string()),
                "n_first_grams": batch["n_first_grams"],
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "source", "text"])
        .map_batches(gram_owner, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Min("packed", alias_name="packed"))
        .map_batches(src_partial, batch_format="pyarrow")
        .groupby("src_code")
        .aggregate(Sum("n_first_grams", alias_name="n_first_grams"))
        .map_batches(decode, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# per-language keep-rate audit over the Gopher rules


def gopher_keep_rates(sf_dir: str) -> "rd.Dataset":
    """Keep-rate of the :func:`gopher_quality_flags` rules PER LANGUAGE —
    the bias audit every production quality filter publishes (a rule set
    tuned on English silently drops other languages; this table is how
    that shows up).  Integer evidence only (``n_docs``, ``n_keep``) so the
    oracle compare is exact.

    Scale shape: ONE map pass (the same vectorized Gopher kernel, plus the
    lang key) folded batch-locally to (lang, n_docs, n_keep) partials —
    the groupby shuffles language-cardinality rows per batch, never
    documents.  NULL langs keep their own audit row via the
    (filled-key, is-null) two-key pattern."""

    def partial(batch: pa.Table) -> pa.Table:
        flags = _gopher_flag_arrays(batch)
        key, isnull = _null_safe_key(batch["lang"])
        lk = np.asarray(key.to_pylist(), dtype=object)
        ln = isnull.to_numpy(zero_copy_only=False)
        ul, linv = np.unique(lk, return_inverse=True)
        gid = linv.astype(np.int64) * 2 + ln
        ug, inv = np.unique(gid, return_inverse=True)
        n_docs = np.bincount(inv, minlength=len(ug)).astype(np.int64)
        n_keep = np.bincount(inv, weights=flags["keep"], minlength=len(ug)).astype(np.int64)
        return pa.table(
            {
                "lang_key": pa.array(ul[ug // 2], pa.string()),
                "lang_null": pa.array((ug % 2).astype(bool), pa.bool_()),
                "n_docs": pa.array(n_docs, pa.int64()),
                "n_keep": pa.array(n_keep, pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_keep", alias_name="n_keep"))
        .map_batches(
            lambda b: _restore_key(b, "lang", ("n_docs", "n_keep")),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# round-3 additions (session 2): stream lag/diff, cross-source contamination,
# Lloyd assignment


def events_user_interarrival(sf_dir: str) -> "rd.Dataset":
    """Per-user inter-arrival statistics: gap count, median and max gap in
    MICROSECONDS between consecutive events — the lag/diff window primitive
    (burst detection, bot filtering, session-rate QA) the event family was
    missing (sessionize/funnel/rolling cover gap-threshold, ordering and
    trailing-mean shapes but not the diff distribution itself).

    The gap multiset per user is invariant to tie order (consecutive
    differences of a SORTED multiset), so the kernel sorts ts only — no
    event_id tiebreak needed, and the oracle's ``ORDER BY ts, event_id``
    lag produces the identical diff multiset.  NULL ts rows drop exactly as
    the oracle's ``WHERE ... IS NOT NULL`` on the lag pair does (NaT sorts
    last; any pair touching one is excluded); a user with < 2 real events
    emits nothing (SQL GROUP BY over zero surviving rows).  Median follows
    the ``quantile_cont`` interpolation exactly (`_quantile_cont`).

    Scale shape: one shuffle on user_id (the same key the whole event
    family reuses), one vectorized numpy pass per group; the exchange
    carries (user_id, ts) only."""

    def gaps(group: pa.Table) -> pa.Table:
        ts = group["ts"].to_numpy(zero_copy_only=False)
        ts = np.sort(ts[~np.isnat(ts)])
        if len(ts) < 2:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_gaps": pa.array([], pa.int64()),
                    "median_gap_us": pa.array([], pa.float64()),
                    "max_gap_us": pa.array([], pa.int64()),
                }
            )
        d = (ts[1:] - ts[:-1]).astype("timedelta64[us]").astype(np.int64)
        d = np.sort(d)
        return pa.table(
            {
                "user_id": pa.array([group["user_id"][0].as_py()], pa.int64()),
                "n_gaps": pa.array([len(d)], pa.int64()),
                "median_gap_us": pa.array(
                    [_quantile_cont(d.astype(np.float64), 0.5)], pa.float64()
                ),
                "max_gap_us": pa.array([int(d[-1])], pa.int64()),
            }
        )

    from language_identification_ray.pipelines.relational import _group_spread

    return (
        _group_spread(rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))
        .groupby("user_id")
        .map_groups(gaps, batch_format="pyarrow")
    )


def cross_source_dup_stats(sf_dir: str, prefix: int = 40) -> "rd.Dataset":
    """Per-source cross-source contamination audit: of each source's
    documents, how many share their content key (md5 of a 40-char prefix,
    the :func:`exact_dedup` key) with a document from a DIFFERENT source —
    the between-shard leakage table a multi-crawl merge publishes before
    choosing dedup order (dropping dups source-by-source silently empties
    whichever shard dedups last).

    Two shuffles, both on small keys: (1) per-batch DISTINCT
    (fp, source, cnt) partials co-partitioned by a fingerprint-hash BUCKET
    — one vectorized ``map_groups`` call per bucket (the dup_clusters /
    source_unigram_kl pattern; a groupby on the raw fp would be one Python
    call per DISTINCT DOCUMENT), combining counts per (fp, source) with
    one ``np.unique`` and marking every row whose fp segment spans ≥ 2
    distinct sources (NULL source is its own source via the two-key
    pattern, matching the oracle's count(DISTINCT)+NULL-case arithmetic);
    each bucket pre-folds to per-source partials, so (2) the final
    exchange carries S rows per bucket.  The text never shuffles."""
    n_buckets = 256

    def keyed(batch: pa.Table) -> pa.Table:
        raw = [
            hashlib.md5((t or "")[:prefix].encode("utf-8")).digest()
            for t in batch["text"].to_pylist()
        ]
        skey, snull = _null_safe_key(batch["source"])
        df = pd.DataFrame(
            {
                "fp": [d.hex() for d in raw],
                "bucket": np.frombuffer(b"".join(raw), dtype="<u2")[::8]
                % n_buckets
                if raw
                else np.empty(0, np.int64),
                "source_key": skey.to_pandas(),
                "source_null": snull.to_pandas(),
            }
        )
        g = df.groupby(
            ["bucket", "fp", "source_key", "source_null"], sort=False
        ).size()
        out = g.reset_index(name="cnt")
        return pa.table(
            {
                "bucket": pa.array(out["bucket"].to_numpy().astype(np.int64), pa.int64()),
                "fp": pa.array(out["fp"], pa.string()),
                "source_key": pa.array(out["source_key"], pa.string()),
                "source_null": pa.array(out["source_null"], pa.bool_()),
                "cnt": pa.array(out["cnt"].to_numpy(), pa.int64()),
            }
        )

    def mark_bucket(group: pa.Table) -> pa.Table:
        # combine per (fp, source): partials from different batches may
        # repeat a pair; codes keep everything in numpy
        fpc, fpinv = np.unique(
            np.asarray(group["fp"].to_pylist(), dtype=object), return_inverse=True
        )
        sk = np.asarray(group["source_key"].to_pylist(), dtype=object)
        sn = group["source_null"].to_numpy(zero_copy_only=False)
        sinv, upairs = pd.MultiIndex.from_arrays([sk, sn]).factorize()
        usk = np.asarray(upairs.get_level_values(0), dtype=object)
        usn = np.asarray(upairs.get_level_values(1), dtype=bool)
        nsrc = max(len(usk), 1)
        key = fpinv.astype(np.int64) * nsrc + sinv
        uk, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(
            inv, weights=group["cnt"].to_numpy(zero_copy_only=False), minlength=len(uk)
        ).astype(np.int64)
        fpi, si = uk // nsrc, uk % nsrc
        # fp segment length = distinct sources for that fp
        seg_first = np.r_[True, fpi[1:] != fpi[:-1]]
        seg_start = np.flatnonzero(seg_first)
        seg_len = np.diff(np.r_[seg_start, len(fpi)])
        cross_mask = np.repeat(seg_len > 1, seg_len)
        cross = np.where(cross_mask, cnt, 0)
        # pre-fold to per-source partials (S rows out per bucket)
        out_docs = np.bincount(si, weights=cnt, minlength=nsrc).astype(np.int64)
        out_cross = np.bincount(si, weights=cross, minlength=nsrc).astype(np.int64)
        keep = out_docs > 0
        return pa.table(
            {
                "source_key": pa.array(usk[keep], pa.string()),
                "source_null": pa.array(usn[keep], pa.bool_()),
                "n_docs": pa.array(out_docs[keep], pa.int64()),
                "n_cross": pa.array(out_cross[keep], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["text", "source"])
        .map_batches(keyed, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(mark_bucket, batch_format="pyarrow")
        .groupby(["source_key", "source_null"])
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_cross", alias_name="n_cross_docs"))
        .map_batches(
            lambda b: _restore_key(b, "source", ("n_docs", "n_cross_docs")),
            batch_format="pyarrow",
        )
    )


def kmeans_assign(sf_dir: str, k: int = 8) -> "rd.Dataset":
    """One Lloyd assignment step: every embedding is assigned to its nearest
    of ``k`` fixed centroids (the vectors of the ``k`` smallest vec_ids —
    deterministic, so the oracle can reconstruct them), with the L2
    distance reported.  The building block the IVF coarse quantizer trains
    with (`stages/knn.py` bounds its training sample; this is the
    full-corpus assignment pass that follows at scale).

    Scale shape: the centroid matrix is tiny and read ONCE driver-side
    (``vec_id < k`` row filter — at scale ``ray.put`` + per-actor get, the
    knn_cosine_top10 pattern); the scan is map-only — one (n×k) distance
    matrix per batch via the expanded-norms matmul identity, no shuffle at
    all.  Ties (exactly equal distances) break to the smaller centroid id,
    matching the oracle's ``ORDER BY dist, cid``.  Distances are float64
    end-to-end (float32 inputs widen exactly); the reported distance is
    rounded to 4 decimals so the last-ulp difference between numpy's
    pairwise summation and the oracle's sequential ``list_distance`` sum
    cannot flip the hash."""
    import pyarrow.parquet as pq
    from language_identification_ray.stages.knn import _as_matrix

    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    )
    # a NULL embedding yields no unnest rows in the oracle's c0 CTE, so it
    # is never a centroid
    tbl = tbl.filter(pc.is_valid(tbl["embedding"]))
    if tbl.num_rows == 0:  # empty table: no centroids -> empty assignment
        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cid": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                }
            )
        )
    order = np.argsort(tbl["vec_id"].to_numpy())
    cids = tbl["vec_id"].to_numpy()[order].astype(np.int64)
    C = _as_matrix(tbl["embedding"])[order]  # (k, d) float64
    c_sq = (C * C).sum(axis=1)

    def assign(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["embedding"]))  # no unnest rows
        X = _as_matrix(batch["embedding"])
        if X.shape[0] == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cid": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                }
            )
        # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 — one matmul per batch
        d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + c_sq[None, :]
        np.maximum(d2, 0.0, out=d2)  # clamp the identity's negative dust
        best = np.argmin(d2, axis=1)  # first (= smallest cid) wins ties
        if C.shape[0] > 1:
            # near-tie refinement: the expanded identity loses ~1e-12
            # relative precision to cancellation, which can argmin to a
            # different centroid than the oracle's exact list_distance on
            # near-duplicate centroids.  For rows whose two best d2 are
            # within tolerance, recompute EXACT diff-square distances to
            # every centroid and re-argmin (exact ties then fall to the
            # first = smallest cid, the oracle's ORDER BY dist, cid).
            part = np.partition(d2, 1, axis=1)
            near = part[:, 1] - part[:, 0] <= 1e-9 * (1.0 + part[:, 1])
            if near.any():
                idx = np.flatnonzero(near)
                d2x = ((X[idx][:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
                best[idx] = np.argmin(d2x, axis=1)
        # report the winner's distance recomputed the direct way (exact
        # diff-square-sum) so rounding agrees with the oracle
        diff = X - C[best]
        dist = np.sqrt((diff * diff).sum(axis=1))
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cid": pa.array(cids[best], pa.int64()),
                "dist": pa.array(np.round(dist, 4), pa.float64()),
            }
        )

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]).map_batches(
        assign, batch_format="pyarrow"
    )


def source_unigram_kl(sf_dir: str, n_buckets: int = 64) -> pa.Table:
    """Pairwise KL divergence between per-source unigram distributions
    (add-1 smoothed over the global vocabulary) — the corpus-drift /
    shard-divergence analytic of data curation: which crawls/dumps are
    interchangeable and which would shift the training distribution
    (:func:`source_vocab_overlap` answers set overlap; this weighs the
    overlap by probability mass).  One row per ORDERED source pair
    (s1 ≠ s2, NULL-source docs excluded like the sibling op):
    ``kl = Σ_w p_1(w)·ln(p_1(w)/p_2(w))``, ``p_s(w) = (c_sw+1)/(N_s+V)``.

    Scale shape — the naive form is a dense V×S grid (the oracle builds
    exactly that, fine at fixture scale, fatal at web scale).  The kernel
    instead uses the algebraic split::

        KL(a‖b) = [G_a − L_b − X_ab]/(N_a+V) − ln(N_a+V) + ln(N_b+V)
        G_a = Σ_{w∈a}(c+1)ln(c+1),  L_a = Σ_{w∈a}ln(c+1),  N_a = Σ_{w∈a}c,
        X_ab = Σ_{w∈a∩b} c_aw·ln(c_bw+1)

    so only the SHARED-word term is pairwise: per-batch (word, source,
    cnt) partials are co-partitioned by a word-hash BUCKET (one vectorized
    ``map_groups`` call per bucket, not per word — the dup_clusters
    pattern), each bucket fully combines counts per word, emits
    per-(word, source) G/L/N partials plus ordered-pair X partials for
    PRESENT sources only (Σ_w m_w(m_w−1) rows, the source_vocab_overlap
    intersection scale — never V×S²), and one tiny (a, b) groupby folds
    them.  The final assembly reads ≤ S²+S aggregate rows driver-side
    (bounded by the source catalog, like the dimension collects in
    relational.py); V rides the fold as a first-of-word counter.  The
    regrouped float arithmetic differs from the oracle's direct
    ``Σ p ln(p/q)`` at ~1e-15; rounding to 6 decimals absorbs it."""
    cat = (
        _docs(sf_dir, ["source"])
        .map_batches(
            lambda b: b.filter(pc.is_valid(b["source"])), batch_format="pyarrow"
        )
        .groupby("source")
        .aggregate(Count(alias_name="_n"))
        .take_all()
    )
    names = sorted(r["source"] for r in cat if r["source"] is not None)
    S = len(names)
    out_schema = pa.schema([("s1", pa.string()), ("s2", pa.string()), ("kl", pa.float64())])
    if S < 2:
        return out_schema.empty_table()
    src_arr = pa.array(names, pa.string())

    def _empty_partial() -> pa.Table:
        e = pa.array([], pa.int64())
        return pa.table(
            {"bucket": e, "word": pa.array([], pa.string()), "sidx": e, "cnt": e}
        )

    def count_partial(batch: pa.Table) -> pa.Table:
        if batch["source"].null_count:
            batch = batch.filter(pc.is_valid(batch["source"]))
        if batch.num_rows == 0:
            return _empty_partial()
        words = pc.split_pattern(pc.fill_null(batch["text"], ""), " ").combine_chunks()
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        gd = words.values.dictionary_encode()
        K = len(gd.dictionary)
        if K == 0:
            return _empty_partial()
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        sidx = (
            pc.index_in(batch["source"], value_set=src_arr)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        key, cnt = np.unique(np.repeat(sidx, lens) * K + codes, return_counts=True)
        wtbl = gd.dictionary.take(pa.array(key % K))
        # word -> bucket must be a pure function of the word so every
        # partial row for one word lands in one group (pandas siphash is
        # process-stable; see stages/dedup._hash_words32)
        wh = pd.util.hash_array(np.asarray(wtbl.to_pylist(), dtype=object))
        return pa.table(
            {
                "bucket": pa.array((wh % n_buckets).astype(np.int64), pa.int64()),
                "word": wtbl,
                "sidx": pa.array(key // K, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def _empty_fold() -> pa.Table:
        e = pa.array([], pa.int64())
        f = pa.array([], pa.float64())
        return pa.table({"a": e, "b": e, "c": e, "g": f, "l": f, "x": f, "w": e})

    def bucket_fold(group: pa.Table) -> pa.Table:
        wcode, winv = np.unique(
            np.asarray(group["word"].to_pylist(), dtype=object), return_inverse=True
        )
        key = winv.astype(np.int64) * S + group["sidx"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(key, return_inverse=True)
        c = np.bincount(
            inv, weights=group["cnt"].to_numpy(zero_copy_only=False), minlength=len(uk)
        ).astype(np.int64)
        wc, si = uk // S, uk % S
        ln_c1 = np.log(c + 1.0)
        g = (c + 1.0) * ln_c1
        first = np.r_[True, wc[1:] != wc[:-1]]
        a_rows = [si]
        b_rows = [np.full(len(si), -1, np.int64)]
        c_rows = [c]
        g_rows = [g]
        l_rows = [ln_c1]
        x_rows = [np.zeros(len(si))]
        w_rows = [first.astype(np.int64)]
        seg_start = np.flatnonzero(first)
        v = np.diff(np.r_[seg_start, len(wc)])
        m = v * (v - 1)  # ordered pairs per word among PRESENT sources
        if int(m.sum()):
            q = _segment_aranges(np.zeros(len(m), dtype=np.int64), m)
            vv = np.repeat(v, m)
            ss = np.repeat(seg_start, m)
            i = q // (vv - 1)
            r = q % (vv - 1)
            j = r + (r >= i)
            ai, bi = ss + i, ss + j
            a_rows.append(si[ai])
            b_rows.append(si[bi])
            z = np.zeros(len(ai))
            c_rows.append(np.zeros(len(ai), np.int64))
            g_rows.append(z)
            l_rows.append(z)
            x_rows.append(c[ai] * ln_c1[bi])
            w_rows.append(np.zeros(len(ai), np.int64))
        return pa.table(
            {
                "a": pa.array(np.concatenate(a_rows), pa.int64()),
                "b": pa.array(np.concatenate(b_rows), pa.int64()),
                "c": pa.array(np.concatenate(c_rows), pa.int64()),
                "g": pa.array(np.concatenate(g_rows), pa.float64()),
                "l": pa.array(np.concatenate(l_rows), pa.float64()),
                "x": pa.array(np.concatenate(x_rows), pa.float64()),
                "w": pa.array(np.concatenate(w_rows), pa.int64()),
            }
        )

    agg = (
        _docs(sf_dir, ["text", "source"])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_fold, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(
            Sum("c", alias_name="c"),
            Sum("g", alias_name="g"),
            Sum("l", alias_name="l"),
            Sum("x", alias_name="x"),
            Sum("w", alias_name="w"),
        )
        .to_pandas()  # bounded: <= S^2 + S rows (source catalog squared)
    )
    if agg.empty:  # sources exist but every text is empty -> no words at all
        # (unreachable in practice: '' splits to one '' token; keep the guard)
        return out_schema.empty_table()
    stat = agg[agg["b"] == -1].set_index("a")
    N = np.zeros(S)
    G = np.zeros(S)
    L = np.zeros(S)
    for a in stat.index:
        N[a], G[a], L[a] = stat.at[a, "c"], stat.at[a, "g"], stat.at[a, "l"]
    V = float(stat["w"].sum())
    X = {
        (int(r["a"]), int(r["b"])): float(r["x"])
        for _, r in agg[agg["b"] >= 0].iterrows()
    }
    s1, s2, kl = [], [], []
    for a in range(S):
        for b in range(S):
            if a == b:
                continue
            s1.append(names[a])
            s2.append(names[b])
            kl.append(
                round(
                    (G[a] - L[b] - X.get((a, b), 0.0)) / (N[a] + V)
                    - np.log(N[a] + V)
                    + np.log(N[b] + V),
                    6,
                )
            )
    return pa.table(
        {
            "s1": pa.array(s1, pa.string()),
            "s2": pa.array(s2, pa.string()),
            "kl": pa.array(kl, pa.float64()),
        }
    )


def stratified_sample(sf_dir: str, n_buckets: int = 10, k: int = 5) -> "rd.Dataset":
    """Stratified deterministic sampling: every language is split into
    ``n_buckets`` equal-size length bands (SQL ``ntile`` over
    ``(n_chars ASC, doc_id ASC)``) and each (language, band) keeps its
    ``k`` docs with the smallest ``md5(doc_id)`` — the eval-set /
    human-audit carve-out every corpus release needs (a content-addressed
    pick is reproducible across engines and stable under re-runs; a
    uniform pick would oversample the short-doc mass).

    Scale shape: the per-language histogram-rank primitive again
    (:func:`ccnet_tercile_buckets` — pass 1 is a ``(lang, n_chars)``
    COUNT whose driver collect is bounded by distinct (language, length)
    pairs), with the ntile bucket computed CLOSED-FORM from the rank
    (``q = n//B`` rows per bucket, the first ``n%B`` buckets one fatter —
    exactly the SQL remainder rule, integer-exact).  Pass 2 ranks each
    tie group, assigns bands, and pre-trims to a per-band top-k partial,
    so the final ``(lang, band)`` exchange carries ≤ k rows per band per
    tie group, never the corpus.  NULL langs form their own partition via
    the two-key pattern."""
    B = int(n_buckets)

    def tag(batch: pa.Table) -> pa.Table:
        # shared two-key NULL-safe helper; doc_id rides along only on the
        # pass that reads it (the histogram pass prunes it at the read).
        # n_chars gets the same two-key treatment so NULL lengths form a
        # real group that sorts NULLS LAST like the oracle's ntile ORDER BY
        extra = ("doc_id",) if "doc_id" in batch.schema.names else ()
        out = _tag_key(batch, "lang", ("n_chars",) + extra)
        nch = out["n_chars"]
        out = out.drop_columns(["n_chars"])
        out = out.append_column("nch_key", pc.fill_null(nch.cast(pa.int64()), 0))
        out = out.append_column("nch_null", pc.is_null(nch))
        return out

    hist = (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "nch_key", "nch_null"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # bounded by distinct (lang, length) pairs
    )
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "lang": pa.array([], pa.string()),
            "bucket": pa.array([], pa.int64()),
            "pick": pa.array([], pa.int64()),
        }
    )
    if hist.empty:
        return rd.from_arrow(empty)
    # nch_null sorts after non-null within each lang: ntile's NULLS LAST
    hist = hist.sort_values(
        ["lang_key", "lang_null", "nch_null", "nch_key"], ascending=True
    )
    offsets: dict = {}
    totals: dict = {}
    for (lk, ln), sub in hist.groupby(["lang_key", "lang_null"], sort=False):
        c = sub["n"].to_numpy(dtype=np.int64)
        offs = np.cumsum(c) - c
        for nch, nn, o in zip(
            sub["nch_key"].tolist(), sub["nch_null"].tolist(), offs.tolist()
        ):
            offsets[(lk, bool(ln), int(nch), bool(nn))] = o
        totals[(lk, bool(ln))] = int(c.sum())

    def band_partial(group: pa.Table) -> pa.Table:
        lk = group["lang_key"][0].as_py()
        ln = bool(group["lang_null"][0].as_py())
        nch = int(group["nch_key"][0].as_py())
        nn = bool(group["nch_null"][0].as_py())
        ids = np.sort(group["doc_id"].to_numpy(zero_copy_only=False))
        n = totals[(lk, ln)]
        rnk = np.arange(1, len(ids) + 1, dtype=np.int64) + offsets[(lk, ln, nch, nn)]
        q, big = n // B, n % B
        thresh = big * (q + 1)
        # ntile remainder rule; q==0 keeps the first branch (rnk <= n = thresh)
        bucket = np.where(
            rnk <= thresh,
            (rnk - 1) // (q + 1) + 1,
            big + (rnk - thresh - 1) // max(q, 1) + 1,
        )
        df = pd.DataFrame(
            {
                "bucket": bucket,
                "h": [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids],
                "doc_id": ids,
            }
        )
        df = df.sort_values(["bucket", "h", "doc_id"]).groupby("bucket").head(k)
        return pa.table(
            {
                "lang_key": pa.array([lk] * len(df), pa.string()),
                "lang_null": pa.array([ln] * len(df), pa.bool_()),
                "bucket": pa.array(df["bucket"].to_numpy(), pa.int64()),
                "h": pa.array(df["h"], pa.string()),
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
            }
        )

    def final_pick(group: pa.Table) -> pa.Table:
        df = (
            group.select(["h", "doc_id"])
            .to_pandas()
            .sort_values(["h", "doc_id"])
            .head(k)
        )
        ln = bool(group["lang_null"][0].as_py())
        lk = group["lang_key"][0].as_py()
        m = len(df)
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
                "lang": pa.array([None if ln else lk] * m, pa.string()),
                "bucket": pa.array([group["bucket"][0].as_py()] * m, pa.int64()),
                "pick": pa.array(np.arange(1, m + 1, dtype=np.int64)),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "nch_key", "nch_null"])
        .map_groups(band_partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "bucket"])
        .map_groups(final_pick, batch_format="pyarrow")
    )


def word_entropy(sf_dir: str) -> "rd.Dataset":
    """Per-document Shannon entropy of the word distribution (nats) plus
    type/token counts — the gibberish/template signal quality filters pair
    with the repetition fraction (a spam page repeating one token has
    H ≈ 0; a natural page tracks its vocabulary's log-size; Gopher's
    top-word-repetition cap is the one-word special case of this).

    Map-only and fully vectorized: one ``np.unique`` over packed
    (doc, word-code) keys per batch gives per-doc type counts and the
    probability terms in a single pass — no shuffle, no per-doc Python.
    NULL/empty text behaves like the engine's split convention (one ''
    token, entropy 0).  ``+ 0.0`` normalizes IEEE −0.0 (single-type docs
    produce ``-(1·ln 1)``) so both engines hash the same zero."""

    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        words = pc.split_pattern(_text_col(batch), " ")
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        gd = words.values.dictionary_encode()
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        K = max(len(gd.dictionary), 1)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
        uk, ucnt = np.unique(doc_of * K + codes, return_counts=True)
        udoc = uk // K
        n_types = np.bincount(udoc, minlength=n).astype(np.int64)
        p = ucnt / lens[udoc].astype(np.float64)
        h = np.bincount(udoc, weights=-p * np.log(p), minlength=n)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(lens, pa.int64()),
                "n_types": pa.array(n_types, pa.int64()),
                "entropy": pa.array(np.round(h, 6) + 0.0, pa.float64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def dsir_importance_weights(sf_dir: str, n_buckets: int = 4096) -> "rd.Dataset":
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): every document scores
    ``logw = Σ_tokens [ln p_target(b(w)) − ln p_raw(b(w))]`` under two
    HASHED-unigram bag-of-buckets models — the scalable stand-in for "how
    much does this web page look like the target domain", sampled with
    Gumbel noise downstream.  The target here is the lexicographically
    first source (deterministic, so the oracle can reconstruct it); raw is
    the whole corpus; both use add-1 smoothing over the ``n_buckets``
    hash buckets.

    Scale shape — hashing is the POINT of DSIR: the two distributions are
    fixed ``n_buckets``-long arrays no matter the corpus (this is why the
    paper hashes instead of using a vocabulary), so pass 1 is per-batch
    bucket-count partials folded through one tiny groupby (exchange ≤
    n_buckets rows per batch, driver collect bounded by n_buckets), and
    pass 2 is MAP-ONLY with the two log-prob arrays closed over (at scale:
    ``ray.put`` once, gathered per batch with one ``np.take`` +
    ``np.bincount``).  The bucket is DuckDB-reproducible:
    ``md5_number_lower(word) % n_buckets`` == the md5 digest's last 8
    bytes little-endian — verified byte-exact against the oracle."""
    B = int(n_buckets)

    def _bucket(words: list) -> np.ndarray:
        """md5 bucket per token, hashing each DISTINCT word once per batch
        (web text repeats words heavily; the md5 loop runs over the batch
        vocabulary, not the token stream)."""
        if not words:
            return np.empty(0, np.int64)
        uw, inv = np.unique(np.asarray(words, dtype=object), return_inverse=True)
        ub = np.fromiter(
            (
                int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[8:], "little") % B
                for w in uw
            ),
            dtype=np.int64,
            count=len(uw),
        )
        return ub[inv]

    # the deterministic target domain: lexicographically first source
    tgt = (
        _docs(sf_dir, ["source"])
        .map_batches(
            lambda b: pa.table(
                {"m": pa.array([pc.min(b["source"]).as_py()], pa.string())}
            ),
            batch_format="pyarrow",
        )
        .to_pandas()  # bounded: one row per batch
    )
    # an empty corpus yields a column-less frame (no batch ever ran)
    tgt = tgt["m"].dropna() if "m" in tgt.columns else tgt.squeeze(axis=1)
    target_source = tgt.min() if len(tgt) else None

    def count_partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        is_t = (
            pc.equal(pc.fill_null(batch["source"], ""), target_source or "")
            .to_numpy(zero_copy_only=False)
            if target_source is not None
            else np.zeros(len(texts), dtype=bool)
        )
        if target_source is not None and batch["source"].null_count:
            is_t &= pc.is_valid(batch["source"]).to_numpy(zero_copy_only=False)
        words_per_doc = [(t or "").split(" ") for t in texts]
        lens = np.fromiter((len(w) for w in words_per_doc), np.int64, count=len(texts))
        import itertools

        bk = _bucket(list(itertools.chain.from_iterable(words_per_doc)))
        t_mask = np.repeat(is_t, lens)
        c_r = np.bincount(bk, minlength=B)
        c_t = np.bincount(bk[t_mask], minlength=B)
        nz = np.flatnonzero(c_r)
        return pa.table(
            {
                "b": pa.array(nz, pa.int64()),
                "c_t": pa.array(c_t[nz], pa.int64()),
                "c_r": pa.array(c_r[nz], pa.int64()),
            }
        )

    folded = (
        _docs(sf_dir, ["text", "source"])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(Sum("c_t", alias_name="c_t"), Sum("c_r", alias_name="c_r"))
        .to_pandas()  # bounded: <= n_buckets rows (DSIR's fixed model size)
    )
    c_t = np.zeros(B, np.int64)
    c_r = np.zeros(B, np.int64)
    if not folded.empty:
        c_t[folded["b"].to_numpy()] = folded["c_t"].to_numpy()
        c_r[folded["b"].to_numpy()] = folded["c_r"].to_numpy()
    n_t, n_r = int(c_t.sum()), int(c_r.sum())
    # per-bucket log ratio; the ln(N+B) normalizers fold into one constant
    log_ratio = np.log(c_t + 1.0) - np.log(c_r + 1.0)
    const = np.log(n_r + float(B)) - np.log(n_t + float(B))

    def score(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        words_per_doc = [(t or "").split(" ") for t in texts]
        lens = np.fromiter((len(w) for w in words_per_doc), np.int64, count=len(texts))
        import itertools

        bk = _bucket(list(itertools.chain.from_iterable(words_per_doc)))
        doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        s = np.bincount(doc_of, weights=log_ratio[bk], minlength=len(texts))
        logw = s + lens * const
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens, pa.int64()),
                "logw": pa.array(np.round(logw, 6) + 0.0, pa.float64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text", "source"]).map_batches(
        score, batch_format="pyarrow"
    )


def events_retention_cohorts(sf_dir: str, n_buckets: int = 64) -> "rd.Dataset":
    """Weekly cohort retention matrix: users are cohorted by the ISO week
    (Monday floor, = SQL ``date_trunc('week')``) of their FIRST event, and
    each (cohort_week, week_offset) cell counts the cohort's users active
    that many weeks later — the standard product-analytics retention
    triangle, here as the streaming-shaped Ray op.

    Scale shape: per-batch DISTINCT (user, week) partials (vectorized
    Monday floor on int64 days), co-partitioned by ``user % n_buckets`` —
    one vectorized ``map_groups`` call per bucket resolves every user's
    cohort (= segment min) and emits per-(cohort, offset) COUNT partials,
    each user counted once per distinct week (a per-user groupby would be
    one Python call per user — millions at scale).  The final exchange
    folds cell partials: O(cohorts × offsets) rows.  NULL-ts events drop,
    matching the oracle's WHERE; NULL-user events drop too, matching the
    oracle's ``JOIN ... USING (user_id)`` (NULL never equals NULL).  The
    (user, week) distinct uses the lexsort helper, not bit-packing, so a
    64-bit-hash user_id cannot overflow."""

    def week_partial(batch: pa.Table) -> pa.Table:
        uid_col = batch["user_id"]
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        ok = ~np.isnat(ts)
        if uid_col.null_count:
            ok &= ~np.asarray(pc.is_null(uid_col))
        uid = np.asarray(
            pc.fill_null(uid_col, 0).to_numpy(zero_copy_only=False), dtype=np.int64
        )
        ts, uid = ts[ok], uid[ok]
        d = ts.astype("datetime64[D]").astype(np.int64)
        # epoch day 0 = Thursday; Monday-aligned floor (floor-div handles
        # pre-epoch correctly)
        wk = ((d - 4) // 7) * 7 + 4
        u, w = _unique_pairs(uid, wk)
        return pa.table(
            {
                "bucket": pa.array(u % n_buckets, pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "week": pa.array(w, pa.int64()),
            }
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        w = group["week"].to_numpy(zero_copy_only=False)
        # combine cross-batch dupes, then per-user segments (sorted by user)
        u, w = _unique_pairs(u, w)
        first = np.r_[True, u[1:] != u[:-1]]
        cohort = np.repeat(w[first], np.diff(np.r_[np.flatnonzero(first), len(u)]))
        off = (w - cohort) // 7
        cell, cnt = np.unique(cohort * np.int64(1 << 20) + off, return_counts=True)
        return pa.table(
            {
                "cohort_day": pa.array(cell >> 20, pa.int64()),
                "week_offset": pa.array(cell & ((1 << 20) - 1), pa.int64()),
                "n_users": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "cohort_day" not in batch.schema.names:
            # empty corpus: the aggregate emits a column-less frame
            return pa.table(
                {
                    "cohort_week": pa.array([], pa.timestamp("us")),
                    "week_offset": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        days = batch["cohort_day"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cohort_week": pa.array(
                    days.astype("datetime64[D]").astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "week_offset": batch["week_offset"],
                "n_users": batch["n_users"],
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
        .map_batches(week_partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold_bucket, batch_format="pyarrow")
        .groupby(["cohort_day", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .map_batches(finish, batch_format="pyarrow")
    )


def substring_dup_pairs(sf_dir: str, L: int = 40, n_buckets: int = 256) -> "rd.Dataset":
    """Exact-substring duplicate pair mining (the Lee et al. 2022
    "Deduplicating Training Data" signal, fixed-window variant): every
    document pair sharing at least one exact ``L``-char substring, with
    ``n_shared`` = how many distinct ``L``-grams they share — catches
    copied passages exact/minhash doc-level dedup misses (a quote or
    boilerplate paragraph inside otherwise-different pages).

    The contract is HASH-based on both engines (pairs share an
    ``md5(L-gram)``), so the oracle is the identical computation and an
    md5 collision — never observed in practice — would affect both sides
    equally.  Scale shape: per-batch DISTINCT (gram-hash, doc) rows
    (each doc contributes each gram once), co-partitioned by the digest's
    leading bytes — one vectorized call per bucket expands each gram's
    doc list to condensed-triangular (a < b) pairs and pre-folds them to
    per-pair counts, so the final exchange carries folded pair rows, not
    gram rows.  Flood guard — PART OF THE DECLARED CONTRACT: a gram
    present in > ``max_gram_docs`` documents is boilerplate, not
    duplication (the boilerplate op owns that signal) and would emit
    O(m²) pairs; both the engine AND the oracle SQL exclude such grams
    (`HAVING count(*) <= 64` in the oracle), so the two sides stay
    hash-exact on flood-heavy corpora, and the engine logs a warning
    with the dropped-gram count whenever the cap fires.  The
    per-position md5 loop is the SQL-parity choice; the 100 TB path
    swaps in a vectorized rolling polynomial hash under the same
    hash-based contract."""
    max_gram_docs = 64

    def grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        h_out: list = []
        d_out: list = []
        for doc_id, t in zip(ids, texts):
            t = t or ""
            if len(t) < L:
                continue
            seen = {
                hashlib.md5(t[i : i + L].encode("utf-8")).digest()
                for i in range(len(t) - L + 1)
            }
            h_out.extend(seen)
            d_out.extend([int(doc_id)] * len(seen))
        if not h_out:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "h": pa.array([], pa.binary()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        bk = np.frombuffer(b"".join(h_out), dtype="<u2")[::8] % n_buckets
        return pa.table(
            {
                "bucket": pa.array(bk.astype(np.int64), pa.int64()),
                "h": pa.array(h_out, pa.binary()),
                "doc_id": pa.array(d_out, pa.int64()),
            }
        )

    def pair_fold(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "n_shared": pa.array([], pa.int64()),
            }
        )
        hc, hinv = np.unique(
            np.asarray(group["h"].to_pylist(), dtype=object), return_inverse=True
        )
        docs = group["doc_id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((docs, hinv))
        hi, di = hinv[o], docs[o]
        first = np.r_[True, hi[1:] != hi[:-1]]
        seg_start = np.flatnonzero(first)
        v = np.diff(np.r_[seg_start, len(hi)])
        flood = v > max_gram_docs
        if flood.any():
            import logging

            logging.getLogger(__name__).warning(
                "substring_dup_pairs: %d gram(s) exceeded max_gram_docs=%d "
                "(max doc-list %d) — dropped per the boilerplate contract "
                "(mirrored in the oracle SQL)",
                int(flood.sum()),
                max_gram_docs,
                int(v.max()),
            )
            v = np.where(flood, 0, v)  # boilerplate-grade grams: dropped
        m = v * (v - 1) // 2
        total = int(m.sum())
        if total == 0:
            return empty
        q = _segment_aranges(np.zeros(len(m), dtype=np.int64), m)
        vv = np.repeat(v, m)
        ss = np.repeat(seg_start, m)
        # condensed index q -> triangular (i, j), i < j (squareform decode)
        i = (
            vv
            - 2
            - np.floor(
                np.sqrt(-8.0 * q + 4.0 * vv * (vv - 1) - 7.0) / 2.0 - 0.5
            ).astype(np.int64)
        )
        j = q + i + 1 - (vv * (vv - 1)) // 2 + ((vv - i) * (vv - i - 1)) // 2
        a, b = di[ss + i], di[ss + j]
        lo, hiid = np.minimum(a, b), np.maximum(a, b)
        pairs = np.stack([lo, hiid], axis=1)
        upairs, cnt = np.unique(
            np.ascontiguousarray(pairs).view("V16"), return_counts=True
        )
        up = upairs.view(np.int64).reshape(-1, 2)
        return pa.table(
            {
                "doc_a": pa.array(up[:, 0], pa.int64()),
                "doc_b": pa.array(up[:, 1], pa.int64()),
                "n_shared": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(grams, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pair_fold, batch_format="pyarrow")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Sum("n_shared", alias_name="n_shared"))
    )


def bm25_topk(sf_dir: str, query: str = "table spark value", k: int = 100) -> "rd.Dataset":
    """Distributed BM25 retrieval (Robertson/Lucene form, k1=1.2, b=0.75):
    top-``k`` documents for a bag-of-words query — the classic sparse
    retrieval primitive (and the first stage of every hybrid RAG corpus
    pipeline).  ``idf = ln((N−df+0.5)/(df+0.5)+1)``; per-doc term score
    ``idf·tf·(k1+1)/(tf + k1·(1−b+b·dl/avgdl))``.

    Scale shape: BM25 needs only QUERY-term statistics, never the full
    inverted index — pass 1 folds per-batch partials (doc count, token
    count, per-term document frequency: |terms| + 2 numbers per batch)
    through one tiny groupby and the collect is bounded by the query
    length; pass 2 is MAP-ONLY scoring with those constants closed over
    (``ray.put`` at scale) + per-batch top-k pre-trim, so the final sort
    sees ≤ k rows per batch.  Docs containing no query term score nothing
    and never leave their batch.  The sort key is the ROUNDED score (ties
    to doc_id asc) so both engines order identically."""
    K1, B_ = 1.2, 0.75
    terms = sorted(set(query.split()))
    term_arr = pa.array(terms, pa.string())

    def stats_partial(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(_text_col(batch), " ")
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        tcode = (
            pc.fill_null(pc.index_in(words.values, value_set=term_arr), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        # df partial: distinct (doc, term) hits in this batch (docs are
        # unique per batch, so partial dfs sum exactly)
        key = np.unique(doc_of[tcode >= 0] * len(terms) + tcode[tcode >= 0])
        dfp = np.bincount((key % len(terms)).astype(np.int64), minlength=len(terms))
        return pa.table(
            {
                "term_id": pa.array(np.arange(len(terms) + 1, dtype=np.int64)),
                # slot len(terms) carries the (n_docs, n_tokens) totals
                "df": pa.array(np.r_[dfp, 0].astype(np.int64), pa.int64()),
                "n_docs": pa.array(
                    np.r_[np.zeros(len(terms), np.int64), batch.num_rows], pa.int64()
                ),
                "n_tokens": pa.array(
                    np.r_[np.zeros(len(terms), np.int64), int(lens.sum())], pa.int64()
                ),
            }
        )

    agg = (
        _docs(sf_dir, ["text"])
        .map_batches(stats_partial, batch_format="pyarrow")
        .groupby("term_id")
        .aggregate(
            Sum("df", alias_name="df"),
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
        .to_pandas()  # bounded: |query terms| + 1 rows
    )
    out_schema = pa.schema([("doc_id", pa.int64()), ("score", pa.float64())])
    if agg.empty:
        return rd.from_arrow(out_schema.empty_table())
    agg = agg.set_index("term_id")
    N = int(agg["n_docs"].sum())
    total_tokens = int(agg["n_tokens"].sum())
    if N == 0:
        return rd.from_arrow(out_schema.empty_table())
    avgdl = float(total_tokens) / N
    df = np.array([int(agg["df"].get(i, 0)) for i in range(len(terms))], np.float64)
    idf = np.log((N - df + 0.5) / (df + 0.5) + 1.0)

    def score(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(_text_col(batch), " ")
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        tcode = (
            pc.fill_null(pc.index_in(words.values, value_set=term_arr), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        m = tcode >= 0
        tf = np.zeros((batch.num_rows, len(terms)))
        np.add.at(tf, (doc_of[m], tcode[m]), 1.0)
        denom = tf + K1 * (1.0 - B_ + B_ * (lens / avgdl))[:, None]
        s = ((idf[None, :] * tf * (K1 + 1.0)) / denom).sum(axis=1)
        srz = np.round(s, 6) + 0.0
        keep = np.flatnonzero(tf.sum(axis=1) > 0)
        order = keep[np.lexsort((batch["doc_id"].to_numpy()[keep], -srz[keep]))][:k]
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(order)),
                "score": pa.array(srz[order], pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
    )


def user_cumulative_spend(sf_dir: str, n_buckets: int = 64) -> "rd.Dataset":
    """Per-event running total of event value per user (ROWS UNBOUNDED
    PRECEDING ordered by (ts NULLS LAST, event_id)) — the unbounded-prefix
    window aggregate that pairs with :func:`user_rolling_avg`'s bounded
    window (SURVEY §2.9 streaming shapes).

    Scale shape: co-partitioned by ``user % n_buckets`` — ONE vectorized
    ``map_groups`` call per bucket (not per user: segment-keyed cumsums
    over the lexsorted bucket, the retention-cohort pattern), so Python
    cost is O(buckets).  Exactness: values become integer cents before
    the cumsum (order-independent int math, the ``user_rolling_avg``
    contract).  NULL semantics match the SQL window exactly: NULL users
    form ONE partition (their own bucket), NULL timestamps sort LAST
    within their user, NULL values don't advance the sum and a prefix of
    only-NULL values yields a NULL running total (SQL ``sum`` over an
    all-NULL frame)."""

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"]
        filled = pc.fill_null(uid, 0).cast(pa.int64())
        isnull = pc.is_null(uid)
        u_np = filled.to_numpy(zero_copy_only=False).astype(np.int64)
        # numpy % with a positive modulus is non-negative for negative ids;
        # NULL users take the extra bucket n_buckets (their own partition)
        bkt = pa.array(
            np.where(
                np.asarray(isnull.combine_chunks() if isinstance(isnull, pa.ChunkedArray) else isnull),
                n_buckets,
                u_np % n_buckets,
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "bkt": bkt,
                "uid_key": filled,
                "uid_null": isnull,
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "value": batch["value"],
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        u = group["uid_key"].to_numpy(zero_copy_only=False)
        nl = np.asarray(group["uid_null"].to_pylist(), dtype=bool)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        # NULLS LAST: NaT is INT64_MIN in the raw view, so lexsort would put
        # it FIRST — remap to INT64_MAX explicitly
        ts_i = ts.view("i8").copy()
        ts_i[np.isnat(ts)] = np.iinfo(np.int64).max
        order = np.lexsort((eid, ts_i, u, nl))
        g = group.take(pa.array(order))
        u, nl = u[order], nl[order]
        vals = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        vnull = np.isnan(vals)
        cents = np.where(vnull, 0.0, np.floor(vals * 100.0 + 0.5)).astype(np.int64)
        first = np.r_[True, (u[1:] != u[:-1]) | (nl[1:] != nl[:-1])]
        seg = np.cumsum(first) - 1
        csum = np.cumsum(cents)
        ncnt = np.cumsum(~vnull)
        starts = np.flatnonzero(first)
        base_c = (csum[starts] - cents[starts])[seg]
        base_n = (ncnt[starts] - (~vnull[starts]).astype(np.int64))[seg]
        cum = csum - base_c
        nn = ncnt - base_n
        spend = pa.array(
            np.where(nn > 0, cum / 100.0, np.nan), pa.float64(), mask=(nn == 0)
        )
        return pa.table(
            {
                "event_id": g["event_id"],
                "user_id": pc.if_else(
                    g["uid_null"], pa.scalar(None, pa.int64()), g["uid_key"]
                ),
                "ts": g["ts"],
                "cum_spend": spend,
            }
        )

    return (
        rd.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
        )
        .map_batches(tag, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(fold, batch_format="pyarrow")
    )


def pmi_top100(
    sf_dir: str, min_count: int = 5, k: int = 100, n_buckets: int = 64
) -> "rd.Dataset":
    """Top-``k`` adjacent-word collocations by pointwise mutual information:
    ``pmi(w1,w2) = ln( (c2/B) / ((c1[w1]/T)·(c1[w2]/T)) )`` with bigram
    count ``c2``, unigram counts ``c1``, total tokens ``T``, total bigrams
    ``B`` — the classic collocation-mining analytic (Church & Hanks 1990),
    with a ``min_count`` support floor so rare accidents don't dominate.

    Scale shape — TWO int-keyed bucket exchanges total, no string-keyed
    groupby anywhere (Ray's sort shuffle pays dearly for string keys):
    one text scan emits batch-local unigram partials bucketed by
    ``hash(word)`` and bigram partials bucketed by ``hash(w1)`` — the
    SAME bucket, so exchange 1 folds exact unigram counts, exact bigram
    counts, AND the left unigram attach in one vectorized pandas call
    per bucket, emitting per-bucket T/B total rows besides (bounded by
    ``n_buckets``, collected driver-side).  Exchange 2 re-buckets the
    frequent bigrams by ``hash(w2)`` with the exchange-1 unigram rows
    and attaches the right count.  The vocabulary-sized exchange-1
    output is materialized once; the token stream shuffles never.  NULL
    text contributes nothing (the oracle's ``unnest`` of a NULL split);
    empty text contributes one '' token on both engines.  ``pmi``
    rounds to 6 decimals before the (pmi DESC, w1, w2) cut so the
    boundary is engine-deterministic."""
    from language_identification_ray.stages.dedup import _hash_words32

    def parts(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "bkt": pa.array([], pa.int64()),
                "kind": pa.array([], pa.int64()),
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        t = batch["text"]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        batch = batch.filter(pc.is_valid(t))  # NULL text: zero tokens in SQL
        if batch.num_rows == 0:
            return empty
        words = pc.split_pattern(batch["text"].combine_chunks(), " ")
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten().dictionary_encode()
        codes = flat.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nw = len(flat.dictionary)
        if nw == 0:
            return empty
        dict_words = flat.dictionary
        dict_hash = (_hash_words32(dict_words.to_pylist()) % np.uint32(n_buckets)).astype(
            np.int64
        )
        uc, ucnt = np.unique(codes, return_counts=True)
        out = [
            pa.table(
                {
                    "bkt": pa.array(dict_hash[uc], pa.int64()),
                    "kind": pa.array(np.zeros(len(uc), np.int64)),
                    "w1": dict_words.take(pa.array(uc)),
                    "w2": pa.array([""] * len(uc), pa.string()),
                    "cnt": pa.array(ucnt.astype(np.int64), pa.int64()),
                }
            )
        ]
        if len(codes) > 1:
            offs = np.cumsum(lens)
            valid = np.ones(len(codes) - 1, dtype=bool)
            ends = offs[:-1] - 1  # last token of every doc except the final
            valid[ends[ends < len(valid)]] = False
            a, b = codes[:-1][valid], codes[1:][valid]
            if len(a):
                kdt = np.int32 if nw * nw < 2**31 else np.int64
                packed = a.astype(kdt) * kdt(nw) + b.astype(kdt)
                up, pcnt = np.unique(packed, return_counts=True)
                w1c = (up // nw).astype(np.int64)
                out.append(
                    pa.table(
                        {
                            "bkt": pa.array(dict_hash[w1c], pa.int64()),
                            "kind": pa.array(np.ones(len(up), np.int64)),
                            "w1": dict_words.take(pa.array(w1c)),
                            "w2": dict_words.take(pa.array((up % nw).astype(np.int64))),
                            "cnt": pa.array(pcnt.astype(np.int64), pa.int64()),
                        }
                    )
                )
        return pa.concat_tables(out)

    def fold1(group: pa.Table) -> pa.Table:
        """Exact counts + left attach, one pandas call per bucket.  Emits
        kind 0 = (word, c1) rows, kind 1 = frequent bigrams with c1a in
        'cnt2', kind 2 = one (T_part, B_part) totals row."""
        df = group.to_pandas()
        uni = (
            df[df["kind"] == 0].groupby("w1", sort=False)["cnt"].sum().reset_index()
        )
        bg = (
            df[df["kind"] == 1]
            .groupby(["w1", "w2"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        t_part, b_part = int(uni["cnt"].sum()), int(bg["cnt"].sum())
        bg = bg[bg["cnt"] >= min_count]
        bg = bg.merge(uni.rename(columns={"cnt": "c1a"}), on="w1", how="inner")
        n_u, n_b = len(uni), len(bg)
        return pa.table(
            {
                "kind": pa.array([0] * n_u + [1] * n_b + [2], pa.int64()),
                "w1": pa.array(
                    list(uni["w1"]) + list(bg["w1"]) + [""], pa.string()
                ),
                "w2": pa.array([""] * n_u + list(bg["w2"]) + [""], pa.string()),
                "cnt": pa.array(
                    list(uni["cnt"]) + list(bg["cnt"]) + [t_part], pa.int64()
                ),
                "c1a": pa.array(
                    [0] * n_u + list(bg["c1a"]) + [b_part], pa.int64()
                ),
            }
        )

    ex1 = (
        _docs(sf_dir, ["text"])
        .map_batches(parts, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(fold1, batch_format="pyarrow")
        .materialize()  # vocabulary-sized: distinct unigrams + frequent bigrams
    )
    tot = ex1.map_batches(
        lambda b: b.filter(pc.equal(b["kind"], 2)), batch_format="pyarrow"
    ).to_pandas()  # bounded by n_buckets
    # empty corpus: the map produced zero rows and a column-less frame
    T = float(tot["cnt"].sum()) if "cnt" in tot.columns else 0.0
    B = float(tot["c1a"].sum()) if "c1a" in tot.columns else 0.0
    empty_out = pa.table(
        {
            "w1": pa.array([], pa.string()),
            "w2": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64()),
        }
    )
    if B == 0:
        return rd.from_arrow(empty_out)

    def rekey2(batch: pa.Table) -> pa.Table:
        """Bucket kind-0 rows by hash(word) and kind-1 rows by hash(w2)
        for the right-count attach; totals rows drop."""
        df_kind = batch["kind"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(df_kind != 2))
        kind = t["kind"].to_numpy(zero_copy_only=False)
        key = np.where(
            kind == 0,
            np.asarray(t["w1"].to_pylist(), dtype=object),
            np.asarray(t["w2"].to_pylist(), dtype=object),
        )
        bkt = (_hash_words32(list(key)) % np.uint32(n_buckets)).astype(np.int64)
        return pa.table(
            {
                "bkt": pa.array(bkt, pa.int64()),
                "kind": t["kind"],
                "w1": t["w1"],
                "w2": t["w2"],
                "cnt": t["cnt"],
                "c1a": t["c1a"],
            }
        )

    def fold2(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        uni = df[df["kind"] == 0][["w1", "cnt"]].rename(
            columns={"w1": "w2", "cnt": "c1b"}
        )
        bg = df[df["kind"] == 1].drop(columns=["bkt", "kind"])
        merged = bg.merge(uni, on="w2", how="inner")
        if merged.empty:
            return empty_out
        c2 = merged["cnt"].to_numpy(dtype=np.float64)
        c1a = merged["c1a"].to_numpy(dtype=np.float64)
        c1b = merged["c1b"].to_numpy(dtype=np.float64)
        # association order mirrors the oracle: ((c2*T)*T) / ((B*c1a)*c1b)
        pmi = np.round(np.log(c2 * T * T / (B * c1a * c1b)), 6)
        t = pa.table(
            {
                "w1": pa.array(merged["w1"], pa.string()),
                "w2": pa.array(merged["w2"], pa.string()),
                "cnt": pa.array(merged["cnt"].to_numpy(dtype=np.int64), pa.int64()),
                "pmi": pa.array(pmi, pa.float64()),
            }
        )
        # bucket-local partial top-k cut: order by (pmi desc, w1, w2)
        cut = t.to_pandas().sort_values(
            ["pmi", "w1", "w2"], ascending=[False, True, True]
        ).head(k)
        return pa.Table.from_pandas(cut, preserve_index=False)

    return (
        ex1.map_batches(rekey2, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(fold2, batch_format="pyarrow")
        .sort(["pmi", "w1", "w2"], descending=[True, False, False])
        .limit(k)
    )



def containment_dup_pairs(
    sf_dir: str, n: int = 5, tau: float = 0.5, n_buckets: int = 256
) -> "rd.Dataset":
    """One-sided containment near-dup pairs over word ``n``-gram shingle
    sets: ``containment(A,B) = |A∩B| / min(|A|,|B|)`` ≥ ``tau`` — the
    asymmetric signal that catches SUBSET duplicates (a doc quoted whole
    inside a longer one) which symmetric Jaccard dilutes below threshold
    (Broder 1997 distinguishes resemblance from containment for exactly
    this case).

    Scale shape: the :func:`boilerplate_ngram_stats` distinct-(doc, gram)
    front half feeds gram-hash bucket co-partitioned pair expansion (the
    :func:`substring_dup_pairs` condensed-triangular kernel).  Each gram
    row CARRIES its document's shingle-set size, so the pair fold emits
    (doc_a, doc_b, shared-partial, |A|, |B|) and the sizes ride the same
    exchange — no second corpus scan and no doc-keyed size join.  Flood
    guard — PART OF THE DECLARED CONTRACT, mirrored as ``HAVING
    count(*) <= 64`` in the oracle: a shingle in > ``max_gram_docs`` docs
    is boilerplate (that op owns the signal), logged when dropped.  The
    ``tau`` filter applies to the UNROUNDED ratio (the oracle's WHERE);
    only the reported column rounds to 6 decimals."""
    from language_identification_ray.stages.dedup import _hash_words32

    max_gram_docs = 64

    def gram_rows(batch: pa.Table) -> pa.Table:
        ndocs, udoc, ucode, gdict = _unique_doc_grams(batch, n)
        empty = pa.table(
            {
                "bucket": pa.array([], pa.int64()),
                "gram": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "c_doc": pa.array([], pa.int64()),
            }
        )
        if len(udoc) == 0:
            return empty
        counts = np.bincount(udoc, minlength=ndocs)
        ids = (
            pc.fill_null(batch["doc_id"], -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        grams = gdict.take(pa.array(ucode))
        bkt = (_hash_words32(grams.to_pylist()) % np.uint32(n_buckets)).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(bkt, pa.int64()),
                "gram": grams,
                "doc_id": pa.array(ids[udoc], pa.int64()),
                "c_doc": pa.array(counts[udoc].astype(np.int64), pa.int64()),
            }
        )

    def pair_fold(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "n_shared": pa.array([], pa.int64()),
                "c_a": pa.array([], pa.int64()),
                "c_b": pa.array([], pa.int64()),
            }
        )
        gd = group["gram"].combine_chunks().dictionary_encode()
        hinv = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        docs = group["doc_id"].to_numpy(zero_copy_only=False)
        cdoc = group["c_doc"].to_numpy(zero_copy_only=False)
        o = np.lexsort((docs, hinv))
        hi, di, ci = hinv[o], docs[o], cdoc[o]
        first = np.r_[True, hi[1:] != hi[:-1]]
        seg_start = np.flatnonzero(first)
        v = np.diff(np.r_[seg_start, len(hi)])
        flood = v > max_gram_docs
        if flood.any():
            import logging

            logging.getLogger(__name__).warning(
                "containment_dup_pairs: %d shingle(s) exceeded "
                "max_gram_docs=%d — dropped per the boilerplate contract "
                "(mirrored in the oracle SQL)",
                int(flood.sum()),
                max_gram_docs,
            )
            v = np.where(flood, 0, v)
        m = v * (v - 1) // 2
        if int(m.sum()) == 0:
            return empty
        q = _segment_aranges(np.zeros(len(m), dtype=np.int64), m)
        vv = np.repeat(v, m)
        ss = np.repeat(seg_start, m)
        i = (
            vv
            - 2
            - np.floor(
                np.sqrt(-8.0 * q + 4.0 * vv * (vv - 1) - 7.0) / 2.0 - 0.5
            ).astype(np.int64)
        )
        j = q + i + 1 - (vv * (vv - 1)) // 2 + ((vv - i) * (vv - i - 1)) // 2
        a, b = di[ss + i], di[ss + j]
        ca, cb = ci[ss + i], ci[ss + j]
        swap = a > b
        lo = np.where(swap, b, a)
        hiid = np.where(swap, a, b)
        clo = np.where(swap, cb, ca)
        chi = np.where(swap, ca, cb)
        pairs = np.ascontiguousarray(np.stack([lo, hiid], axis=1))
        upairs, uidx, cnt = np.unique(
            pairs.view("V16"), return_index=True, return_counts=True
        )
        up = upairs.view(np.int64).reshape(-1, 2)
        return pa.table(
            {
                "doc_a": pa.array(up[:, 0], pa.int64()),
                "doc_b": pa.array(up[:, 1], pa.int64()),
                "n_shared": pa.array(cnt.astype(np.int64), pa.int64()),
                "c_a": pa.array(clo[uidx], pa.int64()),
                "c_b": pa.array(chi[uidx], pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        ns = batch["n_shared"].to_numpy(zero_copy_only=False).astype(np.float64)
        ca = batch["c_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        cb = batch["c_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        ratio = ns / np.minimum(ca, cb)
        keep = ratio >= tau  # unrounded, like the oracle's WHERE
        t = batch.filter(pa.array(keep))
        return pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "n_shared": t["n_shared"],
                "c_a": t["c_a"],
                "c_b": t["c_b"],
                "containment": pa.array(np.round(ratio[keep], 6), pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(gram_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pair_fold, batch_format="pyarrow")
        .groupby(["doc_a", "doc_b"])
        .aggregate(
            Sum("n_shared", alias_name="n_shared"),
            Max("c_a", alias_name="c_a"),
            Max("c_b", alias_name="c_b"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def event_type_transitions(sf_dir: str, n_buckets: int = 64) -> "rd.Dataset":
    """Markov transition counts over each user's time-ordered event stream:
    how often event type A is immediately followed by type B — the
    LAG-pair primitive behind funnel discovery, bot-signature mining and
    next-action models (sessionize/funnel fix the pattern up front; this
    op COUNTS every observed adjacent pair instead).

    Ordering contract (shared with :func:`user_cumulative_spend`):
    ``(ts NULLS LAST, event_id)`` within user; NULL users form ONE
    partition, exactly like the SQL window's ``PARTITION BY user_id``.
    First events contribute no pair (the oracle drops ``row_number() = 1``
    rather than filtering ``prev IS NOT NULL``, so a genuinely-NULL
    event_type stays a real Markov state on both sides).

    Scale shape: one int-keyed exchange co-partitioned by
    ``user % n_buckets`` — ONE vectorized call per bucket (lexsorted
    segments, dictionary-encoded types, pair counting via one
    ``np.unique`` over packed int codes), emitting per-bucket
    (prev, next, n) partials; the final exchange carries
    O(buckets x |types|^2) tiny rows into a NULL-safe two-key groupby."""

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"]
        filled = pc.fill_null(uid, 0).cast(pa.int64())
        isnull = pc.is_null(uid).combine_chunks()
        u_np = filled.to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = pa.array(
            np.where(np.asarray(isnull), n_buckets, u_np % n_buckets), pa.int64()
        )
        return pa.table(
            {
                "bkt": bkt,
                "uid_key": filled,
                "uid_null": isnull,
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "event_type": batch["event_type"],
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        u = group["uid_key"].to_numpy(zero_copy_only=False)
        nl = np.asarray(group["uid_null"].to_pylist(), dtype=bool)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "prev_key": pa.array([], pa.string()),
                "prev_null": pa.array([], pa.bool_()),
                "next_key": pa.array([], pa.string()),
                "next_null": pa.array([], pa.bool_()),
                "n": pa.array([], pa.int64()),
            }
        )
        if len(u) < 2:
            return empty
        ts_i = ts.view("i8").copy()
        ts_i[np.isnat(ts)] = np.iinfo(np.int64).max  # NULLS LAST
        order = np.lexsort((eid, ts_i, u, nl))
        u, nl = u[order], nl[order]
        enc = pc.dictionary_encode(
            group["event_type"].combine_chunks().take(pa.array(order))
        )
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.float64)
        codes = np.where(np.isnan(codes), -1, codes).astype(np.int64)  # NULL type
        types = enc.dictionary.to_pylist()
        same = (u[1:] == u[:-1]) & (nl[1:] == nl[:-1])
        prev, nxt = codes[:-1][same], codes[1:][same]
        if len(prev) == 0:
            return empty
        k = len(types) + 1  # +1 for the NULL code -1
        packed = (prev + 1) * k + (nxt + 1)
        uniq, cnt = np.unique(packed, return_counts=True)
        pc_, nc_ = uniq // k - 1, uniq % k - 1
        pv = ["" if c < 0 else types[c] for c in pc_]
        nv = ["" if c < 0 else types[c] for c in nc_]
        return pa.table(
            {
                "prev_key": pa.array(pv, pa.string()),
                "prev_null": pa.array(pc_ < 0),
                "next_key": pa.array(nv, pa.string()),
                "next_null": pa.array(nc_ < 0),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def restore(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "prev_type": pc.if_else(
                    batch["prev_null"], pa.scalar(None, pa.string()), batch["prev_key"]
                ),
                "next_type": pc.if_else(
                    batch["next_null"], pa.scalar(None, pa.string()), batch["next_key"]
                ),
                "n": batch["n"],
            }
        )

    return (
        rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type"],
        )
        .map_batches(tag, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(fold, batch_format="pyarrow")
        .groupby(["prev_key", "prev_null", "next_key", "next_null"])
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(restore, batch_format="pyarrow")
    )


def value_zscore_outliers(sf_dir: str, z: float = 3.0) -> "rd.Dataset":
    """Events whose value is a per-type z-score outlier (|z| >= ``z`` against
    the POPULATION mean/std of their event_type) — the broadcast-statistics
    filter (anomaly triage, metric-spike review) that pairs a full-corpus
    aggregate with a second map-only pass.

    Exactness contract: values become integer cents first (the
    ``user_rolling_avg`` int-math convention), per-type (n, Σc, Σc²)
    partials are exact int64, and BOTH engines derive
    ``z = (c - S1/n) / sqrt(S2/n - (S1/n)²)`` with the identical double
    expression then round via ``floor(z·1e5 + 0.5)/1e5`` before the
    threshold, so IEEE math agrees bit-for-bit.  NULL values drop; an
    all-equal or singleton type (sd = 0) emits nothing (SQL NULLIF);
    NULL event_type forms its own group (the oracle joins with
    ``IS NOT DISTINCT FROM``).

    Scale shape: pass 1 pre-aggregates (type, n, Σ, Σ²) per batch so the
    exchange carries O(batches × types) rows into a tiny two-key groupby;
    the stats table (|types| rows) is driver-collected (bounded) and
    closure-broadcast into a map-only pass 2 — no join, no second
    shuffle."""

    src = f"{sf_dir}/events.parquet"

    def partials(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch["value"])
        t = batch.filter(ok)
        if t.num_rows == 0:
            return pa.table(
                {
                    "type_key": pa.array([], pa.string()),
                    "type_null": pa.array([], pa.bool_()),
                    "n": pa.array([], pa.int64()),
                    "s1": pa.array([], pa.int64()),
                    "s2": pa.array([], pa.int64()),
                }
            )
        key, isnull = _null_safe_key(t["event_type"])
        joined = pc.binary_join_element_wise(
            key.combine_chunks(), pc.cast(isnull, pa.string()), "\x00"
        )
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        enc = pc.dictionary_encode(joined)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.floor(vals * 100.0 + 0.5).astype(np.int64)
        k = len(enc.dictionary)
        n = np.bincount(codes, minlength=k).astype(np.int64)
        s1 = np.bincount(codes, weights=cents, minlength=k).astype(np.int64)
        s2 = np.bincount(codes, weights=cents * cents, minlength=k).astype(np.int64)
        pairs = [s.rsplit("\x00", 1) for s in enc.dictionary.to_pylist()]
        return pa.table(
            {
                "type_key": pa.array([p[0] for p in pairs], pa.string()),
                "type_null": pa.array([p[1] == "true" for p in pairs]),
                "n": pa.array(n, pa.int64()),
                "s1": pa.array(s1, pa.int64()),
                "s2": pa.array(s2, pa.int64()),
            }
        )

    stats = (
        rd.read_parquet(src, columns=["event_type", "value"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["type_key", "type_null"])
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s1", alias_name="s1"),
            Sum("s2", alias_name="s2"),
        )
        .to_pandas()  # bounded: one row per distinct event_type
    )
    by_type: dict = {}
    for _, r in stats.iterrows():
        key = None if r["type_null"] else r["type_key"]
        n, s1, s2 = float(r["n"]), float(r["s1"]), float(r["s2"])
        mean = s1 / n
        var = s2 / n - mean * mean
        if var > 0.0:
            by_type[key] = (mean, np.sqrt(var))

    def flag(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch["value"])
        t = batch.filter(ok)
        vals = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.floor(vals * 100.0 + 0.5)
        # vectorized stats gather: |dictionary| Python lookups, not |rows|
        enc = pc.dictionary_encode(t["event_type"].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.float64)
        codes = np.where(np.isnan(codes), len(enc.dictionary), codes).astype(np.int64)
        lut = [by_type.get(ty, (np.nan, np.nan)) for ty in enc.dictionary.to_pylist()]
        lut.append(by_type.get(None, (np.nan, np.nan)))  # NULL-type slot
        lut_np = np.asarray(lut, dtype=np.float64).reshape(-1, 2)
        mean, sd = lut_np[codes, 0], lut_np[codes, 1]
        with np.errstate(invalid="ignore"):
            zval = (cents - mean) / sd
            zr = np.floor(zval * 1e5 + 0.5) / 1e5
            keep = np.abs(zr) >= z
        keep &= ~np.isnan(zr)
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "value": t["value"],
                "z": pa.array(zr[keep], pa.float64()),
            }
        )

    return rd.read_parquet(
        src, columns=["event_id", "event_type", "value"]
    ).map_batches(flag, batch_format="pyarrow")


def user_trailing_spend(
    sf_dir: str, window_minutes: int = 60, n_buckets: int = 64
) -> "rd.Dataset":
    """Per-event trailing time-RANGE aggregate: for every event, the sum of
    value and the row count over the SAME USER's events in
    ``[ts - window, ts]`` — the RANGE-window primitive (velocity checks,
    spend-rate caps) that differs from :func:`user_rolling_avg`'s ROWS
    window in both frame semantics and peer handling: all rows sharing the
    current timestamp are in-frame regardless of tie order, so the result
    is tie-order invariant by construction.

    NULL ts rows are excluded up front (both engines filter them before the
    window; a RANGE frame over NULL ordering keys is undefined).  NULL
    users form ONE partition; NULL values stay in-frame but add nothing,
    and an all-NULL frame yields NULL spend (SQL ``sum``).  Values become
    integer cents before summation (order-independent int math).

    Scale shape: one exchange co-partitioned by ``user % n_buckets``.
    Inside a bucket the fold is segment-vectorized: timestamps are
    offset-compressed into a single monotonic int64 key space (each user's
    span plus one window of padding), so BOTH frame bounds come from two
    global ``np.searchsorted`` calls — no per-user Python loop.  When the
    compressed key space would overflow int64 (pathological: ~2^62 µs of
    summed spans), it falls back to an O(segments) slice loop, each slice
    still vectorized."""

    window_us = np.int64(window_minutes) * 60_000_000

    def tag(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch["ts"])
        t = batch.filter(ok)
        uid = t["user_id"]
        filled = pc.fill_null(uid, 0).cast(pa.int64())
        isnull = pc.is_null(uid).combine_chunks()
        u_np = filled.to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = pa.array(
            np.where(np.asarray(isnull), n_buckets, u_np % n_buckets), pa.int64()
        )
        return pa.table(
            {
                "bkt": bkt,
                "uid_key": filled,
                "uid_null": isnull,
                "event_id": t["event_id"],
                "ts": t["ts"],
                "value": t["value"],
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        u = group["uid_key"].to_numpy(zero_copy_only=False)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "w_spend": pa.array([], pa.float64()),
                    "w_events": pa.array([], pa.int64()),
                }
            )
        nl = np.asarray(group["uid_null"].to_pylist(), dtype=bool)
        ts = group["ts"].to_numpy(zero_copy_only=False).view("i8")
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u, nl))
        g = group.take(pa.array(order))
        u, nl, ts = u[order], nl[order], ts[order]
        vals = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        vnull = np.isnan(vals)
        cents = np.where(vnull, 0.0, np.floor(vals * 100.0 + 0.5)).astype(np.int64)
        first = np.r_[True, (u[1:] != u[:-1]) | (nl[1:] != nl[:-1])]
        seg = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        seg_min = ts[starts]  # per-segment first (min) timestamp
        ends = np.r_[starts[1:], n] - 1
        spans = ts[ends] - seg_min
        slot = spans + window_us + 2  # padding so windows never cross segments
        offs = np.cumsum(slot) - slot
        total = int(offs[-1]) + int(slot[-1])
        if total < (1 << 62):
            key = offs[seg] + (ts - seg_min[seg]) + window_us + 1
            lo = np.searchsorted(key, key - window_us, side="left")
            hi = np.searchsorted(key, key, side="right")
        else:  # overflow fallback: per-segment slices, still vectorized inside
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, e in zip(starts, np.r_[starts[1:], n]):
                t_seg = ts[s:e]
                lo[s:e] = s + np.searchsorted(t_seg, t_seg - window_us, side="left")
                hi[s:e] = s + np.searchsorted(t_seg, t_seg, side="right")
        csum = np.r_[0, np.cumsum(cents)]
        ccnt = np.r_[0, np.cumsum((~vnull).astype(np.int64))]
        w_cents = csum[hi] - csum[lo]
        w_nval = ccnt[hi] - ccnt[lo]
        spend = pa.array(
            np.where(w_nval > 0, w_cents / 100.0, np.nan),
            pa.float64(),
            mask=(w_nval == 0),
        )
        return pa.table(
            {
                "event_id": g["event_id"],
                "user_id": pc.if_else(
                    g["uid_null"], pa.scalar(None, pa.int64()), g["uid_key"]
                ),
                "ts": g["ts"],
                "w_spend": spend,
                "w_events": pa.array((hi - lo).astype(np.int64), pa.int64()),
            }
        )

    return (
        rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        )
        .map_batches(tag, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(fold, batch_format="pyarrow")
    )


def lang_centroids(sf_dir: str, n_buckets: int = 64) -> "rd.Dataset":
    """Per-LANGUAGE mean embedding over the documents⋈embeddings FK join
    (``doc_id = vec_id``), exploded to (lang, dim, centroid) rows — the
    metadata-conditioned embedding analytic (per-language semantic drift,
    cluster balance) that :func:`label_centroids` computes for the
    embedding table's own label.

    Join semantics are the SQL inner join's: NULL ids match nothing,
    docs without a vector and vectors without a doc contribute nothing,
    NULL lang keeps its own centroid group.  ``doc_id`` is assumed UNIQUE
    (it is the documents PK): the sorted-gather attach takes the first
    match, where SQL would fan a duplicated key out — the same PK contract
    every FK-attach kernel in this file relies on.

    Scale shape: a two-sided union-tag bucket join on ``id % n_buckets``
    (the pmi/Q10 attach pattern — no ``Dataset.join`` operator): the doc
    side ships only (id, lang), the embedding side ships each vector
    exactly once; inside a bucket the lang attach is one sorted
    ``np.searchsorted`` gather, and per-(lang, dim) (sum, count) partials
    leave the fold, so the second exchange carries O(langs × dim) tiny
    rows, never vectors.  When the embedding side is small (parquet
    metadata row count ≤ ``_CENTROID_FILTER_GATE``) its distinct vec_ids
    are additionally broadcast once (``ray.put``) as a map-side semi-join
    RUNTIME FILTER on the document scan — inner-join semantics mean a doc
    row whose id has no vector can never reach the fold, so only matching
    (id, lang) rows enter the exchange; at 100 TB this turns the wide
    side's contribution from O(all documents) to O(|embeddings|).  Above
    the gate the plan falls back to the unfiltered union-tag join
    unchanged.  Centroids rounded to 5 decimals so float summation order
    is engine-independent."""
    import pyarrow.parquet as pq

    import ray

    from language_identification_ray.stages.knn import _as_matrix

    vec_t = pa.list_(pa.float32())

    vec_ids_ref = None
    try:
        n_vecs = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    except Exception:
        n_vecs = None
    if n_vecs is not None and n_vecs <= _CENTROID_FILTER_GATE:
        id_tbl = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        ids0 = id_tbl["vec_id"].drop_null().cast(pa.int64())
        vec_ids_ref = ray.put(
            np.unique(ids0.to_numpy(zero_copy_only=False))
        )

    def tag_docs(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch["doc_id"])
        t = batch.filter(ok)
        ids = t["doc_id"].cast(pa.int64())
        if vec_ids_ref is not None and t.num_rows:
            vec_sorted = ray.get(vec_ids_ref)
            ids_np = ids.to_numpy(zero_copy_only=False)
            pos = np.searchsorted(vec_sorted, ids_np)
            np.clip(pos, 0, max(len(vec_sorted) - 1, 0), out=pos)
            hit = (
                vec_sorted[pos] == ids_np
                if len(vec_sorted)
                else np.zeros(len(ids_np), dtype=bool)
            )
            t = t.filter(pa.array(hit))
            ids = t["doc_id"].cast(pa.int64())
        key, isnull = _null_safe_key(t["lang"])
        bkt = pa.array(
            ids.to_numpy(zero_copy_only=False) % n_buckets, pa.int64()
        )
        return pa.table(
            {
                "bkt": bkt,
                "id": ids,
                "lang_key": key,
                "lang_null": isnull,
                "embedding": pa.nulls(t.num_rows, vec_t),
                "is_doc": pa.array(np.ones(t.num_rows, dtype=bool)),
            }
        )

    def tag_embs(batch: pa.Table) -> pa.Table:
        # NULL embeddings yield no unnest rows in the oracle — and the doc
        # side uses NULL embedding as its union placeholder, so a real NULL
        # vector would corrupt the fold's matrix build
        ok = pc.and_(pc.is_valid(batch["vec_id"]), pc.is_valid(batch["embedding"]))
        t = batch.filter(ok)
        ids = t["vec_id"].cast(pa.int64())
        bkt = pa.array(
            ids.to_numpy(zero_copy_only=False) % n_buckets, pa.int64()
        )
        n = t.num_rows
        return pa.table(
            {
                "bkt": bkt,
                "id": ids,
                "lang_key": pa.array([""] * n, pa.string()),
                "lang_null": pa.array(np.zeros(n, dtype=bool)),
                "embedding": t["embedding"].cast(vec_t),
                "is_doc": pa.array(np.zeros(n, dtype=bool)),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang_key": pa.array([], pa.string()),
                "lang_null": pa.array([], pa.bool_()),
                "dim": pa.array([], pa.int64()),
                "psum": pa.array([], pa.float64()),
                "pcount": pa.array([], pa.int64()),
            }
        )
        isd = np.asarray(group["is_doc"].to_pylist(), dtype=bool)
        if isd.all() or not isd.any():
            return empty
        ids = group["id"].to_numpy(zero_copy_only=False)
        docs = group.filter(pa.array(isd))
        d_ids = ids[isd]
        d_order = np.argsort(d_ids, kind="stable")
        d_sorted = d_ids[d_order]
        embs = group.filter(pa.array(~isd))
        e_ids = ids[~isd]
        pos = np.searchsorted(d_sorted, e_ids)
        np.clip(pos, 0, len(d_sorted) - 1, out=pos)
        hit = d_sorted[pos] == e_ids  # inner join: unmatched vectors drop
        if not hit.any():
            return empty
        mat = _as_matrix(embs.filter(pa.array(hit))["embedding"])
        src = d_order[pos[hit]]  # doc row index per matched vector
        lk = docs["lang_key"].to_numpy(zero_copy_only=False)[src]
        ln = np.asarray(docs["lang_null"].to_pylist(), dtype=bool)[src]
        # group matched vectors by (lang_key, lang_null) via dict codes
        enc = pc.dictionary_encode(
            pc.binary_join_element_wise(
                pa.array(lk, pa.string()),
                pa.array(np.where(ln, "1", "0")),
                "\x00",
            )
        )
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k, dim = len(enc.dictionary), mat.shape[1]
        sums = np.zeros((k, dim), dtype=np.float64)
        np.add.at(sums, codes, mat)
        counts = np.bincount(codes, minlength=k).astype(np.int64)
        pairs = [s.rsplit("\x00", 1) for s in enc.dictionary.to_pylist()]
        return pa.table(
            {
                "lang_key": pa.array(
                    np.repeat([p[0] for p in pairs], dim), pa.string()
                ),
                "lang_null": pa.array(
                    np.repeat([p[1] == "1" for p in pairs], dim), pa.bool_()
                ),
                "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64), k)),
                "psum": pa.array(sums.ravel(), pa.float64()),
                "pcount": pa.array(np.repeat(counts, dim), pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        c = batch["sum(psum)"].to_numpy(zero_copy_only=False)
        n = batch["sum(pcount)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lang": pc.if_else(
                    batch["lang_null"], pa.scalar(None, pa.string()), batch["lang_key"]
                ),
                "dim": batch["dim"],
                "centroid": pa.array(np.round(c / n, 5), pa.float64()),
            }
        )

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ).map_batches(tag_docs, batch_format="pyarrow")
    embs = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(tag_embs, batch_format="pyarrow")
    return (
        docs.union(embs)
        .groupby("bkt")
        .map_groups(fold, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "dim"])
        .aggregate(Sum("psum"), Sum("pcount"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def _gini_from_length_histogram(lens: "np.ndarray", cnts: "np.ndarray"):
    """Exact Gini of a multiset given its (value, count) histogram, via the
    sorted-rank closed form with midpoint tie ranks.  Products run in object
    dtype (arbitrary-precision Python ints): s1 ~ n^2 * len / 2 wraps int64
    at corpus scale while SQL's HUGEINT does not, and the histogram is
    compact (<= distinct lengths per source), so exactness is free.
    Returns (n, gini-or-None)."""
    o = np.argsort(lens, kind="stable")
    lens, cnts = lens[o], cnts[o]
    n = int(cnts.sum())
    lens_o = lens.astype(object)
    cnts_o = cnts.astype(object)
    sx = int((lens_o * cnts_o).sum())
    m = (np.cumsum(cnts) - cnts).astype(object)  # items strictly before each run
    s1 = int((lens_o * (cnts_o * m + cnts_o * (cnts_o + 1) // 2)).sum())
    num = 2 * s1 - (n + 1) * sx  # exact Python int, like SQL's HUGEINT
    den = n * sx
    return n, (float(num) / float(den) if den > 0 else None)


def source_length_gini(sf_dir: str, n_buckets: int = 64) -> "rd.Dataset":
    """Per-source Gini coefficient of document lengths — the corpus-balance
    inequality audit (is one crawl's length mass concentrated in a few huge
    pages?) alongside :func:`lang_percentiles` / :func:`documents_profile`.

    Uses the sorted-rank identity ``G = (2·Σᵢ i·xᵢ)/(n·Σx) − (n+1)/n``
    computed EXACTLY from a per-(source, length) count histogram: a run of
    ``c`` equal values ``v`` starting after ``m`` items contributes
    ``v·(c·m + c(c+1)/2)`` to the rank-weighted sum — closed-form over
    ties, so no per-document sort exists anywhere.  All three reduction
    terms are exact arbitrary-precision ints (object dtype — s1 ~ n²·len/2
    wraps int64 at corpus scale while SQL's HUGEINT does not); both engines
    perform the single double division last, so results are IEEE-bit
    identical with no rounding step.  NULL
    lengths drop (SQL ``WHERE n_chars IS NOT NULL``); an all-zero-length
    source yields NULL (SQL NULLIF denominator); NULL source is its own
    group.

    Scale shape: one scan emits per-batch (source, length, count)
    partials bucketed by ``hash(length) % n_buckets`` — the exchange
    carries O(batches × distinct lengths), never documents; a second tiny
    exchange folds per-bucket partial histograms into per-source
    (sorted-run) terms.  Simpler and correct here: distinct lengths are
    bounded (≤ max doc size), so the histogram itself is grouped by
    (source, length) and the per-source closed form runs over one compact
    sorted array per source inside a final fold."""

    def partials(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch["n_chars"])
        t = batch.filter(ok)
        key, isnull = _null_safe_key(t["source"])
        joined = pc.binary_join_element_wise(
            key.combine_chunks(), pc.cast(isnull, pa.string()), "\x00"
        )
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        enc = pc.dictionary_encode(joined)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = t["n_chars"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # distinct (source, length) pairs with counts, via one lexsort
        o = np.lexsort((lens, codes))
        cs, ls = codes[o], lens[o]
        first = (
            np.r_[True, (cs[1:] != cs[:-1]) | (ls[1:] != ls[:-1])]
            if len(cs)
            else np.zeros(0, dtype=bool)
        )
        starts = np.flatnonzero(first)
        cnt = np.diff(np.r_[starts, len(cs)]).astype(np.int64)
        pairs = [s.rsplit("\x00", 1) for s in enc.dictionary.to_pylist()]
        src_key = np.asarray([p[0] for p in pairs], dtype=object)
        src_null = np.asarray([p[1] == "true" for p in pairs], dtype=bool)
        sel = cs[starts]
        return pa.table(
            {
                "src_key": pa.array(src_key[sel], pa.string()),
                "src_null": pa.array(src_null[sel], pa.bool_()),
                "length": pa.array(ls[starts], pa.int64()),
                "cnt": pa.array(cnt, pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        # one group per (source); rows are (length, summed count)
        lens = group["length"].to_numpy(zero_copy_only=False)
        cnts = group["sum(cnt)"].to_numpy(zero_copy_only=False)
        n, gini = _gini_from_length_histogram(lens, cnts)
        src = None if group["src_null"][0].as_py() else group["src_key"][0].as_py()
        return pa.table(
            {
                "source": pa.array([src], pa.string()),
                "n_docs": pa.array([n], pa.int64()),
                "gini": pa.array([gini], pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["source", "n_chars"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["src_key", "src_null", "length"])
        .aggregate(Sum("cnt"))
        .groupby(["src_key", "src_null"])
        .map_groups(fold, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# keep-newest-snapshot per key (crawl-recency primitive) + mixture planning


def events_latest_per_user(sf_dir: str) -> "rd.Dataset":
    """Keep-newest-snapshot per key: each user's single most recent event
    row — the crawl-recency dedup primitive (at 100 TB: the latest WARC
    capture per URL across re-crawls; SQL ``row_number() = 1`` over
    ``PARTITION BY user ORDER BY ts DESC NULLS LAST, event_id DESC NULLS
    LAST``).

    Scale shape: every batch first reduces to ONE candidate row per user
    (one vectorized lexsort + take-last-of-run, no Python per row), so the
    single user-keyed exchange carries ≤ users-per-batch rows, never the
    event stream; the per-user finalize reuses the identical ordering.
    The ascending ordering key is ``(ts IS NOT NULL, ts, event_id IS NOT
    NULL, event_id)`` with "take the LAST row", which equals the SQL
    DESC / NULLS LAST / rn=1 rule exactly (NULL user_id is its own
    partition via the two-key pattern)."""
    cols = ["event_id", "ts", "user_id", "event_type", "value"]

    def _latest_rows(t: pa.Table) -> pa.Table:
        """One winner row per (uid_key, uid_null) under the SQL ordering."""
        if t.num_rows == 0:
            return t
        uid = pc.fill_null(t["uid_key"], 0).to_numpy(zero_copy_only=False)
        unull = t["uid_null"].to_numpy(zero_copy_only=False)
        ts = t["ts"].cast(pa.int64())
        ts_ok = pc.is_valid(ts).to_numpy(zero_copy_only=False)
        tsf = pc.fill_null(ts, 0).to_numpy(zero_copy_only=False)
        eid = t["event_id"].cast(pa.int64())
        eid_ok = pc.is_valid(eid).to_numpy(zero_copy_only=False)
        eidf = pc.fill_null(eid, 0).to_numpy(zero_copy_only=False)
        order = np.lexsort((eidf, eid_ok, tsf, ts_ok, unull, uid))
        u_sorted = uid[order]
        n_sorted = unull[order]
        last = np.r_[
            (u_sorted[1:] != u_sorted[:-1]) | (n_sorted[1:] != n_sorted[:-1]),
            True,
        ]
        return t.take(pa.array(order[np.flatnonzero(last)]))

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(
            "uid_key", pc.fill_null(batch["user_id"].cast(pa.int64()), 0)
        ).append_column("uid_null", pc.is_null(batch["user_id"]))
        return _latest_rows(batch)

    def finalize(group: pa.Table) -> pa.Table:
        win = _latest_rows(group)
        out = win.select(cols)
        return out.set_column(
            out.schema.names.index("user_id"),
            "user_id",
            pc.if_else(
                win["uid_null"], pa.nulls(win.num_rows, pa.int64()), win["uid_key"]
            ),
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=cols)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["uid_key", "uid_null"])
        .map_groups(finalize, batch_format="pyarrow")
    )


def mixture_plan(sf_dir: str) -> "rd.Dataset":
    """Static training-mixture plan under a uniform per-source token cap —
    the step between corpus stats and :func:`mixture_sample`'s fixed rates:
    every source reports its doc/token mass and the sampling ``rate`` that
    caps it at an equal 1/S share of the corpus' total tokens
    (``rate = min(1, (total/S) / tokens_s)``, the temperature→0 limit of
    the sampling-temperature family; oversized crawls downsample, small
    ones keep everything).  ``rate`` is rounded to 6 decimals on both
    engines; NULL-source docs are excluded (SQL WHERE).

    Scale shape: one column-pruned scan folding per-batch (source, n_docs,
    n_tokens) partials — token counts via the pure-Arrow split +
    list_value_length kernel, no Python per row — into a catalog-sized
    groupby; the plan math is a map over ≤ S aggregate rows.  No
    materialization beyond the catalog."""

    def partial(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch["source"])
        t = batch.filter(ok)
        toks = pc.list_value_length(
            pc.split_pattern(pc.fill_null(t["text"], ""), " ")
        ).cast(pa.int64())
        enc = t["source"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        tok_np = toks.to_numpy(zero_copy_only=False)
        k = len(enc.dictionary)
        return pa.table(
            {
                "source": enc.dictionary,
                "n_docs": pa.array(np.bincount(codes, minlength=k), pa.int64()),
                "n_tokens": pa.array(
                    np.bincount(codes, weights=tok_np, minlength=k).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    agg = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
    )

    def plan(batch: pa.Table) -> pa.Table:
        # catalog-sized input: the plan needs the GLOBAL total, so this one
        # tiny table (≤ S rows) is folded in a single map over one block
        nt = batch["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        total, s = nt.sum(), len(nt)
        share = total / s if s else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(nt > 0, np.minimum(1.0, share / nt), 1.0)
        return pa.table(
            {
                "source": batch["source"],
                "n_docs": batch["n_docs"],
                "n_tokens": batch["n_tokens"],
                "rate": pa.array(np.round(rate, 6), pa.float64()),
            }
        )

    # repartition(1): the plan is a global computation over the catalog —
    # S rows, one block, driver never materializes anything
    return agg.repartition(1).map_batches(plan, batch_format="pyarrow")


def doc_chunks(sf_dir: str, size: int = 32, stride: int = 24) -> "rd.Dataset":
    """Overlapping fixed-window chunking map: split every document's
    whitespace token stream into ``size``-token windows advancing by
    ``stride`` (stride < size ⇒ overlap) — the chunking primitive of both
    RAG ingestion and long-document pretraining (cf. :func:`sequence_pack_offsets`,
    which packs ACROSS documents; this one never crosses a doc boundary,
    reference parity: per-file token streams in merge_wordlists.ipynb).
    Emits (doc_id, chunk_idx, start_tok, end_tok, n_tokens) with chunk i
    covering ``[i*stride, min(i*stride+size, n))`` for every i with
    ``i*stride < n`` — each doc yields ``ceil(n/stride)`` chunks, NULL text
    counts as the single empty token the split kernel produces.

    Scale shape: map-only fan-out — token counts come from the pure-Arrow
    split + list_value_length kernel and the per-chunk rows are built with
    one numpy repeat/arange pair per batch (no Python per row, no shuffle);
    output rows ≈ rows × mean_tokens/stride, streamed block-by-block."""

    def f(batch: pa.Table) -> pa.Table:
        n = (
            pc.list_value_length(pc.split_pattern(_text_col(batch), " "))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        n_chunks = np.maximum(1, -(-n // stride))  # ceil(n/stride), n >= 1
        ids = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), n_chunks)
        idx = _segment_aranges(np.zeros(len(n_chunks), np.int64), n_chunks)
        starts = idx * stride
        ends = np.minimum(starts + size, np.repeat(n, n_chunks))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(idx, pa.int64()),
                "start_tok": pa.array(starts, pa.int64()),
                "end_tok": pa.array(ends, pa.int64()),
                "n_tokens": pa.array(ends - starts, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def zipf_alpha(sf_dir: str, top_n: int = 1000) -> "rd.Dataset":
    """Zipf exponent of the corpus word-frequency distribution: OLS slope of
    ``ln(cnt)`` on ``ln(rank)`` over the ``top_n`` most frequent words
    (rank 1 = most frequent, ties broken by word ASC so both engines rank
    identically); ``alpha = -slope`` ≈ 1 for natural language — the
    canonical corpus-health / gibberish-detection audit (a scraped corpus
    whose alpha drifts far from 1 is template- or spam-heavy).  One output
    row: (n_ranks, alpha, c_top) rounded to 6 decimals, matching DuckDB's
    ``regr_slope`` (covar_pop/var_pop) bit-for-bit at that precision.

    Scale shape: the word_freq partial-count combiner (one row per distinct
    word per batch through the shuffle), a vocabulary-keyed groupby, a
    distributed top-``top_n`` sort+limit, then the regression folds over one
    ≤ top_n-row block — nothing larger than the head of the frequency table
    ever leaves the aggregate."""

    def partial(batch: pa.Table) -> pa.Table:
        # one Arrow value_counts over the flattened split — no per-row Python
        vc = pc.value_counts(_one_chunk(_word_lists(batch).flatten()))
        return pa.table(
            {"word": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    head = (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "word"], descending=[True, False])
        .limit(top_n)
    )

    def fit(batch: pa.Table) -> pa.Table:
        # one ≤ top_n-row block: the ranked head of the frequency table.
        # Re-rank locally (cnt desc, word asc) so the regression never
        # depends on repartition() preserving the sort order.
        cnt = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        words = np.asarray(batch["word"].to_pylist(), dtype=object)
        order = np.lexsort((words, -cnt))
        cnt = cnt[order]
        if len(cnt) < 2:
            return pa.table(
                {
                    "n_ranks": pa.array([len(cnt)], pa.int64()),
                    "alpha": pa.array([float("nan")], pa.float64()),
                    "c_top": pa.array([int(cnt[0]) if len(cnt) else 0], pa.int64()),
                }
            )
        x = np.log(np.arange(1, len(cnt) + 1, dtype=np.float64))
        y = np.log(cnt)
        mx, my = x.mean(), y.mean()
        slope = ((x * y).mean() - mx * my) / ((x * x).mean() - mx * mx)
        return pa.table(
            {
                "n_ranks": pa.array([len(cnt)], pa.int64()),
                "alpha": pa.array([round(-slope, 6)], pa.float64()),
                "c_top": pa.array([int(cnt[0])], pa.int64()),
            }
        )

    # the limit() head is small; repartition(1) folds it into one block so
    # the regression sees the full ranking in order
    return head.repartition(1).map_batches(fit, batch_format="pyarrow")


def bitext_mine_pairs(
    sf_dir: str,
    lang_a: str = "en",
    lang_b: str = "de",
    tau: float = 0.4,
    n_buckets: int = 16,
    attach_buckets: int = 64,
) -> "rd.Dataset":
    """Bitext mining / embedding kNN-JOIN: for EVERY ``lang_a`` document,
    its single best-cosine ``lang_b`` document (kept when cos ≥ ``tau``) —
    the margin-based parallel-corpus mining primitive (Artetxe & Schwenk
    2019's top-1 core) and the per-row retrieval join the knn_* family's
    broadcast-query shape can't express (there the query set is tiny; here
    the query side IS the corpus).  Similarities are computed in float64
    and rounded to 5 decimals BEFORE the argmax/threshold (ties broken by
    smallest doc_b), so the result is engine-independent — the SQL oracle
    casts the float32 lists to DOUBLE[] for the same reason as
    ``embedding_dup_pairs``.

    Scale shape: two bounded exchanges.  (1) language attach: the
    documents⋈embeddings union-tag bucket join of :func:`lang_centroids`
    (docs ship (id, lang), each vector ships once), filtered to the two
    mined languages before anything re-shuffles.  (2) the join itself: the
    A side streams, bucketed ``id % n_buckets``; the B side is REPLICATED
    to every bucket (the blocked brute-force kNN-join with a broadcast
    build side — B is the smaller, usually low-resource, side; replication
    cost is |B| × n_buckets vectors through one exchange, and per-reducer
    memory is |A|/n_buckets + |B| rows).  Each reducer does ONE
    (|A|/n_buckets × |B|) matmul — vectorized, exact, no candidate loss;
    when B outgrows a reducer, shard B and add a per-A argmax re-reduce
    (the candidates stay exact)."""
    from language_identification_ray.stages.knn import _as_matrix

    vec_t = pa.list_(pa.float32())

    def tag_docs(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["doc_id"]),
            pc.is_in(batch["lang"], value_set=pa.array([lang_a, lang_b])),
        )
        t = batch.filter(keep)
        ids = t["doc_id"].cast(pa.int64())
        return pa.table(
            {
                "bkt": pa.array(
                    ids.to_numpy(zero_copy_only=False) % attach_buckets, pa.int64()
                ),
                "id": ids,
                "is_a": pc.equal(t["lang"], lang_a),
                "embedding": pa.nulls(t.num_rows, vec_t),
                "is_doc": pa.array(np.ones(t.num_rows, dtype=bool)),
            }
        )

    def tag_embs(batch: pa.Table) -> pa.Table:
        # NULL embeddings never mine (the oracle's `embedding IS NOT NULL`);
        # they'd also arrive as ragged rows in the reducer matmul
        t = batch.filter(
            pc.and_(pc.is_valid(batch["vec_id"]), pc.is_valid(batch["embedding"]))
        )
        ids = t["vec_id"].cast(pa.int64())
        n = t.num_rows
        return pa.table(
            {
                "bkt": pa.array(
                    ids.to_numpy(zero_copy_only=False) % attach_buckets, pa.int64()
                ),
                "id": ids,
                "is_a": pa.array(np.zeros(n, dtype=bool)),
                "embedding": t["embedding"].cast(vec_t),
                "is_doc": pa.array(np.zeros(n, dtype=bool)),
            }
        )

    def attach(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "bkt": pa.array([], pa.int64()),
                "id": pa.array([], pa.int64()),
                "is_a": pa.array([], pa.bool_()),
                "embedding": pa.array([], vec_t),
            }
        )
        isd = np.asarray(group["is_doc"].to_pylist(), dtype=bool)
        if isd.all() or not isd.any():
            return empty
        ids = group["id"].to_numpy(zero_copy_only=False)
        d_ids = ids[isd]
        d_order = np.argsort(d_ids, kind="stable")
        d_sorted = d_ids[d_order]
        e_ids = ids[~isd]
        pos = np.searchsorted(d_sorted, e_ids)
        np.clip(pos, 0, len(d_sorted) - 1, out=pos)
        hit = d_sorted[pos] == e_ids  # inner join: vectors of other langs drop
        if not hit.any():
            return empty
        docs = group.filter(pa.array(isd))
        embs = group.filter(pa.array(~isd)).filter(pa.array(hit))
        is_a = np.asarray(docs["is_a"].to_pylist(), dtype=bool)[d_order[pos[hit]]]
        mids = e_ids[hit]
        # A rows keep their join bucket; B rows fan out to EVERY bucket
        n_a, n_b = int(is_a.sum()), int((~is_a).sum())
        out_bkt = np.concatenate(
            [mids[is_a] % n_buckets, np.repeat(np.arange(n_buckets, dtype=np.int64), n_b)]
        )
        out_ids = np.concatenate([mids[is_a], np.tile(mids[~is_a], n_buckets)])
        emb_a = embs.filter(pa.array(is_a))["embedding"].combine_chunks()
        emb_b = embs.filter(pa.array(~is_a))["embedding"].combine_chunks()
        out_emb = pa.concat_arrays(
            [emb_a.cast(vec_t)] + [emb_b.cast(vec_t)] * n_buckets
        )
        return pa.table(
            {
                "bkt": pa.array(out_bkt, pa.int64()),
                "id": pa.array(out_ids, pa.int64()),
                "is_a": pa.array(
                    np.concatenate([np.ones(n_a, bool), np.zeros(n_b * n_buckets, bool)])
                ),
                "embedding": out_emb,
            }
        )

    def mine(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "cos_sim": pa.array([], pa.float64()),
            }
        )
        isa = np.asarray(group["is_a"].to_pylist(), dtype=bool)
        if isa.all() or not isa.any():
            return empty
        ids = group["id"].to_numpy(zero_copy_only=False)
        A = _as_matrix(group.filter(pa.array(isa))["embedding"]).astype(np.float64)
        B = _as_matrix(group.filter(pa.array(~isa))["embedding"]).astype(np.float64)
        a_ids, b_ids = ids[isa], ids[~isa]
        # sort B by id so argmax's first-max = smallest doc_b (the oracle's
        # ORDER BY cs DESC, doc_b ASC tie-break)
        b_order = np.argsort(b_ids, kind="stable")
        B, b_ids = B[b_order], b_ids[b_order]
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        cs = np.round((A / na[:, None]) @ (B / nb[:, None]).T, 5)
        best = cs.argmax(axis=1)
        bestv = cs[np.arange(len(a_ids)), best]
        keep = bestv >= tau
        return pa.table(
            {
                "doc_a": pa.array(a_ids[keep], pa.int64()),
                "doc_b": pa.array(b_ids[best[keep]], pa.int64()),
                "cos_sim": pa.array(bestv[keep], pa.float64()),
            }
        )

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ).map_batches(tag_docs, batch_format="pyarrow")
    embs = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(tag_embs, batch_format="pyarrow")
    return (
        docs.union(embs)
        .groupby("bkt")
        .map_groups(attach, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(mine, batch_format="pyarrow")
    )


def word_burstiness(sf_dir: str, min_df: int = 5, k: int = 100) -> "rd.Dataset":
    """Church–Gale burstiness per word: total occurrences / documents
    containing it (``cnt/df``), top-``k`` among words with ``df ≥ min_df``
    — a word that is rare across documents but dense inside them (high
    burstiness) is a template/boilerplate/spam marker that plain frequency
    ranking hides; the companion signal to :func:`doc_frequency` and
    :func:`boilerplate_ngram_stats` in a curation stack.

    Scale shape: ONE fused text pass emits per-batch (word, cnt, df)
    partials — docs are unique per batch, so per-batch distinct-doc counts
    sum to the global df exactly (the :func:`doc_frequency` contract) and
    total counts sum trivially; one vocabulary-keyed groupby, then the
    ratio + top-k cut (burstiness rounded to 6 decimals BEFORE the sort,
    ties broken by word ASC — engine-independent).  The shuffle moves two
    ints per distinct word per batch, never tokens."""

    def partial(batch: pa.Table) -> pa.Table:
        # fused vectorized pass: cnt from one value_counts over the
        # flattened split; df from distinct (word-code, doc-index) pairs
        # (docs are unique per batch, so per-batch distinct-doc counts sum
        # to the global df exactly) — no per-row Python
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        if len(flat) == 0:
            e = pa.array([], pa.int64())
            return pa.table({"word": pa.array([], pa.string()), "cnt": e, "df": e})
        wd = flat.dictionary_encode()
        codes = wd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nw = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(nw), dtype=np.int64), nw)
        cnt = np.bincount(codes, minlength=len(wd.dictionary)).astype(np.int64)
        uc, _ud = _unique_pairs(codes, doc_idx)
        df = np.bincount(uc, minlength=len(wd.dictionary)).astype(np.int64)
        return pa.table(
            {
                "word": wd.dictionary,
                "cnt": pa.array(cnt, pa.int64()),
                "df": pa.array(df, pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.greater_equal(batch["df"], min_df))
        c = keep["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = keep["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "word": keep["word"],
                "cnt": keep["cnt"],
                "df": keep["df"],
                "burstiness": pa.array(np.round(c / d, 6), pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="cnt"), Sum("df", alias_name="df"))
        .map_batches(finalize, batch_format="pyarrow")
        .sort(["burstiness", "word"], descending=[True, False])
        .limit(k)
    )


def dup_size_histogram(sf_dir: str, threshold: float = 0.4) -> "rd.Dataset":
    """Near-dup cluster-size distribution: how many clusters have exactly
    N members, over :func:`dup_clusters`' connected components (singletons
    included at N=1) — the dedup audit every curation run publishes (a
    heavy tail of giant clusters means template/mirror infestation; the
    keep-rate after :func:`fuzzy_dedup_keep` is ``n_clusters/n_docs`` and
    this table is its full shape).

    Scale shape: :func:`dup_clusters`' assignment (size-gated plan —
    map-only when the edge graph is small) → ONE cluster-keyed count
    groupby → ONE size-keyed count groupby; both exchanges carry a single
    int per cluster/size, and the result is bounded by the largest
    cluster size."""
    sizes = (
        dup_clusters(sf_dir, threshold=threshold)
        .groupby("cluster_id")
        .count()
        .map_batches(
            lambda t: pa.table({"cluster_size": t["count()"].cast(pa.int64())}),
            batch_format="pyarrow",
        )
        .groupby("cluster_size")
        .count()
        .map_batches(
            lambda t: pa.table(
                {
                    "cluster_size": t["cluster_size"],
                    "n_clusters": t["count()"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return sizes


def events_hourly_distinct_users(sf_dir: str) -> "rd.Dataset":
    """Tumbling 1-hour window with a grouped DISTINCT: unique active users
    AND raw event count per window — the dashboard/DAU primitive that
    composes the :func:`events_hourly` window floor with the
    :func:`distinct_words_per_lang` exact-distinct shape.  SQL semantics
    throughout: NULL ``ts`` keeps its own window group (two-key NULL
    pattern), NULL users count in ``n_events`` but never in ``n_users``
    (COUNT(DISTINCT) ignores NULLs).

    Scale shape: two shuffle-REDUCED exchanges.  Each batch emits its
    distinct (window, user) pairs plus ONE per-window count partial; the
    first groupby collapses pairs globally (the distinct), a map partial
    then folds each block to per-window (users, events) counts, and the
    second groupby over ~window-cardinality keys finishes.  Raw events
    never cross the wire twice — the first exchange is bounded by distinct
    pairs per batch, the second by windows per block."""

    def partial(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(batch["ts"], unit="hour").cast(pa.timestamp("us"))
        w_us = pc.fill_null(w.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)
        w_null = pc.is_null(w).to_numpy(zero_copy_only=False)
        uid = batch["user_id"].cast(pa.int64())
        u_ok = pc.is_valid(uid).to_numpy(zero_copy_only=False)
        u = pc.fill_null(uid, 0).to_numpy(zero_copy_only=False)
        # per-window event-count partials (every row, NULL users included)
        key = np.stack([w_us, w_null.astype(np.int64)], axis=1)
        uk, inv, cnt = np.unique(key, axis=0, return_inverse=True, return_counts=True)
        n_w = len(uk)
        # distinct (window, user) pairs among valid users
        pk = np.stack([w_us[u_ok], w_null[u_ok].astype(np.int64), u[u_ok]], axis=1)
        pu = np.unique(pk, axis=0) if len(pk) else np.empty((0, 3), np.int64)
        return pa.table(
            {
                "w_us": pa.array(np.concatenate([pu[:, 0], uk[:, 0]]), pa.int64()),
                "w_null": pa.array(
                    np.concatenate([pu[:, 1], uk[:, 1]]).astype(bool)
                ),
                "user": pa.array(
                    np.concatenate([pu[:, 2], np.full(n_w, -1)]), pa.int64()
                ),
                "is_count": pa.array(
                    np.concatenate([np.zeros(len(pu), np.int64), np.ones(n_w, np.int64)])
                ),
                "n": pa.array(
                    np.concatenate([np.zeros(len(pu), np.int64), cnt.astype(np.int64)])
                ),
            }
        )

    def fold(batch: pa.Table) -> pa.Table:
        isc = batch["is_count"].to_numpy(zero_copy_only=False).astype(bool)
        w_us = batch["w_us"].to_numpy(zero_copy_only=False)
        w_null = batch["w_null"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False)
        key = np.stack([w_us, w_null], axis=1)
        uk, inv = np.unique(key, axis=0, return_inverse=True)
        users = np.bincount(inv, weights=(~isc).astype(np.float64), minlength=len(uk))
        events = np.bincount(inv, weights=np.where(isc, n, 0), minlength=len(uk))
        return pa.table(
            {
                "w_us": pa.array(uk[:, 0], pa.int64()),
                "w_null": pa.array(uk[:, 1].astype(bool)),
                "u_part": pa.array(users.astype(np.int64), pa.int64()),
                "e_part": pa.array(events.astype(np.int64), pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        w = batch["w_us"].cast(pa.timestamp("us"))
        return pa.table(
            {
                "window_start": pc.if_else(
                    batch["w_null"], pa.scalar(None, pa.timestamp("us")), w
                ),
                "n_users": batch["u_part"],
                "n_events": batch["e_part"],
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["w_us", "w_null", "user", "is_count"])
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(fold, batch_format="pyarrow")
        .groupby(["w_us", "w_null"])
        .aggregate(
            Sum("u_part", alias_name="u_part"),
            Sum("e_part", alias_name="e_part"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def rolling_active_users(sf_dir: str, window_days: int = 7) -> "rd.Dataset":
    """Rolling active users: for every observed day, the count of DISTINCT
    users with any event in the trailing ``window_days``-day window ending
    that day — the WAU/MAU retention primitive.  A sliding DISTINCT cannot
    be windowed with per-window sums (a user active twice in one window
    must count once), so the shape is fan-out dedup: global distinct
    (day, user) pairs, each fanned to the ``window_days`` window-end days
    it activates, deduped again, then counted.  Rows with NULL ts or NULL
    user are excluded (SQL: they can join no window / COUNT(DISTINCT)
    ignores NULLs); only days observed in the data are reported.

    Scale shape: three shuffle-reduced exchanges, all over (day, user)
    granularity or smaller — raw events collapse to per-batch distinct
    pairs before anything moves; the fan-out multiplies DISTINCT pairs by
    ``window_days``, not events.  The observed-day catalog is collected
    driver-side — bounded by the calendar span, not the corpus."""
    DAY_US = 86_400_000_000

    def pair_partial(batch: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["user_id"]))
        t = batch.filter(ok)
        d = (
            pc.floor_temporal(t["ts"], unit="day")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        u = t["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        pk = np.unique(np.stack([d, u], axis=1), axis=0) if len(d) else np.empty((0, 2), np.int64)
        return pa.table(
            {"day": pa.array(pk[:, 0], pa.int64()), "user": pa.array(pk[:, 1], pa.int64())}
        )

    pairs = (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["day", "user"])
        .count()
        .select_columns(["day", "user"])
        .materialize()
    )

    # observed-day catalog: bounded by the calendar span (the groupby above
    # already reduced to distinct pairs; unique days are far fewer)
    days = np.unique(
        np.concatenate(
            [b["day"].to_numpy(zero_copy_only=False) for b in pairs.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, np.int64)]
        )
    )

    def fan_out(batch: pa.Table) -> pa.Table:
        d = batch["day"].to_numpy(zero_copy_only=False)
        u = batch["user"].to_numpy(zero_copy_only=False)
        n = len(d)
        win = (
            np.repeat(d, window_days)
            + np.tile(np.arange(window_days, dtype=np.int64) * DAY_US, n)
        )
        uu = np.repeat(u, window_days)
        # keep only window-end days that exist in the data
        pos = np.clip(np.searchsorted(days, win), 0, max(len(days) - 1, 0))
        hit = days[pos] == win if len(days) else np.zeros(len(win), bool)
        return pa.table(
            {"day": pa.array(win[hit], pa.int64()), "user": pa.array(uu[hit], pa.int64())}
        )

    def count_fold(batch: pa.Table) -> pa.Table:
        d = batch["day"].to_numpy(zero_copy_only=False)
        uk, cnt = np.unique(d, return_counts=True)
        return pa.table(
            {"day": pa.array(uk, pa.int64()), "n_part": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": batch["day"].cast(pa.timestamp("us")),
                "active_users": batch["n_part"].cast(pa.int64()),
            }
        )

    return (
        pairs.map_batches(fan_out, batch_format="pyarrow")
        .groupby(["day", "user"])
        .count()
        .select_columns(["day", "user"])
        .map_batches(count_fold, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n_part", alias_name="n_part"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def normalized_exact_dedup(sf_dir: str, synth: bool = True) -> "rd.Dataset":
    """Normalization-invariant exact dedup — the first rung above byte-exact
    dedup in every crawl pipeline (case/whitespace mirrors are the most
    common trivial dup class): text is lowercased, whitespace runs collapse
    to one space, edges trim, and the md5 of the NORMALIZED form is the
    dedup key.  Emits (k, keep_doc_id, n_dups) — :func:`exact_dedup`'s
    contract on the normalized key.

    ``synth=True`` injects deterministic case/whitespace noise first (even
    doc_ids are uppercased, odd ones get tab/space padding — the
    :func:`pii_scrub` augmentation precedent), so the normalizer provably
    erases real noise and the oracle recomputes the identical chain in SQL;
    ``synth=False`` normalizes ``text`` as-is.

    Scale shape: map-only normalize + hash; the ONE shuffle moves the fixed
    32-byte key, never the text (the ``exact_dedup`` scale contract).  The
    normalize chain is three vectorized Arrow kernels; only the md5 runs
    per-row (C-speed, ~500 MB/s/core)."""

    def key(batch: pa.Table) -> pa.Table:
        t = _text_col(batch)
        if synth:
            even = pc.equal(pc.bit_wise_and(_one_chunk(batch["doc_id"]), 1), 0)
            t = pc.if_else(
                even,
                pc.utf8_upper(t),
                pc.binary_join_element_wise(" \t", t, "  ", ""),
            )
        norm = pc.utf8_trim(
            pc.replace_substring_regex(pc.utf8_lower(t), r"\s+", " "), " "
        )
        ks = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm.to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "k": pa.array(ks, pa.string())})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(key, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="n_dups"))
    )


def url_dedup(sf_dir: str, synth: bool = True) -> "rd.Dataset":
    """Canonical-URL dedup — the crawl-side recrawl/mirror collapse every
    web pipeline runs before content dedup: each doc's first URL is
    canonicalized (lowercase, fragment dropped, query string dropped,
    trailing slashes stripped) and docs sharing a canonical URL collapse
    to the smallest doc_id.  Emits (canon_url, keep_doc_id, n_dups); docs
    with no URL are dropped.

    ``synth=True`` appends a doc_id-derived URL whose HOST and PATH repeat
    with different periods while its case, tracking params
    (``utm_source``/``sid``) and fragment vary per doc — so
    canonicalization provably erases real variation and the DuckDB oracle
    recomputes the identical RE2 chain; ``synth=False`` canonicalizes the
    first URL found in ``text`` (pytest fixtures).

    Scale shape: map-only extract + 4-step vectorized RE2 canonicalize →
    per-batch (url, min_doc_id, n) partials → ONE groupby keyed on the
    canonical url (bounded by distinct URLs; hash the url through the
    exchange at 100 TB, same swap as :func:`exact_dedup`)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = _text_col(batch)
        if synth:
            did = _one_chunk(batch["doc_id"]).to_numpy(zero_copy_only=False)
            t = pc.binary_join_element_wise(
                t,
                pc.binary_join_element_wise(
                    "https://Site",
                    pc.cast(pa.array(did % 20), pa.string()),
                    ".Example.org/p/",
                    pc.cast(pa.array(did % 25), pa.string()),
                    "/?utm_source=x",
                    pc.cast(pa.array(did % 7), pa.string()),
                    "&sid=",
                    pc.cast(_one_chunk(batch["doc_id"]), pa.string()),
                    "#f",
                    pc.cast(pa.array(did % 5), pa.string()),
                    "",
                ),
                " ",
            )
        url = pc.struct_field(pc.extract_regex(t, r"(?P<u>https?://[^\s]+)"), "u")
        canon = pc.utf8_lower(url)
        canon = pc.replace_substring_regex(canon, r"#.*$", "")
        canon = pc.replace_substring_regex(canon, r"\?.*$", "")
        canon = pc.replace_substring_regex(canon, r"/+$", "")
        tbl = pa.table({"canon_url": canon, "doc_id": batch["doc_id"]}).filter(
            pc.is_valid(canon)
        )
        df = tbl.to_pandas().groupby("canon_url", as_index=False).agg(
            keep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            pa.schema(
                [
                    ("canon_url", pa.string()),
                    ("keep_doc_id", pa.int64()),
                    ("n_dups", pa.int64()),
                ]
            )
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("canon_url")
        .aggregate(
            Min("keep_doc_id", alias_name="keep_doc_id"),
            Sum("n_dups", alias_name="n_dups"),
        )
    )


def embedding_covariance(sf_dir: str) -> "rd.Dataset":
    """Distributed covariance/Gram matrix of the embedding table — the one
    d×d pass behind PCA whitening, SVD init, and drift monitoring of an
    embedding store.  Emits the upper triangle as (i, j, cov) rows
    (1-based dims, population covariance, float64, rounded to 5 decimals
    on both engines — the :func:`embedding_dup_pairs` float convention).

    Scale shape: the classic partial-Gram reduction — every batch emits ONE
    d×(d+1)/2-row partial (X^T X upper triangle + per-dim sums + count via
    one matmul), so the shuffle and the reducer see O(d^2) rows per batch
    regardless of corpus size; d=64 → 2080 rows.  No vector ever moves
    after the map side; the groupby key space is the fixed (i, j) grid."""
    empty = pa.table(
        {
            "i": pa.array([], pa.int64()),
            "j": pa.array([], pa.int64()),
            "sxy": pa.array([], pa.float64()),
            "sxi": pa.array([], pa.float64()),
            "sxj": pa.array([], pa.float64()),
            "n": pa.array([], pa.int64()),
        }
    )

    def partial(batch: pa.Table) -> pa.Table:
        # NULL embedding rows drop (SQL's unnest emits no rows for them);
        # dropping BEFORE flatten keeps the reshape row-aligned
        emb = _one_chunk(batch["embedding"]).drop_null()
        if len(emb) == 0:
            return empty
        d = len(emb[0])
        x = (
            emb.flatten()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            .reshape(-1, d)
        )
        iu, ju = np.triu_indices(d)
        g = x.T @ x
        sx = x.sum(axis=0)
        n = np.full(len(iu), x.shape[0], np.int64)
        return pa.table(
            {
                "i": pa.array(iu.astype(np.int64) + 1, pa.int64()),
                "j": pa.array(ju.astype(np.int64) + 1, pa.int64()),
                "sxy": pa.array(g[iu, ju]),
                "sxi": pa.array(sx[iu]),
                "sxj": pa.array(sx[ju]),
                "n": pa.array(n),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n" not in batch.schema.names:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "j": pa.array([], pa.int64()),
                    "cov": pa.array([], pa.float64()),
                }
            )
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = batch["sxy"].to_numpy(zero_copy_only=False)
        sxi = batch["sxi"].to_numpy(zero_copy_only=False)
        sxj = batch["sxj"].to_numpy(zero_copy_only=False)
        cov = np.round(sxy / n - (sxi / n) * (sxj / n), 5)
        return pa.table({"i": batch["i"], "j": batch["j"], "cov": pa.array(cov)})

    return (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(
            Sum("sxy", alias_name="sxy"),
            Sum("sxi", alias_name="sxi"),
            Sum("sxj", alias_name="sxj"),
            Sum("n", alias_name="n"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def domain_pagerank(
    sf_dir: str, iters: int = 3, damping: float = 0.85, n_domains: int = 40
) -> "pd.DataFrame":
    """PageRank over the synthesized outlink-domain graph — the
    link-authority signal crawl frontiers and source-weighting schemes rank
    domains by (Page et al. 1999).  Each doc contributes one edge
    ``doc_id %% 40 → (doc_id*7+3) %% 40`` (the :func:`domain_stats`
    synthesis convention; the affine map guarantees no self-loops), edges
    aggregate to weights, and ``iters`` power iterations run
    ``r' = (1-d)/N + d·Σ_in r[src]·w/outw[src]``.  Emits (domain, pr)
    rounded to 6 decimals — both engines iterate the identical affine
    recurrence over identically-aggregated weights, and at ~1e-16 float
    spread a 1e-6 rounding boundary is unreachable.

    Scale shape: the corpus-sized work — edge extraction and the
    (src, dst) weight aggregation — is map-partial → ONE groupby, after
    which everything operates on the DOMAIN GRAPH (bounded by distinct
    domain pairs, not docs).  Iterations here run driver-side on the
    collected weighted edges (≤ N² rows, N = 40); at web scale (10^8
    domains) the same recurrence runs as ``iters`` rounds of
    broadcast-rank map_batches over the edge Dataset + a dst-keyed
    groupby — the :func:`dup_clusters` label-propagation shape."""
    import pandas as pd

    def edge_partial(batch: pa.Table) -> pa.Table:
        did = _one_chunk(batch["doc_id"]).to_numpy(zero_copy_only=False)
        src = did % n_domains
        dst = (did * 7 + 3) % n_domains
        key = src * n_domains + dst
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "src": pa.array((uk // n_domains).astype(np.int64), pa.int64()),
                "dst": pa.array((uk % n_domains).astype(np.int64), pa.int64()),
                "w": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    edges = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(edge_partial, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .aggregate(Sum("w", alias_name="w"))
        .take_all()  # bounded by the domain-pair grid, not the corpus
    )
    if not edges:
        return pd.DataFrame({"domain": pd.array([], dtype="int64"), "pr": pd.array([], dtype="float64")})
    src = np.array([e["src"] for e in edges], np.int64)
    dst = np.array([e["dst"] for e in edges], np.int64)
    w = np.array([e["w"] for e in edges], np.float64)
    nodes = np.unique(np.concatenate([src, dst]))
    nmap = {int(v): k for k, v in enumerate(nodes)}
    si = np.array([nmap[int(v)] for v in src], np.intp)
    di = np.array([nmap[int(v)] for v in dst], np.intp)
    n = len(nodes)
    outw = np.bincount(si, weights=w, minlength=n)
    r = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iters):
        contrib = np.bincount(di, weights=r[si] * w / outw[si], minlength=n)
        r = base + damping * contrib
    return pd.DataFrame(
        {
            "domain": pd.array(nodes, dtype="int64"),
            "pr": pd.array(np.round(r, 6), dtype="float64"),
        }
    )


def bpe_pair_counts(sf_dir: str, k: int = 100, max_word: int = 64) -> "rd.Dataset":
    """First BPE merge iteration at corpus scale (Sennrich et al. 2016):
    adjacent character-pair frequencies weighted by word frequency — the
    primitive a distributed tokenizer trainer loops.  Emits the top ``k``
    (pair, cnt) by (cnt desc, pair asc).

    Scale shape: stage 1 is the word-frequency combiner cascade
    (per-batch ``value_counts`` → ONE vocabulary-keyed groupby — the
    :func:`word_freq_top100` shape), after which all work is over the
    VOCABULARY (bounded by distinct words, not tokens).  Stage 2 fans each
    distinct word into its pairs with a vectorized slide: one
    ``utf8_slice_codeunits`` per offset up to the batch's longest word
    (≤ a few dozen iterations, each over the whole batch), weights folded
    per batch before the final pair-keyed groupby.  Pairing is by
    codepoint on both engines (ASCII corpus: identical to bytes); pairs
    past offset ``max_word`` are ignored on BOTH engines (the oracle's
    ``i < max_word`` mirror) so a pathological megabyte "word" in a crawl
    cannot turn the slide into a million iterations."""

    def word_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(_one_chunk(_word_lists(batch).flatten()))
        return pa.table(
            {"word": vc.field("values"), "f": vc.field("counts").cast(pa.int64())}
        )

    vocab = (
        _docs(sf_dir, ["text"])
        .map_batches(word_partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("f", alias_name="f"))
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        words = _one_chunk(batch["word"])
        f = batch["f"].to_numpy(zero_copy_only=False)
        lens = pc.utf8_length(words).to_numpy(zero_copy_only=False)
        out_pairs = []
        out_cnt = []
        max_len = min(int(lens.max()) if len(lens) else 0, max_word)
        for i in range(max(0, max_len - 1)):
            m = lens > i + 1
            if not m.any():
                break
            sel = pa.array(m)
            out_pairs.append(pc.utf8_slice_codeunits(words.filter(sel), i, i + 2))
            out_cnt.append(f[m])
        if not out_pairs:
            return pa.table(
                {"pair": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        pairs = pa.concat_arrays([_one_chunk(p) for p in out_pairs])
        cnt = np.concatenate(out_cnt)
        # fold within the batch before the exchange
        df = pd.DataFrame({"pair": pairs.to_pandas(), "cnt": cnt}).groupby(
            "pair", as_index=False
        )["cnt"].sum()
        return pa.table(
            {
                "pair": pa.array(df["pair"], pa.string()),
                "cnt": pa.array(df["cnt"].to_numpy(), pa.int64()),
            }
        )

    return (
        vocab.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "pair"], descending=[True, False])
        .limit(k)
    )


def gram_novelty_by_bucket(sf_dir: str, bucket: int = 100) -> "rd.Dataset":
    """Corpus-freshness curve: how many word TRIGRAMS each ``bucket``-sized
    doc_id range INTRODUCES (a gram belongs to the bucket of the smallest
    doc_id containing it) — the diminishing-novelty audit that tells a
    crawl-curation loop when additional shards stop adding content
    (:func:`source_novelty`'s attribution rule, bucketed over ingest order
    instead of source).  Emits (bucket, n_new).

    Scale shape: per-batch (gram, min_doc) compaction → ONE gram-keyed
    groupby Min (the shuffle moves one row per distinct gram per batch;
    hash the gram at 100 TB) → map-side bucket key → a bucket-count
    groupby bounded by corpus/bucket."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"gram": pa.array([], pa.string()), "min_doc": pa.array([], pa.int64())}
        )
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        m = len(flat)
        if m < 3:
            return empty
        offs = words.offsets.to_numpy().astype(np.int64)
        n_words = np.diff(offs)
        valid = np.ones(m - 2, dtype=bool)
        # no trigram spans a doc boundary: kill the last two start positions
        # of every doc (clipped into range)
        ends = offs[1:-1]
        for back in (1, 2):
            idx = ends - back
            idx = idx[(idx >= 0) & (idx < m - 2)]
            valid[idx] = False
        if not valid.any():
            return empty
        mask = pa.array(valid)
        grams = pc.binary_join_element_wise(
            flat.slice(0, m - 2).filter(mask),
            flat.slice(1, m - 2).filter(mask),
            flat.slice(2, m - 2).filter(mask),
            " ",
        )
        doc_ids = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), n_words
        )[: m - 2][valid]
        df = pd.DataFrame({"gram": grams.to_pandas(), "min_doc": doc_ids}).groupby(
            "gram", as_index=False
        )["min_doc"].min()
        return pa.table(
            {
                "gram": pa.array(df["gram"], pa.string()),
                "min_doc": pa.array(df["min_doc"].to_numpy(), pa.int64()),
            }
        )

    def to_bucket(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "min_doc" not in batch.schema.names:
            return pa.table(
                {"bucket": pa.array([], pa.int64()), "n_new": pa.array([], pa.int64())}
            )
        b = batch["min_doc"].to_numpy(zero_copy_only=False) // bucket
        uk, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uk, pa.int64()),
                "n_new": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Min("min_doc", alias_name="min_doc"))
        .map_batches(to_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_new", alias_name="n_new"))
    )


# Banned outlink-domain ids for blocklist_filter (synth convention: a doc's
# outlink domain is doc_id % 40, the domain_stats / domain_pagerank graph).
_BLOCKLIST_DOMAINS = (0, 7, 13, 21, 34)


def blocklist_filter(sf_dir: str) -> "rd.Dataset":
    """Domain-blocklist filter audit — the kill-list pass (spam/adult/SEO
    domains) every crawl pipeline applies before content filters: docs
    whose outlink domain (synth convention ``doc_id %% 40``) is on the
    broadcast blocklist are dropped; emits per-source keep/drop counts
    (source two-key NULL-safe).  The blocklist is a fixed broadcast set —
    at 100 TB a few MB of domain hashes shipped once via ``ray.put``,
    membership tested map-side; nothing but the per-source count rows ever
    shuffles."""
    banned = np.array(_BLOCKLIST_DOMAINS, dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        tagged = _tag_key(batch, "source", ("doc_id",))
        did = tagged["doc_id"].to_numpy(zero_copy_only=False)
        dropped = np.isin(did % 40, banned)
        df = pd.DataFrame(
            {
                "source_key": tagged["source_key"].to_pandas(),
                "source_null": tagged["source_null"].to_pandas(),
                "n_dropped": dropped.astype(np.int64),
                "n_kept": (~dropped).astype(np.int64),
            }
        ).groupby(["source_key", "source_null"], as_index=False).sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        _docs(sf_dir, ["doc_id", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source_key", "source_null"])
        .aggregate(
            Sum("n_kept", alias_name="n_kept"),
            Sum("n_dropped", alias_name="n_dropped"),
        )
        .map_batches(
            lambda b: _restore_key(b, "source", ("n_kept", "n_dropped")),
            batch_format="pyarrow",
        )
    )


def doc_length_histogram(sf_dir: str) -> "rd.Dataset":
    """Log2-bucketed document-length histogram: docs and token mass per
    power-of-two token-count band — the length-distribution audit behind
    batch-size / packing-budget choices.  ``bucket`` = bit length of the
    whitespace token count (integer-exact on both engines: numpy ``frexp``
    exponent == DuckDB ``length(bin(n))`` for all int64 > 0; no float
    ``log2`` boundary risk).  Emits (bucket, n_docs, sum_tokens).

    Scale shape: map-only token count (pure-Arrow split + list length) →
    per-batch bincount partial → ONE groupby over ~40 buckets."""

    def partial(batch: pa.Table) -> pa.Table:
        n_tok = pc.list_value_length(_word_lists(batch)).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        # bit length via frexp exponent — exact for ints < 2^53; token
        # counts are far below that
        bucket = np.frexp(n_tok.astype(np.float64))[1].astype(np.int64)
        uk, inv = np.unique(bucket, return_inverse=True)
        return pa.table(
            {
                "bucket": pa.array(uk, pa.int64()),
                "n_docs": pa.array(np.bincount(inv, minlength=len(uk)).astype(np.int64)),
                "sum_tokens": pa.array(
                    np.bincount(inv, weights=n_tok.astype(np.float64), minlength=len(uk)).astype(np.int64)
                ),
            }
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_tokens", alias_name="sum_tokens"),
        )
    )


def crawl_delta(sf_dir: str, prefix: int = 40) -> "rd.Dataset":
    """Crawl snapshot diff — the added/removed/common audit between two
    crawls of the same corpus (re-crawl churn is the first number a crawl
    ops dashboard shows): even doc_ids stand in for crawl A, odd for crawl
    B (deterministic split, the :func:`incremental_dedup_bloom`
    convention), a document's identity is the :func:`exact_dedup` content
    key (md5 of the ``prefix``-char text prefix), and every distinct key is
    classified ``added`` (B only) / ``removed`` (A only) / ``common``.
    Emits (status, n_keys).

    Scale shape: per-batch (key, in_a, in_b) flag compaction → ONE
    key-hash groupby (fixed 32-byte keys through the exchange, never
    text) → map-side status classification → a 3-row status count."""

    def partial(batch: pa.Table) -> pa.Table:
        did = _one_chunk(batch["doc_id"]).to_numpy(zero_copy_only=False)
        ks = [
            hashlib.md5((t or "")[:prefix].encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        in_b = (did % 2).astype(np.int64)
        df = pd.DataFrame({"k": ks, "in_a": 1 - in_b, "in_b": in_b}).groupby(
            "k", as_index=False
        ).max()
        return pa.table(
            {
                "k": pa.array(df["k"], pa.string()),
                "in_a": pa.array(df["in_a"].to_numpy(), pa.int64()),
                "in_b": pa.array(df["in_b"].to_numpy(), pa.int64()),
            }
        )

    def classify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "in_a" not in batch.schema.names:
            return pa.table(
                {"status": pa.array([], pa.string()), "n_keys": pa.array([], pa.int64())}
            )
        a = batch["in_a"].to_numpy(zero_copy_only=False) > 0
        b = batch["in_b"].to_numpy(zero_copy_only=False) > 0
        status = np.where(a & b, "common", np.where(a, "removed", "added"))
        uk, cnt = np.unique(status, return_counts=True)
        return pa.table(
            {
                "status": pa.array(uk, pa.string()),
                "n_keys": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Max("in_a", alias_name="in_a"), Max("in_b", alias_name="in_b"))
        .map_batches(classify, batch_format="pyarrow")
        .groupby("status")
        .aggregate(Sum("n_keys", alias_name="n_keys"))
    )


def events_dedup_idempotent(sf_dir: str) -> "rd.Dataset":
    """At-least-once delivery dedup — the idempotency-window collapse every
    event-ingest pipeline runs: events with the same (user_id, event_type)
    inside the same clock hour are one logical event; keep the smallest
    event_id, report the duplicate count.  Emits (user_id, event_type,
    window_start, keep_event_id, n_dups); NULL event_type and NULL ts keep
    their own groups (SQL GROUP BY semantics) via fill+flag keys.

    Scale shape: the window key is computed map-side (vectorized timestamp
    floor — the :func:`events_hourly` kernel) and each batch pre-compacts
    to one row per (user, type, window), so the ONE shuffle moves compacted
    partials; group count is bounded by active (user, type, hour) combos,
    not raw deliveries."""
    SENT_TS = np.int64(-(2**62))

    def partial(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(
            pc.fill_null(batch["ts"], pa.scalar(0, pa.timestamp("us"))), unit="hour"
        ).cast(pa.int64())
        ts_null = pc.is_null(batch["ts"]).to_numpy(zero_copy_only=False)
        wn = w.to_numpy(zero_copy_only=False).copy()
        wn[ts_null] = SENT_TS
        et = pc.fill_null(batch["event_type"], "\x00NULL").to_pandas()
        # fill+flag the user key too: a NULL user_id reads as float NaN and
        # pandas groupby would silently DROP its rows, where SQL GROUP BY
        # keeps the NULL group
        u_null = pc.is_null(batch["user_id"]).to_numpy(zero_copy_only=False)
        uid = pc.fill_null(batch["user_id"], 0).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "user_key": uid.astype(np.int64),
                "user_null": u_null,
                "type_key": et,
                "w_key": wn,
                "event_id": batch["event_id"].to_numpy(zero_copy_only=False),
            }
        ).groupby(["user_key", "user_null", "type_key", "w_key"], as_index=False).agg(
            keep_event_id=("event_id", "min"), n_dups=("event_id", "size")
        )
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            pa.schema(
                [
                    ("user_key", pa.int64()),
                    ("user_null", pa.bool_()),
                    ("type_key", pa.string()),
                    ("w_key", pa.int64()),
                    ("keep_event_id", pa.int64()),
                    ("n_dups", pa.int64()),
                ]
            )
        )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "w_key" not in batch.schema.names:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "window_start": pa.array([], pa.timestamp("us")),
                    "keep_event_id": pa.array([], pa.int64()),
                    "n_dups": pa.array([], pa.int64()),
                }
            )
        wk = batch["w_key"].to_numpy(zero_copy_only=False)
        w = pa.array(
            np.where(wk == SENT_TS, np.int64(0), wk), pa.int64()
        ).cast(pa.timestamp("us"))
        w = pc.if_else(
            pa.array(wk == SENT_TS), pa.scalar(None, pa.timestamp("us")), w
        )
        et = pc.if_else(
            pc.equal(batch["type_key"], "\x00NULL"),
            pa.scalar(None, pa.string()),
            batch["type_key"],
        )
        uid = pc.if_else(
            batch["user_null"], pa.scalar(None, pa.int64()), batch["user_key"]
        )
        return pa.table(
            {
                "user_id": uid,
                "event_type": et,
                "window_start": w,
                "keep_event_id": batch["keep_event_id"],
                "n_dups": batch["n_dups"],
            }
        )

    return (
        rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["user_key", "user_null", "type_key", "w_key"])
        .aggregate(
            Min("keep_event_id", alias_name="keep_event_id"),
            Sum("n_dups", alias_name="n_dups"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def kmeans_train(sf_dir: str, k: int = 8, iters: int = 3) -> "rd.Dataset":
    """Multi-iteration Lloyd k-means over the embedding table — the
    training loop :func:`kmeans_assign` is one step of, and the coarse
    quantizer IVF layouts are built from.  Initial centroids are the
    vectors of the ``k`` smallest vec_ids (the kmeans_assign convention, so
    the oracle reconstructs them); each iteration assigns every vector to
    its nearest centroid (squared L2, ties to the smaller cluster id) and
    recomputes centroid means; empty clusters keep their previous centroid
    on BOTH engines.  Emits the final assignment (vec_id, cluster) — all
    integers, so the oracle compare is exact; the only float hazard is an
    argmin near-tie at the 1e-15 level between two random centroids, the
    same accepted risk as :func:`kmeans_assign`'s rounded distance.

    Scale shape: per iteration, ONE map-only assignment pass (a (n×k)
    matmul per batch against the broadcast centroid matrix) emitting
    (cluster, dim)-exploded partial sums — k·d rows per batch regardless
    of corpus size — and one (cluster, dim)-keyed groupby whose k·d-row
    result the driver folds into the next centroid matrix.  The corpus
    never shuffles; only fixed-size partials do."""
    import pyarrow.parquet as pq_
    from language_identification_ray.stages.knn import _as_matrix

    tbl = pq_.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    )
    # NULL embeddings never unnest: not centroids, not assignable
    tbl = tbl.filter(pc.is_valid(tbl["embedding"]))
    empty = pa.table(
        {"vec_id": pa.array([], pa.int64()), "cluster": pa.array([], pa.int64())}
    )
    if tbl.num_rows == 0:
        return rd.from_arrow(empty)
    order = np.argsort(tbl["vec_id"].to_numpy())
    C = _as_matrix(tbl["embedding"])[order]  # (k', d) float64, cluster = row
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def make_update(Cm):
        c_sq = (Cm * Cm).sum(axis=1)

        def update(batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_valid(batch["embedding"]))
            X = _as_matrix(batch["embedding"])
            kk, d = Cm.shape
            if X.shape[0] == 0:
                return pa.table(
                    {
                        "cluster": pa.array([], pa.int64()),
                        "dim": pa.array([], pa.int64()),
                        "s": pa.array([], pa.float64()),
                        "n": pa.array([], pa.int64()),
                    }
                )
            d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ Cm.T) + c_sq[None, :]
            best = np.argmin(d2, axis=1)
            sums = np.zeros((kk, d))
            np.add.at(sums, best, X)
            cnt = np.bincount(best, minlength=kk).astype(np.int64)
            ci = np.repeat(np.arange(kk, dtype=np.int64), d)
            return pa.table(
                {
                    "cluster": pa.array(ci, pa.int64()),
                    "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), kk)),
                    "s": pa.array(sums.ravel()),
                    "n": pa.array(np.repeat(cnt, d), pa.int64()),
                }
            )

        return update

    for _ in range(iters):
        rows = (
            emb.map_batches(make_update(C), batch_format="pyarrow")
            .groupby(["cluster", "dim"])
            .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
            .take_all()  # k·d rows — fixed size at any corpus scale
        )
        newC = C.copy()  # empty clusters keep their previous centroid
        for r in rows:
            if r["n"] > 0:
                newC[r["cluster"], r["dim"]] = r["s"] / r["n"]
        C = newC

    c_sq = (C * C).sum(axis=1)
    Cf = C

    def assign(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        X = _as_matrix(batch["embedding"])
        if X.shape[0] == 0:
            return empty
        d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ Cf.T) + c_sq[None, :]
        best = np.argmin(d2, axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cluster": pa.array(best, pa.int64()),
            }
        )

    return emb.map_batches(assign, batch_format="pyarrow")


def knn_self_top1(sf_dir: str, max_broadcast: int = 4_000_000) -> "rd.Dataset":
    """Exact kNN graph, top-1: every vector's single best-cosine neighbor
    (self excluded, ties to the smaller vec_id) — the primitive SemDeDup /
    graph-clustering / hubness audits build on.  Emits (vec_id, nn_vec_id,
    cos) with cos rounded to 5 decimals (the embedding-family float
    convention).

    Scale shape: the normalized matrix broadcasts once (size-gated at
    ``max_broadcast`` rows — beyond it the scale path is the repo's IVF
    machinery in `stages/knn.py`, exactly like `knn_cosine_top10`'s
    docstring path); each batch answers with ONE (b×n) matmul, self masked,
    argmax taken vectorized.  Map-only — no shuffle."""
    import pyarrow.parquet as pq_
    from language_identification_ray.stages.knn import _as_matrix

    tbl = pq_.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "nn_vec_id": pa.array([], pa.int64()),
            "cos": pa.array([], pa.float64()),
        }
    )
    tbl = tbl.filter(pc.is_valid(tbl["embedding"]))  # no unnest rows
    if tbl.num_rows < 2:
        return rd.from_arrow(empty)
    if tbl.num_rows > max_broadcast:
        raise ValueError(
            "knn_self_top1 broadcasts the full matrix; beyond "
            f"{max_broadcast} rows use the IVF path (stages/knn.py)"
        )
    import ray

    ids = tbl["vec_id"].to_numpy().astype(np.int64)
    M = _as_matrix(tbl["embedding"])
    norms = np.linalg.norm(M, axis=1)
    norms[norms == 0.0] = 1.0
    Mn = M / norms[:, None]
    ref = ray.put((ids, Mn))

    def top1(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        bids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        X = _as_matrix(batch["embedding"])
        if X.shape[0] == 0:
            return empty
        aids, A = ray.get(ref)
        xn = np.linalg.norm(X, axis=1)
        xn[xn == 0.0] = 1.0
        S = (X / xn[:, None]) @ A.T  # (b, n) cosines
        # mask self: vec_id equality, not row position (batches are slices)
        self_mask = bids[:, None] == aids[None, :]
        S[self_mask] = -np.inf
        # argmax with ties to the smaller neighbor id: argmax returns the
        # FIRST max; aids ascend with vec_id order in the parquet, which is
        # already sorted by vec_id in the fixtures — sort defensively
        order = np.argsort(aids, kind="stable")
        S = S[:, order]
        aids_sorted = aids[order]
        best = np.argmax(S, axis=1)
        return pa.table(
            {
                "vec_id": pa.array(bids, pa.int64()),
                "nn_vec_id": pa.array(aids_sorted[best], pa.int64()),
                "cos": pa.array(np.round(S[np.arange(len(best)), best], 5)),
            }
        )

    return rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(top1, batch_format="pyarrow")


def readability_scores(sf_dir: str) -> "rd.Dataset":
    """Per-document Flesch reading ease — the classic corpus-curation
    readability analytic (quality filters gate on it alongside the Gopher
    flags; no reference analogue, this is a training-data-pipeline
    extension).  Emits ``(doc_id, n_words, n_sentences, n_syllables,
    flesch)`` with ``n_words`` = ``\\S+`` runs, ``n_sentences`` =
    ``[.!?]+`` runs, ``n_syllables`` = case-insensitive ``[aeiouy]+``
    runs (the standard vowel-group syllable estimate), and ``flesch =
    206.835 − 1.015·(words/sentences) − 84.6·(syllables/words)``.

    Both engines run the SAME RE2 patterns (Arrow
    ``count_substring_regex`` here, DuckDB ``regexp_extract_all`` with
    the ``'i'`` option there — both are RE2), and the float formula is
    row-wise double arithmetic evaluated left-to-right on both sides, so
    scores are IEEE-bit identical.  NULL text → NULL counts (SQL regexp
    on NULL); zero words or zero sentences → NULL flesch (NULLIF
    denominators).

    Scale shape: pure map — one pruned ``(doc_id, text)`` scan, three
    vectorized RE2 count kernels per batch, no exchange at all."""

    def score(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks()
        w = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
        s = pc.count_substring_regex(text, r"[.!?]+").cast(pa.int64())
        y = pc.count_substring_regex(text, r"(?i)[aeiouy]+").cast(pa.int64())
        wn = w.to_numpy(zero_copy_only=False).astype(np.float64)
        sn = s.to_numpy(zero_copy_only=False).astype(np.float64)
        yn = y.to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            fl = 206.835 - 1.015 * (wn / sn) - 84.6 * (yn / wn)
        bad = ~(np.isfinite(wn) & (wn > 0) & np.isfinite(sn) & (sn > 0))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": w,
                "n_sentences": s,
                "n_syllables": y,
                "flesch": pa.array(np.where(bad, 0.0, fl), pa.float64(), mask=bad),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# r4 session-7 kernels


def lang_source_rollup(sf_dir: str) -> "rd.Dataset":
    """GROUP BY ROLLUP(lang, source) — the multi-level subtotal report
    (per-(lang, source) cells, per-lang subtotals, grand total) every corpus
    dashboard renders, and the grouping-sets relational shape the catalog
    did not yet cover.  Emits SQL ``GROUPING()`` ids (``g_lang``/
    ``g_source``) so rollup NULLs stay distinguishable from real NULL keys.

    Scale shape: ONE distributed exchange — per-batch Arrow ``group_by``
    pre-aggregates to ≤ |langs|×|sources| partial rows, a
    catalog-cardinality groupby combines them, and the two coarser levels
    re-aggregate FROM the finest level inside a single catalog-sized block
    (``repartition(1)`` over ≤ |langs|×|sources| rows — how every
    distributed planner lowers ROLLUP: compute the finest grouping
    distributed, derive the rest from it).  SQL SUM-NULL semantics survive
    the cascade: a non-null n_chars count rides along, and any (sub)total
    whose count is 0 is NULL, exactly like SQL ``sum`` over all-NULL."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "source": batch["source"],
                "chars": pc.fill_null(batch["n_chars"], 0).cast(pa.int64()),
                "chars_valid": pc.is_valid(batch["n_chars"]).cast(pa.int64()),
            }
        )
        g = t.group_by(["lang", "source"]).aggregate(
            [("chars", "sum"), ("chars_valid", "sum"), ([], "count_all")]
        )
        lang_key, lang_null = _null_safe_key(g["lang"])
        src_key, src_null = _null_safe_key(g["source"])
        return pa.table(
            {
                "lang_key": lang_key,
                "lang_null": lang_null,
                "source_key": src_key,
                "source_null": src_null,
                "chars": g["chars_sum"].cast(pa.int64()),
                "chars_valid": g["chars_valid_sum"].cast(pa.int64()),
                "n_docs": g["count_all"].cast(pa.int64()),
            }
        )

    def rollup(batch: pa.Table) -> pa.Table:
        # one catalog-sized block: the finest grouping. Re-derive the
        # (lang) and () levels from it.
        if batch.num_rows == 0 or "lang_key" not in batch.schema.names:
            # SQL ROLLUP over an empty table still emits the grand-total
            # grouping set: one (NULL, NULL) row with COUNT(*)=0, NULL sum.
            return pa.table(
                {
                    "lang": pa.array([None], pa.string()),
                    "source": pa.array([None], pa.string()),
                    "g_lang": pa.array([1], pa.int64()),
                    "g_source": pa.array([1], pa.int64()),
                    "n_docs": pa.array([0], pa.int64()),
                    "total_chars": pa.array([None], pa.int64()),
                }
            )
        lang = pa.array(
            batch["lang_key"].to_pylist(), pa.string(),
            mask=batch["lang_null"].to_numpy(zero_copy_only=False).astype(bool),
        )
        src = pa.array(
            batch["source_key"].to_pylist(), pa.string(),
            mask=batch["source_null"].to_numpy(zero_copy_only=False).astype(bool),
        )
        chars = batch["chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        valid = batch["chars_valid"].to_numpy(zero_copy_only=False).astype(np.int64)
        ndocs = batch["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)

        def level_rows(keys_lang, keys_src, g_lang, g_src, sel):
            # sel: dict key -> (chars, valid, ndocs) already combined
            out_lang, out_src, cs, vs, ns = [], [], [], [], []
            for k, (c, v, n) in sel.items():
                out_lang.append(k[0] if g_lang == 0 else None)
                out_src.append(k[1] if g_src == 0 else None)
                cs.append(c)
                vs.append(v)
                ns.append(n)
            total = pa.array(
                [c if v > 0 else None for c, v in zip(cs, vs)], pa.int64()
            )
            return pa.table(
                {
                    "lang": pa.array(out_lang, pa.string()),
                    "source": pa.array(out_src, pa.string()),
                    "g_lang": pa.array([g_lang] * len(cs), pa.int64()),
                    "g_source": pa.array([g_src] * len(cs), pa.int64()),
                    "n_docs": pa.array(ns, pa.int64()),
                    "total_chars": total,
                }
            )

        finest: dict = {}
        for i in range(batch.num_rows):
            k = (lang[i].as_py(), src[i].as_py())
            c, v, n = finest.get(k, (0, 0, 0))
            finest[k] = (c + int(chars[i]), v + int(valid[i]), n + int(ndocs[i]))
        # The empty-input sentinel row (n_docs=0) is not a real SQL group at
        # the finest/lang levels — SQL groups always have COUNT(*) >= 1 —
        # but its zeros still fold into the always-emitted grand total.
        finest_real = {k: cvn for k, cvn in finest.items() if cvn[2] > 0}
        by_lang: dict = {}
        for (lg, _), (c, v, n) in finest_real.items():
            k = (lg, None)
            c0, v0, n0 = by_lang.get(k, (0, 0, 0))
            by_lang[k] = (c0 + c, v0 + v, n0 + n)
        grand = {(None, None): (
            sum(c for c, _, _ in finest.values()),
            sum(v for _, v, _ in finest.values()),
            sum(n for _, _, n in finest.values()),
        )}
        finest = finest_real
        return pa.concat_tables(
            [
                level_rows(None, None, 0, 0, finest),
                level_rows(None, None, 0, 1, by_lang),
                level_rows(None, None, 1, 1, grand),
            ]
        )

    # Zero-count sentinel: guarantees the final block is non-empty so the
    # grand-total grouping-set row is emitted even over an empty table (SQL
    # ROLLUP always yields the () row).  It merges into a real (NULL, NULL)
    # group as +0 and is dropped from the finest/lang levels by n_docs > 0.
    sentinel = rd.from_arrow(pa.table({
        "lang_key": pa.array([""], pa.string()),
        "lang_null": pa.array([True]),
        "source_key": pa.array([""], pa.string()),
        "source_null": pa.array([True]),
        "chars": pa.array([0], pa.int64()),
        "chars_valid": pa.array([0], pa.int64()),
        "n_docs": pa.array([0], pa.int64()),
    }))
    return (
        _docs(sf_dir, ["lang", "source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .union(sentinel)
        .groupby(["lang_key", "lang_null", "source_key", "source_null"])
        .aggregate(
            Sum("chars", alias_name="chars"),
            Sum("chars_valid", alias_name="chars_valid"),
            Sum("n_docs", alias_name="n_docs"),
        )
        .repartition(1)
        .map_batches(rollup, batch_format="pyarrow")
    )


def edit2_word_pairs(sf_dir: str, max_dist: int = 2, max_len: int = 32) -> "rd.Dataset":
    """Distributed string-similarity self-join over the corpus vocabulary:
    all distinct word pairs within Levenshtein distance ``max_dist`` (≤ 2)
    — the spell-candidate / query-variant mining primitive behind the
    reference's fuzzy word index (SURVEY §2.3 A8) lifted to a dataset-scale
    JOIN, using SymSpell deletion-neighborhood blocking (Garbe 2012): if
    ``lev(a, b) <= d`` then some string in ``deletes<=d(a) ∩ deletes<=d(b)``
    exists, so bucketing every word by its deletion variants yields a
    complete candidate set without the O(|V|²) cross join.

    Scale shape: the corpus collapses to its vocabulary first (per-batch
    distinct → one vocab-keyed groupby — the word_freq combiner); every
    downstream exchange is VOCABULARY-bounded, never corpus-bounded.
    Deletion fan-out is ≤ 1 + L + L(L-1)/2 variants per word (L ≤
    ``max_len``); candidate pairs dedup through one (w1, w2) groupby and
    are verified with the exact DP ``levenshtein`` — candidate counts are
    bucket-bounded, so the per-row verify is a vocabulary-scale cost.
    Words longer than ``max_len`` are excluded on BOTH engines (the
    deletion fan-out guard, same convention as the BPE 64-char cap)."""
    from language_identification_ray.functions.strings import levenshtein

    def vocab_partial(batch: pa.Table) -> pa.Table:
        w = pc.unique(_one_chunk(_word_lists(batch).flatten()))
        w = w.filter(pc.less_equal(pc.utf8_length(w), max_len))
        return pa.table({"w": w})

    def deletes(group: pa.Table) -> pa.Table:
        # vocab-side fan-out: all deletion variants up to max_dist
        out_v, out_w = [], []
        for w in group["w"].to_pylist():
            seen = {w}
            frontier = {w}
            for _ in range(max_dist):
                nxt = set()
                for s in frontier:
                    for i in range(len(s)):
                        t = s[:i] + s[i + 1 :]
                        if t not in seen:
                            seen.add(t)
                            nxt.add(t)
                frontier = nxt
            for v in seen:
                out_v.append(v)
                out_w.append(w)
        return pa.table(
            {"variant": pa.array(out_v, pa.string()), "w": pa.array(out_w, pa.string())}
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ws = sorted(set(group["w"].to_pylist()))
        n = len(ws)
        if n < 2:
            return pa.table(
                {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string())}
            )
        i, j = np.triu_indices(n, k=1)
        arr = np.asarray(ws, dtype=object)
        return pa.table(
            {"w1": pa.array(arr[i], pa.string()), "w2": pa.array(arr[j], pa.string())}
        )

    def verify(batch: pa.Table) -> pa.Table:
        w1 = batch["w1"].to_pylist()
        w2 = batch["w2"].to_pylist()
        dist = np.array([levenshtein(a, b) for a, b in zip(w1, w2)], dtype=np.int64)
        keep = dist <= max_dist
        return pa.table(
            {
                "w1": batch["w1"].filter(pa.array(keep)),
                "w2": batch["w2"].filter(pa.array(keep)),
                "dist": pa.array(dist[keep], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")  # distinct vocab
        .map_batches(deletes, batch_format="pyarrow")
        .groupby("variant")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")  # distinct pairs
        .map_batches(verify, batch_format="pyarrow")
    )


def inverted_index_blocks(sf_dir: str, block_size: int = 100) -> "rd.Dataset":
    """Posting-list construction — the retrieval-index build (the batch job
    behind every BM25 / sparse-search deployment): for each word, the
    sorted doc_id posting list, SHARDED into fixed doc_id ranges of
    ``block_size`` (``block`` = floor(doc_id / block_size)) so no reducer
    ever holds a full head-word posting list — the blocked layout real
    index builders (Lucene segments, impact-sharded indexes) use at scale.

    Scale shape: per-batch DISTINCT (word, doc) pairs (df combiner), one
    (word, block) keyed exchange whose per-group size is ≤ block_size,
    postings serialized per group.  NULL doc_id rows are excluded on both
    engines (a posting for no document is meaningless)."""

    def pairs(batch: pa.Table) -> pa.Table:
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.float64)
        doc = np.repeat(ids, counts)
        ok = ~pc.is_null(batch["doc_id"]).to_numpy(zero_copy_only=False).astype(bool)
        okr = np.repeat(ok, counts)
        # distinct (word, doc) inside the batch: dictionary-encode + lexsort
        wd = flat.dictionary_encode()
        codes = wd.indices.to_numpy(zero_copy_only=False).astype(np.int64)[okr]
        docs = doc[okr].astype(np.int64)
        if len(codes) == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "block": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        c, d = _unique_pairs(codes, docs)
        names = wd.dictionary
        return pa.table(
            {
                "word": names.take(pa.array(c, pa.int64())),
                "block": pa.array(np.floor_divide(d, block_size), pa.int64()),
                "doc_id": pa.array(d, pa.int64()),
            }
        )

    def build(group: pa.Table) -> pa.Table:
        ids = np.unique(group["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "word": group["word"].slice(0, 1),
                "block": group["block"].slice(0, 1),
                "df": pa.array([len(ids)], pa.int64()),
                "postings": pa.array([",".join(map(str, ids))], pa.string()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["word", "block"])
        .map_groups(build, batch_format="pyarrow")
    )


def event_volume_trend(sf_dir: str, epoch: str = "2024-01-01") -> "rd.Dataset":
    """Per-event-type daily-volume trend: the OLS slope of daily event
    counts against the day number — the grouped-regression corpus-health /
    traffic-drift audit (is click volume rising while purchases fall?).
    ``zipf_alpha``'s regression shape, but GROUPED: one regression per
    event type, each folded from distributed sum-partials instead of a
    single collected block.  Emits ``(event_type, n_days, slope)`` with
    slope rounded to 6 decimals (= DuckDB ``regr_slope``'s
    covar_pop/var_pop at that precision); a type with < 2 distinct days or
    zero day-variance yields NULL slope, matching SQL.

    Scale shape: two SHRINKING exchanges — (type, day) daily counts from
    per-batch Arrow group_by partials (≤ types×days rows through the
    shuffle), then per-type Σn/Σx/Σy/Σxy/Σx² sum-partials (5 doubles per
    type per block) folded by a ≤ |types|-key groupby.  NULL ts rows keep
    their type's group alive but contribute nothing to the regression
    (SQL: regr_slope ignores NULL x), so a type with only NULL timestamps
    still emits its (type, 0, NULL) row."""
    epoch64 = np.datetime64(epoch, "us").astype(np.int64)
    us_per_day = np.int64(86_400_000_000)

    def daily_partial(batch: pa.Table) -> pa.Table:
        ts64 = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        isnat = np.isnat(ts64)
        ts = ts64.astype(np.int64)
        day = np.floor_divide(ts - epoch64, us_per_day)
        day[isnat] = 0
        t = pa.table(
            {
                "type_key": pc.fill_null(batch["event_type"], ""),
                "type_null": pc.is_null(batch["event_type"]),
                "day": pa.array(day, pa.int64()),
                "day_null": pa.array(isnat),
            }
        )
        g = t.group_by(["type_key", "type_null", "day", "day_null"]).aggregate(
            [("day", "count")]
        )
        return pa.table(
            {
                "type_key": g["type_key"],
                "type_null": g["type_null"],
                "day": g["day"],
                "day_null": g["day_null"],
                "cnt": g["day_count"].cast(pa.int64()),
            }
        )

    def reg_partial(batch: pa.Table) -> pa.Table:
        # per-type Σ-partials over this block's daily rows
        x = batch["day"].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        dnull = batch["day_null"].to_numpy(zero_copy_only=False).astype(bool)
        w = (~dnull).astype(np.float64)
        x = np.where(dnull, 0.0, x)
        y_eff = np.where(dnull, 0.0, y)
        t = pa.table(
            {
                "type_key": batch["type_key"],
                "type_null": batch["type_null"],
                "n": pa.array(w),
                "sx": pa.array(w * x),
                "sy": pa.array(y_eff),
                "sxy": pa.array(x * y_eff),
                "sxx": pa.array(w * x * x),
            }
        )
        return (
            t.group_by(["type_key", "type_null"]).aggregate(
                [("n", "sum"), ("sx", "sum"), ("sy", "sum"), ("sxy", "sum"), ("sxx", "sum")]
            )
        )

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch["n_sum"].to_numpy(zero_copy_only=False)
        sx = batch["sx_sum"].to_numpy(zero_copy_only=False)
        sy = batch["sy_sum"].to_numpy(zero_copy_only=False)
        sxy = batch["sxy_sum"].to_numpy(zero_copy_only=False)
        sxx = batch["sxx_sum"].to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = sxx - sx * sx / n
            slope = (sxy - sx * sy / n) / denom
        bad = ~(np.isfinite(slope)) | (n < 2) | (denom <= 0)
        return pa.table(
            {
                "event_type": pa.array(
                    batch["type_key"].to_pylist(), pa.string(),
                    mask=batch["type_null"].to_numpy(zero_copy_only=False).astype(bool),
                ),
                "n_days": pa.array(n.astype(np.int64), pa.int64()),
                "slope": pa.array(
                    np.where(bad, 0.0, np.round(slope, 6)), pa.float64(), mask=bad
                ),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
        .map_batches(daily_partial, batch_format="pyarrow")
        .groupby(["type_key", "type_null", "day", "day_null"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(reg_partial, batch_format="pyarrow")
        .groupby(["type_key", "type_null"])
        .aggregate(
            Sum("n_sum", alias_name="n_sum"),
            Sum("sx_sum", alias_name="sx_sum"),
            Sum("sy_sum", alias_name="sy_sum"),
            Sum("sxy_sum", alias_name="sxy_sum"),
            Sum("sxx_sum", alias_name="sxx_sum"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def top_bigram_per_lang(sf_dir: str) -> "rd.Dataset":
    """The single most frequent word bigram PER LANGUAGE (ties broken
    bigram-ASC) — grouped argmax over a grouped count, the two-level
    collocation profile (``bigram_top50`` is the global head; this is the
    per-key argmax real per-language reports need).

    Scale shape: the bigram combiner keyed by (lang, bigram) — per-batch
    pre-aggregated exactly like ``bigram_top50`` so the exchange moves one
    row per distinct (lang, bigram) per batch — then a per-batch partial
    argmax (≤ |langs| rows per block) and a ≤ |langs|-key final argmax:
    the full (lang, bigram) count table never converges on one node.  A
    language whose docs have no bigrams (every doc < 2 words) emits no
    row, matching the SQL inner derivation."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang_key": pa.array([], pa.string()),
                "lang_null": pa.array([], pa.bool_()),
                "bigram": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        m = len(flat)
        if m < 2:
            return empty
        offs = words.offsets.to_numpy().astype(np.int64)
        valid = np.ones(m - 1, dtype=bool)
        valid[offs[1:-1] - 1] = False
        if not valid.any():
            return empty
        lang_key, lang_null = _null_safe_key(batch["lang"])
        nw = np.diff(offs)
        lang_rep = pa.array(
            np.repeat(lang_key.to_numpy(zero_copy_only=False).astype(object), nw)[:-1][valid],
            pa.string(),
        )
        null_rep = pa.array(
            np.repeat(lang_null.to_numpy(zero_copy_only=False).astype(bool), nw)[:-1][valid]
        )
        mask = pa.array(valid)
        pairs = pc.binary_join_element_wise(
            flat.slice(0, m - 1).filter(mask), flat.slice(1, m - 1).filter(mask), " "
        )
        t = pa.table(
            {"lang_key": lang_rep, "lang_null": null_rep, "bigram": pairs}
        )
        g = t.group_by(["lang_key", "lang_null", "bigram"]).aggregate(
            [("bigram", "count")]
        )
        return pa.table(
            {
                "lang_key": g["lang_key"],
                "lang_null": g["lang_null"],
                "bigram": g["bigram"],
                "cnt": g["bigram_count"].cast(pa.int64()),
            }
        )

    def block_argmax(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        df = batch.to_pandas()
        df = df.sort_values(
            ["lang_key", "lang_null", "cnt", "bigram"],
            ascending=[True, True, False, True],
        )
        return pa.Table.from_pandas(
            df.groupby(["lang_key", "lang_null"], dropna=False).head(1),
            preserve_index=False,
        ).select(["lang_key", "lang_null", "bigram", "cnt"])

    def finalize(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(["cnt", "bigram"], ascending=[False, True])
        top = df.iloc[0]
        return pa.table(
            {
                "lang": pa.array(
                    [None if top["lang_null"] else top["lang_key"]], pa.string()
                ),
                "bigram": pa.array([top["bigram"]], pa.string()),
                "cnt": pa.array([int(top["cnt"])], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "bigram"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(block_argmax, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null"])
        .map_groups(finalize, batch_format="pyarrow")
    )


def events_collapse_consecutive(sf_dir: str) -> "rd.Dataset":
    """Consecutive-duplicate collapse per user: keep each event that STARTS
    a run of equal event_types in the user's (ts, event_id) order — the
    LAG-based stream compaction every event ingest runs after sensor /
    client retries (distinct from :func:`events_dedup_idempotent`, which
    collapses within a clock window regardless of interleaving; this
    collapses exact adjacency runs of any length).  NULL-type runs collapse
    too (SQL ``IS DISTINCT FROM`` semantics); the first row of every user
    always survives; NULL ts sorts last (ties broken by event_id, the
    corpus PK).

    Scale shape: one shuffle on user_id (the event family's shared key),
    one vectorized sort + shifted-comparison pass per group; no
    corpus-sized state anywhere."""

    def collapse(group: pa.Table) -> pa.Table:
        ts64 = group["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        key = ts64.astype(np.int64).copy()
        key[np.isnat(ts64)] = np.iinfo(np.int64).max  # NULLS LAST
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, key))
        t = group.take(pa.array(order, pa.int64()))
        typ = t["event_type"].combine_chunks()
        isnull = pc.is_null(typ).to_numpy(zero_copy_only=False).astype(bool)
        codes = (
            pc.fill_null(typ, "").dictionary_encode().indices
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        codes = codes + (codes.max() + 1 if len(codes) else 0) * isnull
        keep = np.r_[True, codes[1:] != codes[:-1]] if len(codes) else np.zeros(0, bool)
        return t.filter(pa.array(keep)).select(
            ["event_id", "user_id", "ts", "event_type"]
        )

    from language_identification_ray.pipelines.relational import _group_spread

    return (
        _group_spread(
            rd.read_parquet(
                f"{sf_dir}/events.parquet",
                columns=["event_id", "user_id", "ts", "event_type"],
            )
        )
        .groupby("user_id")
        .map_groups(collapse, batch_format="pyarrow")
    )


def top_lengths_dense_per_source(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Top-k WITH TIES per source: every document whose ``n_chars`` is among
    its source's ``k`` largest DISTINCT lengths, with its dense rank — the
    ``DENSE_RANK() <= k`` window shape (:func:`per_source_cap` keeps a row
    quota; this keeps VALUE-tier membership, the "all docs tied at the top
    sizes" report).  NULL lengths rank after every real length as ONE
    shared tier (SQL ``NULLS LAST`` + dense_rank's tie collapse), so they
    surface only when a source has fewer than ``k`` distinct real lengths;
    NULL source is its own partition.

    Scale shape: per-batch top-``k``-distinct partials (≤ k+1 rows per
    source per batch — a distinct top-k union is closed under merging), one
    catalog-keyed groupby, a ≤ (k+1)·|sources| driver collect for the
    cutoff table (bounded by the source catalog, never the corpus), then
    one broadcast map-side filter pass — the stats-pass → broadcast-filter
    two-pass of :func:`length_outlier_filter`."""

    def partial(batch: pa.Table) -> pa.Table:
        src_key, src_null = _null_safe_key(batch["source"])
        lens = np.nan_to_num(
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0,
        ).astype(np.int64)
        lens[
            pc.is_null(batch["n_chars"]).to_numpy(zero_copy_only=False).astype(bool)
        ] = np.iinfo(np.int64).min  # NULL tier: below every real length
        t = pa.table(
            {"src_key": src_key, "src_null": src_null, "len": pa.array(lens, pa.int64())}
        )
        g = t.group_by(["src_key", "src_null", "len"]).aggregate([([], "count_all")])
        # per (source) keep only the k+1 largest distinct lens of this batch
        df = g.to_pandas().sort_values("len", ascending=False)
        df = df.groupby(["src_key", "src_null"], dropna=False).head(k + 1)
        return pa.Table.from_pandas(df[["src_key", "src_null", "len"]], preserve_index=False)

    def batch_cut(b: pa.Table) -> pa.Table:
        # keep only each source's k+1 largest lens of this block (a distinct
        # top-k union is closed under merging, so no tier can be lost)
        df = (
            b.to_pandas()
            .sort_values("len", ascending=False)
            .groupby(["src_key", "src_null"], dropna=False)
            .head(k + 1)
        )
        return pa.Table.from_pandas(
            df[["src_key", "src_null", "len"]], preserve_index=False
        )

    stats = (
        _docs(sf_dir, ["source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["src_key", "src_null", "len"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
        # re-cut per block, then a per-source final cut, so the collect is
        # catalog-sized no matter how many batches fed the histogram
        .map_batches(batch_cut, batch_format="pyarrow")
        .groupby(["src_key", "src_null"])
        .map_groups(batch_cut, batch_format="pyarrow")
    ).take_all()  # bounded: ≤ (k+1) × |sources| rows — catalog-sized

    cutoffs: dict = {}
    for r in stats:
        key = (r["src_key"], bool(r["src_null"]))
        cutoffs.setdefault(key, []).append(int(r["len"]))
    import ray

    cut_sorted = {
        key: sorted(lens, reverse=True)[:k] for key, lens in cutoffs.items()
    }
    cut_ref = ray.put(cut_sorted)

    def tag(batch: pa.Table) -> pa.Table:
        # broadcast cutoff table → one vectorized hash-merge per batch
        cuts = ray.get(cut_ref)
        cut_df = pd.DataFrame(
            [
                (sk, sn, ln, r + 1)
                for (sk, sn), lens in cuts.items()
                for r, ln in enumerate(lens)
            ],
            columns=["sk", "sn", "len", "length_rank"],
        )
        src_key, src_null = _null_safe_key(batch["source"])
        isnull = pc.is_null(batch["n_chars"]).to_numpy(zero_copy_only=False).astype(bool)
        lens = np.nan_to_num(
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0,
        ).astype(np.int64)
        lens[isnull] = np.iinfo(np.int64).min
        df = pd.DataFrame(
            {
                "row": np.arange(batch.num_rows, dtype=np.int64),
                "sk": src_key.to_numpy(zero_copy_only=False).astype(object),
                "sn": src_null.to_numpy(zero_copy_only=False).astype(bool),
                "len": lens,
            }
        )
        hit = df.merge(cut_df, on=["sk", "sn", "len"], how="inner")
        idx = pa.array(hit["row"].to_numpy(), pa.int64())
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(idx),
                "source": batch["source"].take(idx),
                "n_chars": batch["n_chars"].take(idx),
                "length_rank": pa.array(hit["length_rank"].to_numpy(), pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        tag, batch_format="pyarrow"
    )


def word_freq_top100_cms(
    sf_dir: str, d: int = 4, w: int = 1 << 14, cand_k: int = 256
) -> "rd.Dataset":
    """Heavy hitters via a Count-Min sketch (Cormode & Muthukrishnan 2005)
    — the fixed-memory 100 TB companion to ``word_freq_top100_mg``: MG
    keeps a bounded candidate list with LOWER-bound counts, CMS keeps a
    constant ``d×w`` counter grid whose estimates never UNDERcount
    (overcount ≤ 2N/w w.p. ≥ 1-2^-d).  Production dedup/stats pipelines
    run exactly this pair: MG for who, CMS for how much.

    Per batch: one Arrow ``value_counts``, word hashes (crc32, uint32 —
    64-bit multiplies are emulated in this sandbox), a vectorized
    scatter-add into the grid, and an MG-compressed candidate partial.
    The exchange carries ONE serialized grid per batch (d·w·8 bytes,
    constant) plus ≤ cand_k candidate words per batch; the merge block
    sums grids (associative ADD) and estimates only candidate words.
    Candidates are the union of per-batch MG summaries — every word with
    global frequency > N/(cand_k+1) survives at least one batch's
    summary, so the head is never silently lost.  Rows-only by design
    (approximate); accuracy gated in pytest against the exact
    ``word_freq_top100``."""
    import zlib

    from language_identification_ray.functions import sketches as sk

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(_one_chunk(_word_lists(batch).flatten()))
        words = np.asarray(vc.field("values").to_pylist(), dtype=object)
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        regs = sk.cms_empty(d, w)
        h32 = np.array([zlib.crc32(wd.encode()) for wd in words], dtype=np.uint32)
        sk.cms_add_hashes(regs, h32, cnts)
        mg_w, _ = sk.mg_compress(words, cnts, cand_k)
        return pa.table(
            {
                "kind": pa.array([0] + [1] * len(mg_w), pa.int8()),
                "word": pa.array([""] + list(mg_w), pa.string()),
                "sketch": pa.array(
                    [regs.tobytes()] + [b""] * len(mg_w), pa.binary()
                ),
            }
        )

    def final(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"word": pa.array([], pa.string()), "cnt_est": pa.array([], pa.int64())}
            )
        kind = batch["kind"].to_numpy(zero_copy_only=False)
        regs = sk.cms_empty(d, w)
        for buf in batch.filter(pa.array(kind == 0))["sketch"].to_pylist():
            regs = sk.cms_merge(regs, np.frombuffer(buf, np.int64).reshape(d, w))
        cands = sorted(
            set(batch.filter(pa.array(kind == 1))["word"].to_pylist())
        )
        if not cands:
            return pa.table(
                {"word": pa.array([], pa.string()), "cnt_est": pa.array([], pa.int64())}
            )
        h32 = np.array([zlib.crc32(wd.encode()) for wd in cands], dtype=np.uint32)
        est = sk.cms_estimate(regs, h32)
        order = np.lexsort((np.asarray(cands, dtype=object), -est))[:100]
        return pa.table(
            {
                "word": pa.array(np.asarray(cands, dtype=object)[order], pa.string()),
                "cnt_est": pa.array(est[order], pa.int64()),
            }
        )

    # merge block is (1 + cand_k) × n_batches rows — sketch-sized, not
    # corpus-sized; the repartition(1) is the sketch family's one-reducer
    # merge, identical to the HLL/t-digest path
    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow")
    )


def score_percent_rank(sf_dir: str) -> "rd.Dataset":
    """Per-source PERCENT_RANK of document length — the cross-source score
    calibration every mixed-corpus ranking needs (raw quality scores from
    different sources/classifiers are incomparable; their within-source
    quantile ranks are).  ``pct_rank = (rank - 1) / (n_partition - 1)``
    with rank = first-peer rank (SQL ``PERCENT_RANK() OVER (PARTITION BY
    source ORDER BY n_chars)``), rounded to 6 decimals; a single-row
    partition is 0.0; NULL lengths sort LAST as one shared tier; NULL
    source is its own partition.

    Scale shape: the histogram-rank primitive (``global_length_rank``'s
    approach, partitioned): per-batch (source, len) count partials → one
    histogram-cardinality groupby → driver collect bounded by distinct
    (source, length) pairs — never the corpus — → cumulative first-peer
    ranks per source → broadcast → one map-side merge pass tags every
    row.  No global sort anywhere."""

    def hist_partial(batch: pa.Table) -> pa.Table:
        src_key, src_null = _null_safe_key(batch["source"])
        isnull = pc.is_null(batch["n_chars"]).to_numpy(zero_copy_only=False).astype(bool)
        lens = np.nan_to_num(
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0,
        ).astype(np.int64)
        lens[isnull] = np.iinfo(np.int64).max  # NULLS LAST tier (int write:
        # int64 max is not float-representable, a np.where would overflow)
        t = pa.table(
            {"src_key": src_key, "src_null": src_null, "len": pa.array(lens, pa.int64())}
        )
        g = t.group_by(["src_key", "src_null", "len"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "src_key": g["src_key"],
                "src_null": g["src_null"],
                "len": g["len"],
                "cnt": g["count_all"].cast(pa.int64()),
            }
        )

    hist = (
        _docs(sf_dir, ["source", "n_chars"])
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["src_key", "src_null", "len"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    ).take_all()  # bounded by distinct (source, length) pairs

    # first-peer rank per (source, len): 1 + count of strictly smaller lens
    by_src: dict = {}
    for r in hist:
        by_src.setdefault((r["src_key"], bool(r["src_null"])), []).append(
            (int(r["len"]), int(r["cnt"]))
        )
    rank_map: dict = {}
    for skey, pairs in by_src.items():
        pairs.sort()
        n = sum(c for _, c in pairs)
        cum = 0
        for ln, c in pairs:
            rank_map[(skey[0], skey[1], ln)] = (
                0.0 if n <= 1 else round(cum / (n - 1), 6)
            )
            cum += c
    import ray

    map_ref = ray.put(rank_map)

    def tag(batch: pa.Table) -> pa.Table:
        rm = ray.get(map_ref)
        src_key, src_null = _null_safe_key(batch["source"])
        isnull = pc.is_null(batch["n_chars"]).to_numpy(zero_copy_only=False).astype(bool)
        lens = np.nan_to_num(
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0,
        ).astype(np.int64)
        lens[isnull] = np.iinfo(np.int64).max  # NULLS LAST tier (int write:
        # int64 max is not float-representable, a np.where would overflow)
        df = pd.DataFrame(
            {
                "sk": src_key.to_numpy(zero_copy_only=False).astype(object),
                "sn": src_null.to_numpy(zero_copy_only=False).astype(bool),
                "len": lens,
            }
        )
        key_df = pd.DataFrame(
            [(sk, sn, ln, pr) for (sk, sn, ln), pr in rm.items()],
            columns=["sk", "sn", "len", "pct_rank"],
        )
        merged = df.merge(key_df, on=["sk", "sn", "len"], how="left")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "n_chars": batch["n_chars"],
                "pct_rank": pa.array(
                    merged["pct_rank"].to_numpy(np.float64), pa.float64()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        tag, batch_format="pyarrow"
    )


def lang_stats_incremental(sf_dir: str) -> "rd.Dataset":
    """``lang_stats`` computed INCREMENTALLY: two independent partial
    aggregations (even / odd doc_id shards — standing for "yesterday's
    materialized state" and "today's delta partition") merged by
    re-aggregating their mergeable states — the materialized-view
    maintenance shape every incremental ETL runs (never re-scan the full
    corpus; combine (count, sum, non-null count) states, derive avg LAST).
    Result is IDENTICAL to the one-shot groupby — proven by sharing
    ``lang_stats``'s SQL oracle, like the salted variant.

    Scale shape: each shard's partial is a ≤ |langs|-row state; the merge
    exchange is 2 × |langs| rows.  At 100 TB the 'shards' are crawl
    snapshots and the states live in the lineage store."""

    def shard_partial(parity: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            t = batch.filter(pa.array(ids % 2 == parity))
            key, isnull = _null_safe_key(t["lang"])
            tt = pa.table(
                {
                    "lang_key": key,
                    "lang_null": isnull,
                    "chars": pc.fill_null(t["n_chars"], 0).cast(pa.int64()),
                    "n_vals": pc.is_valid(t["n_chars"]).cast(pa.int64()),
                }
            )
            g = tt.group_by(["lang_key", "lang_null"]).aggregate(
                [("chars", "sum"), ("n_vals", "sum"), ([], "count_all")]
            )
            return pa.table(
                {
                    "lang_key": g["lang_key"],
                    "lang_null": g["lang_null"],
                    "total_chars": g["chars_sum"].cast(pa.int64()),
                    "n_vals": g["n_vals_sum"].cast(pa.int64()),
                    "n_docs": g["count_all"].cast(pa.int64()),
                }
            )

        return f

    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    state_a = docs.map_batches(shard_partial(0), batch_format="pyarrow")
    state_b = docs.map_batches(shard_partial(1), batch_format="pyarrow")

    def finalize(batch: pa.Table) -> pa.Table:
        nv = batch["n_vals"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = batch["total_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        lang = pc.if_else(
            batch["lang_null"], pa.scalar(None, pa.string()), batch["lang_key"]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = tot / nv
        return pa.table(
            {
                "lang": lang,
                "n_docs": batch["n_docs"],
                "total_chars": pc.if_else(
                    pa.array(nv == 0), pa.scalar(None, pa.int64()),
                    batch["total_chars"],
                ),
                "avg_chars": pa.array(
                    np.where(nv == 0, 0.0, avg), pa.float64(), mask=(nv == 0)
                ),
            }
        )

    return (
        state_a.union(state_b)
        .groupby(["lang_key", "lang_null"])
        .aggregate(
            Sum("total_chars", alias_name="total_chars"),
            Sum("n_vals", alias_name="n_vals"),
            Sum("n_docs", alias_name="n_docs"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def events_weekday_hour_heatmap(sf_dir: str) -> "rd.Dataset":
    """Traffic heatmap: event count per (ISO weekday, hour-of-day) — the
    7×24 load profile behind crawl-rate scheduling and anomaly baselines.
    ISO weekday (Mon=1..Sun=7) and hour are derived with pure epoch
    arithmetic (epoch day 0 = 1970-01-01 = Thursday ⇒ isodow =
    (epoch_day + 3) mod 7 + 1), exactly matching SQL ``isodow``/``hour``;
    NULL timestamps keep one (NULL, NULL) group, as SQL date functions
    propagate NULL.

    Scale shape: map-side vectorized timestamp decode + per-batch Arrow
    group_by pre-aggregation — the exchange carries ≤ 7×24+1 rows per
    batch, the final groupby is constant-cardinality."""
    us_day = np.int64(86_400_000_000)
    us_hour = np.int64(3_600_000_000)

    def partial(batch: pa.Table) -> pa.Table:
        ts64 = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        isnat = np.isnat(ts64)
        ts = ts64.astype(np.int64)
        eday = np.floor_divide(ts, us_day)
        dow = ((eday + 3) % 7 + 1).astype(np.int64)
        hour = np.floor_divide(ts - eday * us_day, us_hour).astype(np.int64)
        dow[isnat] = 0
        hour[isnat] = 0
        t = pa.table(
            {
                "dow": pa.array(dow, pa.int64()),
                "hour": pa.array(hour, pa.int64()),
                "is_null": pa.array(isnat),
            }
        )
        g = t.group_by(["dow", "hour", "is_null"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "dow": g["dow"],
                "hour": g["hour"],
                "is_null": g["is_null"],
                "cnt": g["count_all"].cast(pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        isnull = batch["is_null"].to_numpy(zero_copy_only=False).astype(bool)
        return pa.table(
            {
                "dow": pa.array(
                    batch["dow"].to_numpy(zero_copy_only=False), pa.int64(),
                    mask=isnull,
                ),
                "hour": pa.array(
                    batch["hour"].to_numpy(zero_copy_only=False), pa.int64(),
                    mask=isnull,
                ),
                "cnt": batch["cnt"],
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["dow", "hour", "is_null"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def user_event_type_pivot(sf_dir: str) -> "rd.Dataset":
    """Per-user event-type crosstab: one WIDE row per user with view /
    click / purchase counts and total — the PIVOT (long→wide) shape every
    ML feature-table build runs (SQL expresses it as FILTER aggregates).
    Event types outside the three known columns (and NULL types) count
    only toward ``total_cnt``; NULL user_id is its own row (SQL GROUP BY).

    Scale shape: per-batch Arrow group_by pre-aggregates to one row per
    (user, type) per batch; the keyed exchange then carries partials, and
    the widening happens inside the final per-user fold — the pivot never
    materializes a long table after the combine."""
    KNOWN = ("view", "click", "purchase")

    def partial(batch: pa.Table) -> pa.Table:
        typ = batch["event_type"].combine_chunks()
        code = np.full(len(typ), 3, dtype=np.int64)  # 3 = other/NULL
        for i, k in enumerate(KNOWN):
            hit = pc.fill_null(pc.equal(typ, k), False).to_numpy(
                zero_copy_only=False
            ).astype(bool)
            code[hit] = i
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "code": pa.array(code, pa.int64()),
            }
        )
        g = t.group_by(["user_id", "code"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g["user_id"],
                "code": g["code"],
                "cnt": g["count_all"].cast(pa.int64()),
            }
        )

    def widen(group: pa.Table) -> pa.Table:
        codes = group["code"].to_numpy(zero_copy_only=False)
        cnts = group["cnt"].to_numpy(zero_copy_only=False)
        by = np.bincount(codes, weights=cnts, minlength=4).astype(np.int64)
        return pa.table(
            {
                "user_id": group["user_id"].slice(0, 1),
                "view_cnt": pa.array([int(by[0])], pa.int64()),
                "click_cnt": pa.array([int(by[1])], pa.int64()),
                "purchase_cnt": pa.array([int(by[2])], pa.int64()),
                "total_cnt": pa.array([int(by.sum())], pa.int64()),
            }
        )

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(widen, batch_format="pyarrow")
    )


def chars_tokens_corr(sf_dir: str) -> "rd.Dataset":
    """Pearson correlation between stored ``n_chars`` and computed
    whitespace token count across the corpus — the metadata-sanity audit
    (a stored length column drifting from the text it describes is how
    silent ETL corruption surfaces), and the ``corr`` aggregate shape the
    regression family was missing.  One row: (n_rows, corr) rounded to 6
    decimals = DuckDB ``corr`` (sample covariance over sample stddevs);
    rows where EITHER side is NULL are excluded (SQL pairwise-null rule;
    NULL text counts as '' per the engine-wide convention, so only NULL
    n_chars excludes).  Degenerate variance ⇒ NULL.

    Scale shape: one map pass emits 6 Σ-partial doubles per batch; the
    fold is a single constant-width reduction."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_value_length(_word_lists(batch)).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        chars = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(chars)
        x, y = chars[ok], toks[ok]
        return pa.table(
            {
                "n": pa.array([float(len(x))]),
                "sx": pa.array([float(x.sum())]),
                "sy": pa.array([float(y.sum())]),
                "sxx": pa.array([float((x * x).sum())]),
                "syy": pa.array([float((y * y).sum())]),
                "sxy": pa.array([float((x * y).sum())]),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        n = float(batch["n"].to_numpy().sum())
        sx = float(batch["sx"].to_numpy().sum())
        sy = float(batch["sy"].to_numpy().sum())
        sxx = float(batch["sxx"].to_numpy().sum())
        syy = float(batch["syy"].to_numpy().sum())
        sxy = float(batch["sxy"].to_numpy().sum())
        bad = n < 2
        if not bad:
            vx = sxx - sx * sx / n
            vy = syy - sy * sy / n
            cov = sxy - sx * sy / n
            bad = vx <= 0 or vy <= 0
            r = 0.0 if bad else round(cov / np.sqrt(vx * vy), 6)
        return pa.table(
            {
                "n_rows": pa.array([int(n)], pa.int64()),
                "corr": pa.array([0.0 if bad else r], pa.float64(), mask=[bool(bad)]),
            }
        )

    return (
        _docs(sf_dir, ["text", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(finalize, batch_format="pyarrow")
    )


def value_mad_outliers(sf_dir: str, k: float = 6.0) -> "rd.Dataset":
    """Robust per-type outlier detection via Median Absolute Deviation:
    events whose value deviates from their type's MEDIAN by more than ``k``
    × MAD — the robust alternative to :func:`value_zscore_outliers` (a few
    extreme outliers inflate a z-score's own mean/stddev and mask each
    other; the median/MAD pair is breakdown-resistant, the standard robust
    anomaly gate).  Two grouped medians (value, then |value − median|),
    both `quantile_cont`-interpolation-exact; NULL values never flag (SQL
    comparison semantics); NULL event_type is its own group; a zero-MAD
    type flags only values strictly different from the median.

    Scale shape: two passes over a (type, value) projection — each a
    type-keyed groupby with a vectorized per-group quantile (type
    cardinality is small; at corpus scale the exact median swaps for the
    repo's mergeable quantile digest, same contract as
    ``lang_percentiles_sketch``) — then the broadcast (median, mad) table
    gates one map-only pass."""

    def med(group: pa.Table) -> pa.Table:
        v = group["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.sort(v[~np.isnan(v)])
        if len(v) == 0:
            return pa.table(
                {
                    "type_key": group["type_key"].slice(0, 1),
                    "type_null": group["type_null"].slice(0, 1),
                    "med": pa.array([None], pa.float64()),
                }
            )
        return pa.table(
            {
                "type_key": group["type_key"].slice(0, 1),
                "type_null": group["type_null"].slice(0, 1),
                "med": pa.array([_quantile_cont(v, 0.5)], pa.float64()),
            }
        )

    def keyed(batch: pa.Table) -> pa.Table:
        key, isnull = _null_safe_key(batch["event_type"])
        return pa.table(
            {"type_key": key, "type_null": isnull, "value": batch["value"],
             "event_id": batch["event_id"]}
        )

    src = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    ).map_batches(keyed, batch_format="pyarrow").materialize()
    # ^ materialize: three consumers (median pass, MAD pass, flag pass) reuse
    # the keyed projection from the object store instead of re-reading and
    # re-projecting the events scan per pass.

    med_rows = src.groupby(["type_key", "type_null"]).map_groups(
        med, batch_format="pyarrow"
    ).take_all()  # bounded by event-type cardinality
    med_map = {(r["type_key"], bool(r["type_null"])): r["med"] for r in med_rows}
    import ray

    med_ref = ray.put(med_map)

    def absdev(batch: pa.Table) -> pa.Table:
        mm = ray.get(med_ref)
        keys = batch["type_key"].to_numpy(zero_copy_only=False).astype(object)
        nulls = batch["type_null"].to_numpy(zero_copy_only=False).astype(bool)
        meds = np.array(
            [np.nan if mm.get((k, n)) is None else mm[(k, n)]
             for k, n in zip(keys, nulls)],
            dtype=np.float64,
        )
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "type_key": batch["type_key"],
                "type_null": batch["type_null"],
                "value": pa.array(np.abs(v - meds), pa.float64()),
                "event_id": batch["event_id"],
            }
        )

    mad_rows = (
        src.map_batches(absdev, batch_format="pyarrow")
        .groupby(["type_key", "type_null"])
        .map_groups(med, batch_format="pyarrow")
    ).take_all()
    mad_map = {(r["type_key"], bool(r["type_null"])): r["med"] for r in mad_rows}
    stats_ref = ray.put((med_map, mad_map))

    def flag(batch: pa.Table) -> pa.Table:
        mm, dd = ray.get(stats_ref)
        keys = batch["type_key"].to_numpy(zero_copy_only=False).astype(object)
        nulls = batch["type_null"].to_numpy(zero_copy_only=False).astype(bool)
        meds = np.array(
            [np.nan if mm.get((kk, n)) is None else mm[(kk, n)]
             for kk, n in zip(keys, nulls)],
            dtype=np.float64,
        )
        mads = np.array(
            [np.nan if dd.get((kk, n)) is None else dd[(kk, n)]
             for kk, n in zip(keys, nulls)],
            dtype=np.float64,
        )
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore"):
            out = np.abs(v - meds) > k * mads
        out &= ~np.isnan(v)
        t = batch.filter(pa.array(out))
        meds_t, mads_t = meds[out], mads[out]
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": pc.if_else(
                    t["type_null"], pa.scalar(None, pa.string()), t["type_key"]
                ),
                "value": t["value"],
                "med": pa.array(np.round(meds_t, 6), pa.float64()),
                "mad": pa.array(np.round(mads_t, 6), pa.float64()),
            }
        )

    return src.map_batches(flag, batch_format="pyarrow")


def part_cube_stats(sf_dir: str) -> "rd.Dataset":
    """GROUP BY CUBE(p_brand, size_band) over the part table: part counts
    and exact retail-cent sums at ALL FOUR grouping levels — (brand, band),
    (brand), (band), () — completing the grouping-sets surface next to
    :func:`lang_source_rollup` (ROLLUP omits the (band)-only level; CUBE is
    what OLAP dashboards precompute).  ``size_band`` = p_size // 10 (NULL
    size keeps a NULL band); SQL ``GROUPING()`` ids disambiguate cube NULLs
    from real NULL keys; retail sums follow SQL SUM-NULL semantics through
    every level (a non-null count rides the cascade).

    Scale shape: identical to the ROLLUP kernel — one distributed
    finest-level groupby (catalog-cardinality), three coarser levels
    re-derived inside a single catalog-sized block."""

    def partial(batch: pa.Table) -> pa.Table:
        size = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.float64)
        isnull = np.isnan(size)
        band = np.floor_divide(np.nan_to_num(size, nan=0.0), 10).astype(np.int64)
        brand_key, brand_null = _null_safe_key(batch["p_brand"])
        t = pa.table(
            {
                "brand_key": brand_key,
                "brand_null": brand_null,
                "band": pa.array(band, pa.int64()),
                "band_null": pa.array(isnull),
                "cents": pa.array(
                    np.where(
                        np.isnan(
                            batch["p_retailprice"].to_numpy(zero_copy_only=False)
                            .astype(np.float64)
                        ),
                        0,
                        np.floor(
                            np.nan_to_num(
                                batch["p_retailprice"].to_numpy(zero_copy_only=False)
                                .astype(np.float64)
                            ) * 100.0 + 0.5
                        ),
                    ).astype(np.int64),
                    pa.int64(),
                ),
                "n_priced": pc.is_valid(batch["p_retailprice"]).cast(pa.int64()),
            }
        )
        g = t.group_by(["brand_key", "brand_null", "band", "band_null"]).aggregate(
            [("cents", "sum"), ("n_priced", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "brand_key": g["brand_key"],
                "brand_null": g["brand_null"],
                "band": g["band"],
                "band_null": g["band_null"],
                "cents": g["cents_sum"].cast(pa.int64()),
                "n_priced": g["n_priced_sum"].cast(pa.int64()),
                "n_parts": g["count_all"].cast(pa.int64()),
            }
        )

    def cube(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        finest: dict = {}
        for r in rows:
            kk = (
                None if r["brand_null"] else r["brand_key"],
                None if r["band_null"] else int(r["band"]),
                r["brand_null"], r["band_null"],
            )
            c, p, n = finest.get(kk, (0, 0, 0))
            finest[kk] = (c + r["cents"], p + r["n_priced"], n + r["n_parts"])

        def roll(level):
            out: dict = {}
            for (bk, bd, bkn, bdn), v in finest.items():
                key = (
                    (bk, None, bkn, False) if level == "brand"
                    else (None, bd, False, bdn) if level == "band"
                    else (None, None, False, False)
                )
                c0, p0, n0 = out.get(key, (0, 0, 0))
                out[key] = (c0 + v[0], p0 + v[1], n0 + v[2])
            return out

        def emit(d, g_brand, g_band):
            bks, bds, cs, ps, ns = [], [], [], [], []
            for (bk, bd, _, _), (c, p, n) in d.items():
                bks.append(bk)
                bds.append(bd)
                cs.append(c)
                ps.append(p)
                ns.append(n)
            return pa.table(
                {
                    "p_brand": pa.array(bks, pa.string()),
                    "size_band": pa.array(bds, pa.int64()),
                    "g_brand": pa.array([g_brand] * len(cs), pa.int64()),
                    "g_band": pa.array([g_band] * len(cs), pa.int64()),
                    "n_parts": pa.array(ns, pa.int64()),
                    "retail_cents": pa.array(
                        [c if p > 0 else None for c, p in zip(cs, ps)], pa.int64()
                    ),
                }
            )

        # The empty-input sentinel (n_parts=0) is not a real group at the
        # finest / single-key levels (SQL groups have COUNT(*) >= 1) but its
        # zeros still fold into the always-emitted () grouping-set row.
        grand = roll("all")  # over ALL finest entries, sentinel included
        finest = {k: v for k, v in finest.items() if v[2] > 0}
        return pa.concat_tables(
            [
                emit(finest, 0, 0),
                emit(roll("brand"), 0, 1),
                emit(roll("band"), 1, 0),
                emit(grand, 1, 1),
            ]
        )

    # Zero-count sentinel: keeps the final block non-empty so CUBE over an
    # empty table still emits the () grouping-set row (same pattern as
    # lang_source_rollup); merges as +0 into any real (NULL, NULL) group.
    sentinel = rd.from_arrow(pa.table({
        "brand_key": pa.array([""], pa.string()),
        "brand_null": pa.array([True]),
        "band": pa.array([0], pa.int64()),
        "band_null": pa.array([True]),
        "cents": pa.array([0], pa.int64()),
        "n_priced": pa.array([0], pa.int64()),
        "n_parts": pa.array([0], pa.int64()),
    }))
    return (
        rd.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_brand", "p_size", "p_retailprice"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .union(sentinel)
        .groupby(["brand_key", "brand_null", "band", "band_null"])
        .aggregate(
            Sum("cents", alias_name="cents"),
            Sum("n_priced", alias_name="n_priced"),
            Sum("n_parts", alias_name="n_parts"),
        )
        .repartition(1)
        .map_batches(cube, batch_format="pyarrow")
    )


def langs_in_every_source(sf_dir: str) -> "rd.Dataset":
    """Relational DIVISION: languages that appear in EVERY source — the
    "suppliers who stock all parts" textbook shape (here: the coverage
    audit answering "which languages does every shard contribute?", the
    gate a balanced multi-source mixture checks before fixing per-source
    language quotas).  NULL sources are excluded from the divisor on both
    engines (a NULL shard is not a source); NULL langs can still divide.

    Scale shape: per-batch DISTINCT (lang, source) pairs (vocabulary-of-
    catalogs-sized), one grouped distinct-source count per lang, and the
    divisor cardinality broadcast as ONE driver scalar — no join anywhere."""

    def pairs(batch: pa.Table) -> pa.Table:
        lang_key, lang_null = _null_safe_key(batch["lang"])
        t = pa.table(
            {
                "lang_key": lang_key,
                "lang_null": lang_null,
                "source": batch["source"],
            }
        ).filter(pc.is_valid(batch["source"]))
        g = t.group_by(["lang_key", "lang_null", "source"]).aggregate([([], "count_all")])
        return g.select(["lang_key", "lang_null", "source"])

    distinct_pairs = (
        _docs(sf_dir, ["lang", "source"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "source"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
    ).materialize()
    # ^ materialize: the divisor count and the final grouped count both
    # consume the pair set; without it each consumer re-runs the scan and
    # the distinct-pair shuffle (same pattern as dau_wau_stickiness).

    # divisor: global distinct source count (catalog-sized driver scalar)
    n_sources = len(
        set(
            r["source"]
            for r in distinct_pairs.groupby("source")
            .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
            .select_columns(["source"])
            .take_all()
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["n_sources"], n_sources)
        t = batch.filter(pc.fill_null(keep, False))
        return pa.table(
            {
                "lang": pc.if_else(
                    t["lang_null"], pa.scalar(None, pa.string()), t["lang_key"]
                ),
                "n_sources": t["n_sources"],
            }
        )

    from ray.data.aggregate import Count

    return (
        distinct_pairs.groupby(["lang_key", "lang_null"])
        .aggregate(Count(alias_name="n_sources"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def daily_top_spenders(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Per-day top-``k`` users by exact cent spend — grouped top-k over a
    DERIVED calendar key (the daily-leaderboard shape: ``row_number() OVER
    (PARTITION BY day ORDER BY cents DESC, user_id)`` ≤ k).  Ties break by
    user_id ASC; NULL-timestamp events form their own "day" (SQL GROUP BY
    over a NULL date), NULL users aggregate as one user per SQL GROUP BY
    and can place; NULL values add no cents (SQL sum) — a (day, user)
    whose spend sum is NULL ranks after every real sum (ORDER BY cents
    DESC NULLS LAST).

    Scale shape: per-batch (day, user) cent partials, one keyed exchange,
    then a per-batch partial top-k cut and a ≤ days-cardinality final
    argsort — the ``top_docs_per_lang`` pattern on a derived key."""
    us_day = np.int64(86_400_000_000)

    def partial(batch: pa.Table) -> pa.Table:
        ts64 = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        isnat = np.isnat(ts64)
        day = np.floor_divide(ts64.astype(np.int64), us_day)
        day[isnat] = 0
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.float64)
        unull = np.isnan(uid)
        uid64 = np.nan_to_num(uid, nan=0.0).astype(np.int64)
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        has_v = ~np.isnan(v)
        cents = np.where(has_v, np.floor(np.nan_to_num(v) * 100.0 + 0.5), 0).astype(
            np.int64
        )
        t = pa.table(
            {
                "day": pa.array(day, pa.int64()),
                "day_null": pa.array(isnat),
                "uid": pa.array(uid64, pa.int64()),
                "uid_null": pa.array(unull),
                "cents": pa.array(cents, pa.int64()),
                "n_val": pa.array(has_v.astype(np.int64), pa.int64()),
            }
        )
        return (
            t.group_by(["day", "day_null", "uid", "uid_null"])
            .aggregate([("cents", "sum"), ("n_val", "sum")])
            .rename_columns(
                ["day", "day_null", "uid", "uid_null", "cents", "n_val"]
            )
        )

    def cut(batch: pa.Table) -> pa.Table:
        # partial top-k per (day) inside the block: NULL sums last, then
        # cents desc, then (uid_null, uid) asc — SQL's full ordering
        df = batch.to_pandas()
        df["sum_null"] = df["n_val"] == 0
        df = df.sort_values(
            ["day", "day_null", "sum_null", "cents", "uid_null", "uid"],
            ascending=[True, True, True, False, True, True],
        )
        df = df.groupby(["day", "day_null"], dropna=False).head(k)
        return pa.Table.from_pandas(
            df[["day", "day_null", "uid", "uid_null", "cents", "n_val"]],
            preserve_index=False,
        )

    def finalize(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        df["sum_null"] = df["n_val"] == 0
        df = df.sort_values(
            ["sum_null", "cents", "uid_null", "uid"],
            ascending=[True, False, True, True],
        ).head(k)
        day = df["day"].to_numpy()
        epoch = np.datetime64("1970-01-01", "us")
        days = (epoch + day * np.timedelta64(86_400_000_000, "us"))
        return pa.table(
            {
                "day": pa.array(days, pa.timestamp("us"), mask=df["day_null"].to_numpy()),
                "user_id": pa.array(
                    df["uid"].to_numpy(), pa.int64(), mask=df["uid_null"].to_numpy()
                ),
                "cents": pa.array(
                    df["cents"].to_numpy(), pa.int64(),
                    mask=df["sum_null"].to_numpy(),
                ),
                "rank": pa.array(np.arange(1, len(df) + 1), pa.int64()),
            }
        )

    return (
        rd.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "day_null", "uid", "uid_null"])
        .aggregate(Sum("cents", alias_name="cents"), Sum("n_val", alias_name="n_val"))
        .map_batches(cut, batch_format="pyarrow")
        .groupby(["day", "day_null"])
        .map_groups(finalize, batch_format="pyarrow")
    )


def user_metrics_long(sf_dir: str) -> "rd.Dataset":
    """UNPIVOT — the wide→long inverse of :func:`user_event_type_pivot`:
    each user's (view/click/purchase) counts re-emitted as (user_id,
    metric, cnt) rows — the normalization step that feeds wide feature
    tables back into long-format stores (SQL ``UNPIVOT`` /
    ``UNION ALL`` of per-column projections).  Zero-count metrics are kept
    (SQL UNPIVOT INCLUDE NULLS analogue: the wide table's explicit zeros
    survive), so the output is exactly 3 rows per user.

    Scale shape: the pivot's exchange plus a map-only 3× fan-out — the
    widening and the melt never co-materialize more than a batch."""
    wide = user_event_type_pivot(sf_dir)

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        uids = pa.concat_arrays([batch["user_id"].combine_chunks()] * 3)
        metric = pa.array(
            ["view_cnt"] * n + ["click_cnt"] * n + ["purchase_cnt"] * n,
            pa.string(),
        )
        cnt = pa.concat_arrays(
            [
                batch["view_cnt"].combine_chunks(),
                batch["click_cnt"].combine_chunks(),
                batch["purchase_cnt"].combine_chunks(),
            ]
        )
        return pa.table({"user_id": uids, "metric": metric, "cnt": cnt})

    return wide.map_batches(melt, batch_format="pyarrow")


def domain_triangles(sf_dir: str, n_domains: int = 40) -> "rd.Dataset":
    """Triangle count over the undirected outlink-domain graph — the
    clustering-coefficient numerator (link-farm rings and mirror clusters
    show up as dense triangles; spam-graph audits lead with this number).
    Each doc contributes TWO edges (``doc_id %% 40 → (doc_id*7+3) %% 40``,
    the :func:`domain_pagerank` convention, plus ``doc_id %% 40 →
    (doc_id // 7) %% 40`` — a single affine outlink map makes a functional,
    triangle-free graph; the floor-div map breaks the residue structure),
    undirected and deduped, self loops dropped; each triangle u<v<w counts
    ONCE.

    Scale shape: the corpus-sized work is the distinct-edge combiner
    (per-batch unique (src, dst) pairs → one groupby); the triangle
    enumeration then runs on the BOUNDED domain graph inside one block via
    sorted-adjacency intersection — the PageRank kernel's bounded-graph
    precedent.  At web scale (10^8 domains) the same count runs as the
    node-iterator join sequence (e1 ⋈ e2 on shared lowest-degree vertex →
    closing-edge hash probe), each step a keyed exchange over edges."""

    def edge_partial(batch: pa.Table) -> pa.Table:
        did = _one_chunk(batch["doc_id"]).to_numpy(zero_copy_only=False)
        did = did[~np.isnan(did.astype(np.float64))].astype(np.int64)
        a = np.concatenate([did % n_domains, did % n_domains])
        b = np.concatenate(
            [(did * 7 + 3) % n_domains, np.floor_divide(did, 7) % n_domains]
        )
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v
        u, v = u[keep], v[keep]
        uk = np.unique(u * n_domains + v)
        return pa.table(
            {
                "u": pa.array((uk // n_domains).astype(np.int64), pa.int64()),
                "v": pa.array((uk % n_domains).astype(np.int64), pa.int64()),
            }
        )

    def count_triangles(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        n_edges = len(u)
        nodes = np.unique(np.concatenate([u, v])) if n_edges else np.zeros(0, np.int64)
        # forward adjacency (u < v): for each edge (u,v), triangles through
        # it = |adj[u] ∩ adj[v]| restricted to w > v
        adj: dict = {}
        for a, b in zip(u, v):
            adj.setdefault(int(a), []).append(int(b))
        tri = 0
        for a, b in zip(u, v):
            bs = adj.get(int(b))
            if not bs:
                continue
            sa = adj[int(a)]
            tri += len(set(sa) & set(bs))
        return pa.table(
            {
                "n_triangles": pa.array([tri], pa.int64()),
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_nodes": pa.array([len(nodes)], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id"])
        .map_batches(edge_partial, batch_format="pyarrow")
        .groupby(["u", "v"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
        .repartition(1)
        .map_batches(count_triangles, batch_format="pyarrow")
    )


def top_user_paths(sf_dir: str, k: int = 10, max_steps: int = 8) -> "rd.Dataset":
    """Top-``k`` user journey paths: each user's time-ordered event-type
    sequence (first ``max_steps`` steps), counted across users — the
    whole-sequence journey-mining report (:func:`event_type_transitions`
    counts Markov PAIRS; this ranks complete paths, the Sankey-diagram
    input).  Ordering is (ts NULLS LAST, event_id); NULL types render as
    ``∅`` inside the path string (a visible token, since SQL
    ``string_agg`` would silently drop them — the oracle coalesces
    identically); ties in the ranking break path-ASC.

    Scale shape: one shuffle on user_id (the event family's key), one
    vectorized per-group path build, then the path-frequency combiner —
    per-batch ``value_counts`` partials through a path-keyed groupby, with
    the bounded ``sort().limit()`` head cut (paths are capped at
    ``max_steps`` tokens, so the exchange carries short strings)."""

    def build_path(group: pa.Table) -> pa.Table:
        ts64 = group["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        key = ts64.astype(np.int64).copy()
        key[np.isnat(ts64)] = np.iinfo(np.int64).max
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, key))[:max_steps]
        typ = group["event_type"].take(pa.array(order, pa.int64()))
        toks = ["∅" if t is None else t for t in typ.to_pylist()]
        return pa.table({"path": pa.array([" > ".join(toks)], pa.string())})

    def count_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(_one_chunk(batch["path"].combine_chunks()))
        return pa.table(
            {"path": vc.field("values"), "n_users": vc.field("counts").cast(pa.int64())}
        )

    from language_identification_ray.pipelines.relational import _group_spread

    return (
        _group_spread(
            rd.read_parquet(
                f"{sf_dir}/events.parquet",
                columns=["event_id", "user_id", "ts", "event_type"],
            )
        )
        .groupby("user_id")
        .map_groups(build_path, batch_format="pyarrow")
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("path")
        .aggregate(Sum("n_users", alias_name="n_users"))
        .sort(["n_users", "path"], descending=[True, False])
        .limit(k)
    )


def dau_wau_stickiness(sf_dir: str, window_days: int = 7) -> "rd.Dataset":
    """DAU/WAU stickiness per day: daily active users over trailing-window
    active users — THE product-analytics engagement ratio (a corpus-ops
    reading: what share of this week's contributing sources/users showed up
    today).  Composes the two distinct-counting shapes the catalog already
    carries — per-day DISTINCT (``events_hourly_distinct_users``) and
    trailing-window fan-out dedup (``rolling_active_users``) — into one
    report: ``(day, dau, wau, stickiness)`` with the ratio rounded to 6
    decimals.  NULL ts / NULL user rows are excluded on both engines (they
    can join no window; COUNT(DISTINCT) ignores NULLs); only observed days
    report.

    Scale shape: raw events collapse to distinct (day, user) pairs ONCE
    (per-batch unique → one keyed groupby, materialized and reused by both
    branches); the DAU branch is a day-keyed count, the WAU branch fans
    pairs to ≤ ``window_days`` window-end days and dedups; the final join
    runs inside one calendar-bounded block."""
    DAY_US = 86_400_000_000

    def pair_partial(batch: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["user_id"]))
        t = batch.filter(ok)
        d = (
            pc.floor_temporal(t["ts"], unit="day")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        u = t["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dd, uu = _unique_pairs(d.astype(np.int64), u.astype(np.int64))
        return pa.table(
            {"day": pa.array(dd, pa.int64()), "user": pa.array(uu, pa.int64())}
        )

    pairs = (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["day", "user"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
        .materialize()
    )

    observed = np.unique(
        np.array([r["day"] for r in pairs.select_columns(["day"]).take_all()],
                 dtype=np.int64)
    )  # calendar-bounded
    import ray

    obs_ref = ray.put(observed)

    def dau_rows(batch: pa.Table) -> pa.Table:
        t = pa.table({"day": batch["day"], "one": pa.array([1] * batch.num_rows, pa.int64())})
        g = t.group_by(["day"]).aggregate([("one", "sum")])
        return pa.table(
            {
                "day": g["day"],
                "user": pa.array(np.full(g.num_rows, -1, np.int64)),
                "n": g["one_sum"].cast(pa.int64()),
                "is_wau": pa.array(np.zeros(g.num_rows, dtype=bool)),
            }
        )

    def wau_fanout(batch: pa.Table) -> pa.Table:
        obs = ray.get(obs_ref)
        d = batch["day"].to_numpy(zero_copy_only=False)
        u = batch["user"].to_numpy(zero_copy_only=False)
        ends = (d[:, None] + np.arange(window_days, dtype=np.int64)[None, :] * DAY_US).ravel()
        users = np.repeat(u, window_days)
        keep = np.isin(ends, obs)
        ends, users = ends[keep], users[keep]
        ee, uu = _unique_pairs(ends, users)
        return pa.table(
            {
                "day": pa.array(ee, pa.int64()),
                "user": pa.array(uu, pa.int64()),
                "n": pa.array(np.ones(len(ee), np.int64)),
                "is_wau": pa.array(np.ones(len(ee), dtype=bool)),
            }
        )

    def wau_count(group: pa.Table) -> pa.Table:
        # distinct (window-end day, user) rows for one day → wau
        u = np.unique(group["user"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "day": group["day"].slice(0, 1),
                "user": pa.array([-1], pa.int64()),
                "n": pa.array([len(u)], pa.int64()),
                "is_wau": pa.array([True]),
            }
        )

    wau = (
        pairs.map_batches(wau_fanout, batch_format="pyarrow")
        .groupby("day")
        .map_groups(wau_count, batch_format="pyarrow")
    )
    dau = pairs.map_batches(dau_rows, batch_format="pyarrow").groupby("day").aggregate(
        Sum("n", alias_name="n")
    ).map_batches(
        lambda b: pa.table(
            {
                "day": b["day"],
                "user": pa.array(np.full(b.num_rows, -1, np.int64)),
                "n": b["n"],
                "is_wau": pa.array(np.zeros(b.num_rows, dtype=bool)),
            }
        ),
        batch_format="pyarrow",
    )

    def finalize(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df[~df["is_wau"]][["day", "n"]].rename(columns={"n": "dau"})
        w = df[df["is_wau"]][["day", "n"]].rename(columns={"n": "wau"})
        m = d.merge(w, on="day", how="inner")
        epoch = np.datetime64("1970-01-01", "us")
        return pa.table(
            {
                "day": pa.array(
                    epoch + m["day"].to_numpy() * np.timedelta64(1, "us"),
                    pa.timestamp("us"),
                ),
                "dau": pa.array(m["dau"].to_numpy(), pa.int64()),
                "wau": pa.array(m["wau"].to_numpy(), pa.int64()),
                "stickiness": pa.array(
                    np.round(m["dau"].to_numpy() / m["wau"].to_numpy(), 6),
                    pa.float64(),
                ),
            }
        )

    return dau.union(wau).repartition(1).map_batches(finalize, batch_format="pyarrow")


def source_mix_entropy(sf_dir: str) -> "rd.Dataset":
    """Per-language source-mix Shannon entropy (nats) — the diversity audit
    behind mixture rebalancing: a language whose docs come from one source
    has entropy 0 (and a single takedown or license change wipes it); a
    uniform K-source mix scores ln K.  Emits ``(lang, n_sources,
    n_docs, entropy)`` rounded to 6 decimals; NULL sources form their own
    mix component (they are still a provenance bucket), NULL langs their
    own group.

    Scale shape: one (lang, source) count combiner (per-batch Arrow
    group_by partials → one catalog-cardinality groupby), then the entropy
    folds per lang inside the grouped finalize — nothing bigger than the
    lang×source catalog moves."""

    def partial(batch: pa.Table) -> pa.Table:
        lang_key, lang_null = _null_safe_key(batch["lang"])
        src_key, src_null = _null_safe_key(batch["source"])
        t = pa.table(
            {
                "lang_key": lang_key,
                "lang_null": lang_null,
                "src_key": src_key,
                "src_null": src_null,
            }
        )
        g = t.group_by(["lang_key", "lang_null", "src_key", "src_null"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "lang_key": g["lang_key"],
                "lang_null": g["lang_null"],
                "src_key": g["src_key"],
                "src_null": g["src_null"],
                "cnt": g["count_all"].cast(pa.int64()),
            }
        )

    def entropy(group: pa.Table) -> pa.Table:
        c = group["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = c.sum()
        p = c / n
        h = float(-(p * np.log(p)).sum())
        lang = group["lang_key"][0].as_py()
        return pa.table(
            {
                "lang": pa.array(
                    [None if group["lang_null"][0].as_py() else lang], pa.string()
                ),
                "n_sources": pa.array([group.num_rows], pa.int64()),
                "n_docs": pa.array([int(n)], pa.int64()),
                "entropy": pa.array([round(h, 6)], pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["lang", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang_key", "lang_null", "src_key", "src_null"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .groupby(["lang_key", "lang_null"])
        .map_groups(entropy, batch_format="pyarrow")
    )


def _es_local_top_k(ids: np.ndarray, key: np.ndarray, k: int) -> np.ndarray:
    """Indices of the first ``k`` rows in ``(key DESC, id ASC)`` order — the
    order of the final sort and the oracle, so a tie at the cut keeps the
    same doc_id on both engines."""
    return np.lexsort((ids, -key))[:k]


def weighted_sample_docs(sf_dir: str, k: int = 100) -> "rd.Dataset":
    """Weighted sampling WITHOUT replacement at corpus scale — the
    Efraimidis–Spirtes A-ES reservoir (each item ranked by
    ``u^(1/weight)``, top-``k`` kept; here equivalently ``ln(u)/weight``),
    the primitive behind quality-weighted training-data selection (sample
    documents proportional to a quality/length weight, exactly once).
    The randomness is a DETERMINISTIC per-document md5 hash (the
    ``train_val_test_split`` convention), so the sample is reproducible
    run-to-run AND SQL-expressible — the oracle computes the identical
    keys and the driver hash-checks the selected set.  Weight =
    ``max(n_chars, 1)`` (NULL → 1); NULL doc_ids are excluded (no hashable
    identity) on both engines.

    Scale shape: map-only per-batch key computation with a LOCAL top-``k``
    prefilter (:func:`_es_local_top_k`), then one ``k``-bounded global sort — the
    exchange moves at most ``k`` rows per batch, never the corpus."""
    import hashlib

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["doc_id"]))
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        chars = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.maximum(np.nan_to_num(chars, nan=1.0), 1.0)
        v = np.fromiter(
            (int(hashlib.md5(str(int(i)).encode()).hexdigest()[:8], 16)
             for i in ids),
            dtype=np.int64, count=len(ids),
        )
        u = (v + 1) / 4294967297.0  # (0, 1]
        key = np.log(u) / w
        if len(key) > k:  # local prefilter: only k candidates can survive
            top = _es_local_top_k(ids, key, k)
            ids, w, key = ids[top], w[top], key[top]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "weight": pa.array(w.astype(np.int64), pa.int64()),
                "es_key": pa.array(key, pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .sort(["es_key", "doc_id"], descending=[True, False])
        .limit(k)
        .map_batches(
            lambda t: t.select(["doc_id", "weight"]), batch_format="pyarrow"
        )
    )


def bpe_train(
    sf_dir: str,
    n_merges: int = 50,
    top_vocab: int = 50000,
    max_word: int = 64,
) -> "pa.Table":
    """Full iterative BPE merge-table training (Sennrich et al. 2016) —
    the loop whose single step :func:`bpe_pair_counts` exposes.  Emits the
    learned merge table (rank, left, right, token, cnt): the artifact a
    tokenizer ships.

    Scale shape — the standard distributed-BPE split: the CORPUS-scale
    work is one word-frequency combiner cascade (per-batch value_counts →
    one vocabulary-keyed groupby, the ``word_freq_top100`` shape) plus a
    ``top_vocab``-bounded sort; the merge loop then runs DRIVER-SIDE over
    that bounded (word, freq) table — exactly how production tokenizer
    trainers work (count distributed once, merge locally), because each
    of the ``n_merges`` iterations touches only the vocabulary, never the
    corpus.  Words are truncated to ``max_word`` chars (crawl-pathology
    guard, same as ``bpe_pair_counts``); pair counting includes
    overlapping occurrences (count stage) while application is greedy
    leftmost (standard).  Ties break by (count desc, left asc, right asc)
    — fully deterministic.  No SQL oracle (iterative); the first learned
    merge is pinned against ``bpe_pair_counts``'s top pair and the loop
    against a hand-checkable fixture in pytest."""

    def word_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(_one_chunk(_word_lists(batch).flatten()))
        return pa.table(
            {"word": vc.field("values"), "f": vc.field("counts").cast(pa.int64())}
        )

    rows = (
        _docs(sf_dir, ["text"])
        .map_batches(word_partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("f", alias_name="f"))
        .sort(["f", "word"], descending=[True, False])
        .limit(top_vocab)
        .take_all()  # bounded: top_vocab rows
    )
    words = [tuple(r["word"][:max_word]) for r in rows if r["word"]]
    freqs = [int(r["f"]) for r in rows if r["word"]]

    out_rank, out_left, out_right, out_tok, out_cnt = [], [], [], [], []
    for rank in range(n_merges):
        counts: dict = {}
        for syms, f in zip(words, freqs):
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + f
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), cnt = best
        merged = a + b
        new_words = []
        for syms in words:
            if len(syms) < 2:
                new_words.append(syms)
                continue
            out = []
            i = 0
            n = len(syms)
            while i < n:
                if i < n - 1 and syms[i] == a and syms[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_words.append(tuple(out))
        words = new_words
        out_rank.append(rank)
        out_left.append(a)
        out_right.append(b)
        out_tok.append(merged)
        out_cnt.append(cnt)

    return pa.table(
        {
            "rank": pa.array(out_rank, pa.int64()),
            "left": pa.array(out_left, pa.string()),
            "right": pa.array(out_right, pa.string()),
            "token": pa.array(out_tok, pa.string()),
            "cnt": pa.array(out_cnt, pa.int64()),
        }
    )


class BpeEncoder:
    """Actor-pool stage applying a learned BPE merge table: per batch, the
    distinct words are encoded once (memoized across batches — web text
    repeats its vocabulary heavily) by standard best-rank-first merging,
    and per-document token counts come from the words' counts.  The merge
    table ships once per actor via the constructor (broadcast pattern);
    state lives in ``__init__`` per the actor-pool contract."""

    def __init__(self, merges):
        # merges: list of (left, right) in rank order
        self.ranks = {pair: i for i, pair in enumerate(merges)}
        self._cache: dict = {}

    def encode_len(self, word: str) -> int:
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        syms = list(word)
        ranks = self.ranks
        while len(syms) > 1:
            best_i, best_r = -1, None
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best_r is None or r < best_r):
                    best_i, best_r = i, r
            if best_r is None:
                break
            syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
        n = len(syms)
        if len(self._cache) < 1 << 20:
            self._cache[word] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        vc = pc.value_counts(flat)
        uniq = vc.field("values").to_pylist()
        lens = np.asarray([self.encode_len(w) for w in uniq], dtype=np.int64)
        cnt_map = dict(zip(uniq, lens))
        # per-doc token totals from the per-doc word lists; offsets are
        # rebased so a sliced ListArray (flatten() returns the slice's
        # values, raw offsets keep their absolute base) still aligns
        offsets = words.offsets.to_numpy(zero_copy_only=False)
        offsets = offsets - offsets[0]
        per_word = np.asarray(
            [cnt_map[w] for w in flat.to_pylist()], dtype=np.int64
        )
        totals = np.add.reduceat(
            np.r_[per_word, 0], offsets[:-1]
        ) if len(per_word) else np.zeros(len(offsets) - 1, dtype=np.int64)
        totals = np.where(np.diff(offsets) == 0, 0, totals)
        lang_key, lang_null = _null_safe_key(batch["lang"])
        return pa.table(
            {
                "lang_key": lang_key,
                "lang_null": lang_null,
                "n_tokens": pa.array(totals.astype(np.int64), pa.int64()),
                "n_docs": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            }
        )


def bpe_token_counts(sf_dir: str, n_merges: int = 20) -> "rd.Dataset":
    """Train-then-apply BPE round trip: learn ``n_merges`` merges with
    :func:`bpe_train`, then encode every document with an actor-pool
    :class:`BpeEncoder` and roll up exact BPE token counts per language —
    the end-to-end tokenizer-budget audit (how many tokens does each
    language contribute under THIS tokenizer?).

    Scale shape: training as in ``bpe_train``; the merge table (a few
    hundred pairs) ships to each encoder actor once via the constructor;
    encoding is per-DISTINCT-word, memoized across batches; the rollup is
    a |langs|-bounded groupby over per-batch partials.  Rows-only
    (iterative training + procedural encode); determinism pinned in
    pytest."""
    merges_tbl = bpe_train(sf_dir, n_merges=n_merges)
    merges = list(zip(merges_tbl["left"].to_pylist(),
                      merges_tbl["right"].to_pylist()))

    return (
        _docs(sf_dir, ["text", "lang"])
        .map_batches(
            BpeEncoder,
            batch_format="pyarrow",
            batch_size=1024,
            concurrency=2,
            fn_constructor_args=(merges,),
        )
        .groupby(["lang_key", "lang_null"])
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_docs", alias_name="n_docs"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "lang": pc.if_else(
                        t["lang_null"], pa.scalar(None, pa.string()), t["lang_key"]
                    ),
                    "n_tokens": t["n_tokens"].cast(pa.int64()),
                    "n_docs": t["n_docs"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def source_vocab_overlap_kmv(sf_dir: str, k: int = 1024) -> "pa.Table":
    """Sketched vocabulary-overlap matrix: pairwise Jaccard between each
    source's word vocabulary, estimated from mergeable KMV (bottom-k)
    sketches — the 100 TB companion of the exact
    :func:`source_vocab_overlap` (whose per-pair machinery needs the full
    vocabulary per source; KMV ships exactly ``k`` hashes per source,
    supports union algebra, and is EXACT for a pair whenever the UNION of
    the two vocabularies is under ``k`` — individually small sketches
    whose union exceeds ``k`` still only estimate).  Deterministic
    (hashes via the pandas siphash, the engine-stable convention).

    Scale shape: per-batch distinct (source, word) pairs collapse to
    per-source bottom-``k`` partials (one ``k``-long row per source per
    batch); ONE source-keyed groupby merges them; the pairwise matrix is
    computed driver-side over the |sources|-bounded sketch set.
    Rows-only (estimation); accuracy + exact-regime equality gated in
    pytest."""
    from language_identification_ray.functions.sketches import (
        kmv_from_hashes, kmv_jaccard, kmv_merge, kmv_estimate,
    )

    def partial(batch: pa.Table) -> pa.Table:
        words = _word_lists(batch)
        flat = _one_chunk(words.flatten())
        counts = np.diff(words.offsets.to_numpy(zero_copy_only=False))
        src = batch["source"].to_numpy(zero_copy_only=False)
        src_rep = np.repeat(src, counts)
        valid = pd.notna(src_rep)
        if not valid.any():
            return pa.table({
                "source": pa.array([], pa.string()),
                "sketch": pa.array([], pa.list_(pa.uint64())),
            })
        # hash the batch DICTIONARY once (vocabulary-sized), not every
        # token occurrence, then gather per occurrence via the codes
        d = flat.dictionary_encode()
        dict_h = pd.util.hash_array(
            np.asarray(d.dictionary.to_pylist(), dtype=object)
        )
        h = dict_h[d.indices.to_numpy(zero_copy_only=False)][valid]
        src_rep = src_rep[valid]
        # one sort groups the stream by source: per-source slices in
        # O(n log n) instead of a boolean scan per source
        scodes, sinv = np.unique(src_rep.astype(str), return_inverse=True)
        order = np.argsort(sinv, kind="stable")
        h_sorted, sinv_sorted = h[order], sinv[order]
        bounds = np.searchsorted(sinv_sorted, np.arange(len(scodes) + 1))
        out_src, out_sk = [], []
        for si, s in enumerate(scodes):
            out_src.append(str(s))
            out_sk.append(
                kmv_from_hashes(h_sorted[bounds[si]:bounds[si + 1]], k)
            )
        return pa.table({
            "source": pa.array(out_src, pa.string()),
            "sketch": pa.array([sk.tolist() for sk in out_sk],
                               pa.list_(pa.uint64())),
        })

    def merge(group: pa.Table) -> pa.Table:
        sk = np.asarray([], dtype=np.uint64)
        for row in group["sketch"].to_pylist():
            sk = kmv_merge(sk, np.asarray(row, dtype=np.uint64), k)
        return pa.table({
            "source": group["source"].slice(0, 1),
            "sketch": pa.array([sk.tolist()], pa.list_(pa.uint64())),
        })

    rows = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(merge, batch_format="pyarrow")
        .take_all()  # bounded by source cardinality
    )
    sketches = {
        r["source"]: np.asarray(r["sketch"], dtype=np.uint64) for r in rows
    }
    srcs = sorted(sketches)
    est = {s_: round(kmv_estimate(sketches[s_], k), 1) for s_ in srcs}
    a_col, b_col, j_col, da_col, db_col = [], [], [], [], []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            a_col.append(a)
            b_col.append(b)
            j_col.append(round(kmv_jaccard(sketches[a], sketches[b], k), 6))
            da_col.append(est[a])
            db_col.append(est[b])
    return pa.table({
        "src_a": pa.array(a_col, pa.string()),
        "src_b": pa.array(b_col, pa.string()),
        "jaccard_est": pa.array(j_col, pa.float64()),
        "distinct_a_est": pa.array(da_col, pa.float64()),
        "distinct_b_est": pa.array(db_col, pa.float64()),
    })
