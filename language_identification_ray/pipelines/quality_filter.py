"""The flagship pipeline: langid + quality filter + PII scrub over pages.

Topology (all lazy; Ray's streaming executor pipelines the stages):

    pages (url, warc_ts, html, text, lang)
      → map_batches(QualityFilterStage, actor pool)  # ONE fused pool stage:
          decode/extract → langid → quality stats → [perplexity]
          → scrub → keep/drop rules → select output schema
    (read tasks stay pure I/O; every CPU-heavy step runs at pool width —
     a separate decode task stage could only use the CPUs the pool does
     not reserve and capped the stream at node-sized pools)

Output schema per BASELINE.md: (url, lang, lang_conf, perplexity, keep,
drop_reason, scrubbed_text, q_* stats, pii_* counts).  Shuffle-free on the
keep/drop path; the only wide op is the optional salted partitioned write
(`write_partitioned`) for language-balanced output layout + resume manifest.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

import ray.data as rd

from language_identification_ray.sources.pages import read_pages, synthesize_pages
from language_identification_ray.stages.decode import decode_extract_batch
from language_identification_ray.stages.langid import LangIdStage, set_or_append
from language_identification_ray.stages.quality import QualityStats
from language_identification_ray.stages.rules import KeepDropRules
from language_identification_ray.stages.scrub import Scrubber

OUTPUT_COLUMNS = [
    "url",
    "lang",
    "lang_conf",
    "perplexity",
    "keep",
    "drop_reason",
    "scrubbed_text",
    "q_n_words",
    "q_n_chars",
    "q_n_sentences",
    "q_mean_word_len",
    "q_symbol_word_ratio",
    "q_digit_ratio",
    "q_stopword_hits",
    "q_stopword_ratio",
    "q_max_line_frac",
    "q_dup_ngram_frac",
    "pii_emails",
    "pii_phones",
    "pii_ssns",
    "pii_slurs",
]


class QualityFilterStage:
    """ONE actor-pool stage running the whole per-document hot path:
    langid → quality stats → [perplexity] → scrub → keep/drop rules.

    Why fused: an actor pool RESERVES its CPUs; splitting the hot path into
    an actor stage + downstream task stages lets the pool starve the task
    stages (measured on 32 CPUs: a 28-actor langid pool left the
    quality/scrub task stage running at parallelism ≈ 1 and the pipeline
    anti-scaled 8→32).  With a single pool the full cluster width works on
    the one fused operator and stage boundaries cost nothing.  The modular
    per-stage classes remain for à-la-carte pipelines.
    """

    def __init__(
        self,
        language_codes: Optional[Sequence[str]] = None,
        with_perplexity: bool = False,
        perplexity_per_language: bool = False,
        detector: str = "ensemble",
    ):
        from language_identification_ray.perf import tune_malloc

        tune_malloc()  # once per worker: reuse heap pages (see perf.py)
        # detector="fasttext" runs real fastText-format inference (the
        # north-star hot path: lid.176 via $FASTTEXT_LID_MODEL, else the
        # vendored in-repo model) — warm-loaded once per actor
        self.langid = LangIdStage(language_codes=language_codes, detector=detector)
        self.quality = QualityStats()
        self.scrub = Scrubber()
        self.rules = KeepDropRules()
        self.ppl = None
        if with_perplexity:
            from language_identification_ray.stages.perplexity import PerplexityScorer

            self.ppl = PerplexityScorer(per_language=perplexity_per_language)
        cols = [c for c in OUTPUT_COLUMNS if with_perplexity or c != "perplexity"]
        self.cols = cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        # decode/extract runs INSIDE the pool too (idempotent on already-
        # decoded input): as a separate task stage it could only use the
        # CPUs the pool does not reserve — measured at 32 CPUs / 30 actors,
        # ~51 s of extraction compute squeezed through 2 CPUs and capped the
        # whole pipeline; in-pool it adds ~30 ms to a ~150 ms batch and
        # scales with pool width.  Read tasks stay pure I/O.
        # the resumable runner tags rows with their source file; carry that
        # tag through untouched so its final stage can route rows by group
        path = batch["path"] if "path" in batch.schema.names else None
        batch = decode_extract_batch(batch)
        # materialize the text column ONCE for the whole fused chain — each
        # stage otherwise re-converts Arrow→Python strings (4× the memory
        # traffic; memory bandwidth is the scaling limiter at pool width).
        # Ditto the utf-32 codepoint buffer: ONE BatchTokens serves both the
        # quality stats and the scrub gates (langid encodes separately — it
        # scores max_chars-truncated text, a different buffer by contract).
        from language_identification_ray.functions.tokenizer import BatchTokens

        texts = [t or "" for t in batch["text"].to_pylist()]
        bt = BatchTokens(texts)
        batch = self.langid(batch, texts=texts)
        batch = self.quality(batch, texts=texts, bt=bt)
        if self.ppl is not None:
            batch = self.ppl(batch, texts=texts)
        batch = self.scrub(batch, texts=texts, bt=bt)
        batch = self.rules(batch)
        batch = batch.select([c for c in self.cols if c in batch.schema.names])
        return batch if path is None else batch.append_column("path", path)


def build(
    pages: "rd.Dataset",
    language_codes: Optional[Sequence[str]] = None,
    langid_concurrency=(2, 8),
    batch_size: int = 1024,
    with_perplexity: bool = False,
    perplexity_per_language: bool = False,
    detector: str = "ensemble",
) -> "rd.Dataset":
    """Compose the flagship pipeline over a pages Dataset (lazy).

    ``langid_concurrency`` is the (min, max) autoscaling actor-pool size for
    the fused hot-path stage; (2, 8) keeps small runs light while letting
    the pool grow to the node.  Size to cluster CPUs minus I/O headroom at
    scale — the pool is the only CPU-heavy operator, so it can take nearly
    the whole node.  Decode/extract is fused INTO the pool stage (see
    QualityFilterStage.__call__) — as a task stage it could only use the
    non-reserved CPUs and bottlenecked the stream at pool widths near the
    node size."""
    return pages.map_batches(
        QualityFilterStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=langid_concurrency,
        fn_constructor_kwargs={
            "language_codes": list(language_codes) if language_codes else None,
            "with_perplexity": with_perplexity,
            "perplexity_per_language": perplexity_per_language,
            "detector": detector,
        },
    )


def run(sf_dir: str, **kwargs) -> "rd.Dataset":
    """Synthesized pages from the driver testdata → flagship output."""
    return build(synthesize_pages(sf_dir), **kwargs)


def run_from_parquet(path: str, **kwargs) -> "rd.Dataset":
    return build(read_pages(path), **kwargs)


# ---------------------------------------------------------------------------
# partitioned, resumable output

_SALT_BUCKETS = 8


def _add_partition_key(batch: pa.Table) -> pa.Table:
    """(lang, salt) partition key: language-skew rebalance per north_rule.

    Head languages (en ≈ 60% of the web) would make one partition 100×
    another; salting by a stable hash of url spreads each language over
    ``_SALT_BUCKETS`` sub-partitions while keeping files language-pure."""
    urls = batch["url"].to_pylist()
    salt = np.fromiter((hash_url(u) % _SALT_BUCKETS for u in urls), dtype=np.int64, count=len(urls))
    return set_or_append(batch, "part_salt", pa.array(salt, pa.int64()))


def hash_url(url: str) -> int:
    """Stable (process-independent) url hash — NOT Python's randomized hash().
    None-safe: a missing url (optional metadata in crawl inputs) lands in
    the '' partition salt instead of killing the whole partitioned write."""
    import zlib

    return zlib.crc32((url or "").encode("utf-8"))


def write_partitioned(
    ds: "rd.Dataset", out_dir: str, manifest: bool = True, resume: bool = False
) -> dict:
    """Write keyed by (lang, part_salt) with a resume manifest.

    Layout: ``{out_dir}/lang=<l>/part_salt=<s>/*.parquet`` + ``_MANIFEST.json``
    recording completed partitions.  With ``resume=True`` a re-run:

      1. deletes any partition directory NOT in the manifest (a partial
         write from a crashed run — its rows will be regenerated);
      2. filters out rows whose (lang, salt) partition IS in the manifest
         (sound because the url → (lang, salt) mapping is deterministic);
      3. writes only the remaining partitions and refreshes the manifest.

    Net effect: idempotent, duplicate-free resume per north_rule.
    """
    import shutil

    done = completed_partitions(out_dir) if resume else set()
    if resume:
        for part in set(_list_partitions(out_dir)) - done:
            shutil.rmtree(os.path.join(out_dir, part), ignore_errors=True)

    ds = ds.map_batches(_add_partition_key, batch_format="pyarrow")
    if done:
        done_keys = {tuple(p.split("/")) for p in done}

        def prune(batch: pa.Table) -> pa.Table:
            langs = batch["lang"].to_pylist()
            salts = batch["part_salt"].to_pylist()
            mask = [
                (f"lang={l}", f"part_salt={s}") not in done_keys
                for l, s in zip(langs, salts)
            ]
            return batch.filter(pa.array(mask, pa.bool_()))

        ds = ds.map_batches(prune, batch_format="pyarrow")
    ds.write_parquet(out_dir, partition_cols=["lang", "part_salt"])
    info = {"partitions": _list_partitions(out_dir)}
    if manifest:
        with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
            json.dump(info, f, sort_keys=True)
    return info


def _list_partitions(out_dir: str) -> list:
    parts = []
    for root, _dirs, files in os.walk(out_dir):
        if any(f.endswith(".parquet") for f in files):
            rel = os.path.relpath(root, out_dir)
            if rel != ".":
                parts.append(rel)
    return sorted(parts)


def completed_partitions(out_dir: str) -> set:
    """Partitions recorded complete by a previous run (resume support)."""
    path = os.path.join(out_dir, "_MANIFEST.json")
    if not os.path.exists(path):
        return set()
    with open(path) as f:
        return set(json.load(f).get("partitions", []))


# ---------------------------------------------------------------------------
# BASELINE.md output-schema assembly (struct view over the flat columns)

_QUALITY_FIELDS = [
    "stopword_ratio", "symbol_word_ratio", "mean_word_len",
    "max_line_frac", "dup_ngram_frac", "n_words", "n_sentences",
]
_PII_FIELDS = ["emails", "phones", "ssns", "slurs"]


def _to_structs(batch: pa.Table) -> pa.Table:
    quality = pa.StructArray.from_arrays(
        [batch[f"q_{f}"].combine_chunks() for f in _QUALITY_FIELDS], names=_QUALITY_FIELDS
    )
    pii = pa.StructArray.from_arrays(
        [batch[f"pii_{f}"].combine_chunks() for f in _PII_FIELDS], names=_PII_FIELDS
    )
    keep = [c for c in batch.schema.names if not (c.startswith("q_") or c.startswith("pii_"))]
    out = batch.select(keep)
    return out.append_column("quality", quality).append_column("pii_counts", pii)


def to_baseline_schema(ds: "rd.Dataset") -> "rd.Dataset":
    """Flat ``q_*``/``pii_*`` columns → the BASELINE.md nested schema
    (``quality`` struct + ``pii_counts`` struct).

    The pipeline emits FLAT columns by default (Parquet predicate pushdown
    on e.g. ``q_dup_ngram_frac`` works on flat columns at 100 TB); this view
    is for consumers that want the documented nested shape."""
    return ds.map_batches(_to_structs, batch_format="pyarrow")


def quality_rules_audit(sf_dir: str) -> "rd.Dataset":
    """Hash-exact audit of the keep/drop RULE CASCADE (VERDICT r4 next-#5):
    the four SQL-expressible quality stats (word count, mean word length,
    symbol-per-word ratio, digit ratio — identical regex definitions on
    both engines) are computed per document and pushed through the REAL
    :class:`~language_identification_ray.stages.rules.KeepDropRules`
    engine, so the cascade's rule ORDER, first-failing-rule attribution
    and threshold boundaries get a DuckDB-verified row instead of only the
    synthetic F1 gate.  Rules whose stats are tokenizer-internal
    (stopword, repetition, langid, PII, perplexity) skip via the
    declared-columns contract — their stats stay pytest-pinned; this row
    pins the DECISION ENGINE.

    Scale shape: map-only — one projected read, vectorized
    ``count_substring_regex`` kernels, no exchange."""
    import pyarrow.compute as _pc

    from language_identification_ray.stages.rules import KeepDropRules

    rules = KeepDropRules()

    def stats_and_rules(batch: pa.Table) -> pa.Table:
        text = _pc.fill_null(batch["text"], "")
        n_words = _pc.count_substring_regex(
            text, "[^ \t\n\r\f\v]+").cast(pa.int64())
        word_chars = _pc.count_substring_regex(
            text, "[^ \t\n\r\f\v]").cast(pa.int64())
        digits = _pc.count_substring_regex(text, "[0-9]").cast(pa.int64())
        symbols = _pc.count_substring_regex(text, "[#…]").cast(pa.int64())
        nw = n_words.to_numpy(zero_copy_only=False).astype(np.float64)
        wc = word_chars.to_numpy(zero_copy_only=False).astype(np.float64)
        dg = digits.to_numpy(zero_copy_only=False).astype(np.float64)
        sy = symbols.to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_wl = np.where(nw > 0, wc / nw, 0.0)
            digit_ratio = np.where(wc > 0, dg / wc, 0.0)
            symbol_ratio = np.where(nw > 0, sy / nw, 0.0)
        staged = pa.table(
            {
                "doc_id": batch["doc_id"],
                "q_n_words": n_words,
                "q_mean_word_len": pa.array(mean_wl, pa.float64()),
                "q_symbol_word_ratio": pa.array(symbol_ratio, pa.float64()),
                "q_digit_ratio": pa.array(digit_ratio, pa.float64()),
            }
        )
        out = rules(staged)
        return out.select(["doc_id", "q_n_words", "keep", "drop_reason"])

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(stats_and_rules, batch_format="pyarrow")
