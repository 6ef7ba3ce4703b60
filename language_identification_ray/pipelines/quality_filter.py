"""The flagship pipeline: langid + quality filter + PII scrub over pages.

Topology (all lazy; Ray's streaming executor pipelines the stages):

    pages (url, warc_ts, html, text, lang)
      → map_batches(QualityFilterStage handle, tasks)  # ONE fused task stage:
          decode/extract → langid → quality stats → [perplexity]
          → scrub → keep/drop rules → select output schema
    (read tasks stay pure I/O; every CPU-heavy step runs in the one stage)

The stage runs as Ray tasks, not an actor pool.  Each worker process keeps
ONE ``QualityFilterStage`` in a process-level slot (``cached_stage``), built
by the first task that needs it and reused by every later task and every
later execution on that worker.  Ray's pooled workers outlive an execution,
so a warm session starts stage work without booting processes, and tasks
go to free CPU slots instead of queueing behind the first ready actor.  A
stage lives as long as its worker, so a node holds at most one stage per
Ray worker process (measured on 4 CPUs with the default task cap of 2:
2-3 stages, all built in a session's first execution).

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

from language_identification_ray.sources.pages import synthesize_pages
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
    """The whole per-document hot path in one callable:
    decode → langid → quality stats → [perplexity] → scrub → keep/drop rules.

    In-process, ``QualityFilterStage(...)`` loads everything eagerly and
    ``stage(batch)`` runs it.  A config-only :meth:`handle` travels as its
    config alone (``__reduce__``) and unpickles to the receiving process's
    :func:`cached_stage`.  :func:`build` ships a handle, so each Ray worker
    process keeps ONE stage, reused by every task and every execution it
    runs: models load once per worker, not once per execution.

    Why fused: a split hot path (langid stage + quality/scrub stage) makes
    the stages compete for the same CPUs and pays a block hand-off between
    them (measured on 32 CPUs: a 28-actor langid pool left the quality/scrub
    task stage at parallelism ≈ 1 and the pipeline anti-scaled 8→32).  One
    operator gives the whole width to the hot path.  The modular per-stage
    classes remain for à-la-carte pipelines.
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
        # vendored in-repo model) — warm-loaded once per worker process
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

    @classmethod
    def handle(cls, *args, **kwargs) -> "QualityFilterStage":
        """A stage that holds only its config (the constructor's arguments):
        it loads no model and tunes no allocator, so the calling process
        stays light.  It is meant to be pickled (each unpickle yields that
        process's cached stage), not called."""
        stage = cls.__new__(cls)
        stage.config = _stage_config(*args, **kwargs)
        return stage

    def __reduce__(self):
        return (cached_stage, self.config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # decode/extract runs inside the stage too (idempotent on already-
        # decoded input): as a separate stage it competed with this one for
        # CPUs — measured at 32 CPUs / 30 actors, ~51 s of extraction
        # compute squeezed through 2 CPUs and capped the whole pipeline;
        # fused it adds ~30 ms to a ~150 ms batch.  Read tasks stay pure I/O.
        # the resumable runner tags rows with their source file; carry that
        # tag through untouched so its final stage can route rows by group
        path = batch["path"] if "path" in batch.schema.names else None
        batch = decode_extract_batch(batch)
        # materialize the text column ONCE for the whole fused chain — each
        # stage otherwise re-converts Arrow→Python strings (4× the memory
        # traffic; memory bandwidth is the scaling limiter at full width).
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


def _stage_config(
    language_codes: Optional[Sequence[str]] = None,
    with_perplexity: bool = False,
    perplexity_per_language: bool = False,
    detector: str = "ensemble",
) -> tuple:
    """The constructor arguments as a hashable key (codes as a tuple)."""
    codes = tuple(language_codes) if language_codes else None
    return (codes, with_perplexity, perplexity_per_language, detector)


# this process's one stage: {config: QualityFilterStage}, at most one entry.
# Module-level on purpose: a Ray worker unpickles a handle with no caller
# object to hand it state, and the slot must outlive each task.
_STAGE_SLOT: dict = {}


def cached_stage(*config) -> QualityFilterStage:
    """This process's stage for ``config``.  The first call builds it; later
    calls with an equal config return the same object; a different config
    replaces it, so a worker never holds more than one stage."""
    stage = _STAGE_SLOT.get(config)
    if stage is None:
        _STAGE_SLOT.clear()  # free the old stage before loading the new one
        stage = _STAGE_SLOT[config] = QualityFilterStage(*config)
    return stage


def build(
    pages: "rd.Dataset",
    language_codes: Optional[Sequence[str]] = None,
    langid_concurrency: Optional[int] = None,
    batch_size: int = 1024,
    with_perplexity: bool = False,
    perplexity_per_language: bool = False,
    detector: str = "ensemble",
) -> "rd.Dataset":
    """Compose the flagship pipeline over a pages Dataset (lazy).

    The fused stage runs as Ray tasks over each worker's cached stage (see
    :class:`QualityFilterStage`), so an execution on a warm session boots
    no process and each batch goes to a free CPU slot.
    ``langid_concurrency`` caps how many stage tasks run at once; ``None``
    means ``max(2, cpus - 2)`` over the Ray cluster's CPUs, leaving two for
    read and write tasks.  The calling process ships only the stage's
    config and loads no model."""
    if langid_concurrency is None:
        langid_concurrency = _default_stage_tasks()
    stage = QualityFilterStage.handle(language_codes, with_perplexity, perplexity_per_language, detector)
    return pages.map_batches(
        stage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=langid_concurrency,
    )


def _default_stage_tasks() -> int:
    """``max(2, cpus - 2)``: the cluster's CPUs once Ray is up, else this
    host's (the CPUs Ray starts a local session with)."""
    import ray

    cpus = ray.cluster_resources().get("CPU", 0) if ray.is_initialized() else os.cpu_count()
    return max(2, int(cpus or 0) - 2)


def run(sf_dir: str, **kwargs) -> "rd.Dataset":
    """Synthesized pages from the driver testdata → flagship output."""
    return build(synthesize_pages(sf_dir), **kwargs)


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
