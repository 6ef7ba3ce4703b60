"""Benchmark harness — one JSON line per run (driver contract).

Default: headline = flagship quality-filter pipeline (decode → langid →
quality → scrub → rules) over pages synthesized from
``$GRAFT_SF_DIR/documents.parquet`` (default /root/testdata/sf0.1),
replicated ``PAGES_REPLICATION``× with distinct urls so the run is long
enough to measure (documents at sf0.1 is only 5k rows), plus each
oracle-backed query timed individually.  ``RAY_GRAFT_CPUS`` sets the Ray
session width (default: this host's CPU count).

The repository benchmark with per-layer metrics is ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 4))
PAGES_REPLICATION = int(os.environ.get("PAGES_REPLICATION", "40"))


def _pages_parquet(sf_dir: str, replication: int) -> tuple:
    """Materialize the replicated pages table to /tmp ONCE (cached across
    runs) and return (path, n_rows).

    The benchmark then measures the production shape — read_parquet(pages)
    → pipeline → write_parquet — with the synthetic-input prep excluded.
    Pages are documents replicated ``replication``× with offset doc_ids
    (distinct urls), written as one parquet file per copy so the read fans
    out."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from language_identification_ray.sources.pages import _synthesize_batch

    src_path = f"{sf_dir}/documents.parquet"
    meta = pq.ParquetFile(src_path)  # footer only — no data read on the cached path
    n_docs = meta.metadata.num_rows
    # cache key includes the SOURCE file identity: regenerated testdata must
    # invalidate the materialized pages, not silently serve stale ones
    st = os.stat(src_path)
    tag = f"{os.path.basename(os.path.normpath(sf_dir))}_{int(st.st_mtime)}_{st.st_size}"
    cache = f"/tmp/bench_pages_{tag}_x{replication}"
    done = os.path.join(cache, "_DONE")
    if not os.path.exists(done):
        src = pq.read_table(src_path)
        os.makedirs(cache, exist_ok=True)
        idx = src.schema.names.index("doc_id")
        base_ids = src["doc_id"].to_numpy()
        for r in range(replication):
            shifted = src.set_column(
                idx, "doc_id", pa.array(base_ids + r * n_docs, pa.int64())
            )
            pages = _synthesize_batch(shifted)
            pq.write_table(pages, os.path.join(cache, f"part-{r:04d}.parquet"))
        with open(done, "w") as f:
            f.write("ok")
    # warm the page cache: a cold first read of the just-materialized (or
    # session-old) parts costs 2-5x in the timed section on this host
    for name in os.listdir(cache):
        if name.endswith(".parquet"):
            with open(os.path.join(cache, name), "rb") as f:
                while f.read(1 << 22):
                    pass
    return cache, n_docs * replication


def _replicated_pages(sf_dir: str, replication: int):
    """Lazy Dataset over the materialized pages table (see _pages_parquet)."""
    import ray.data as rd

    path, n = _pages_parquet(sf_dir, replication)
    return rd.read_parquet(path), n


def run_headline() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from language_identification_ray.pipelines.quality_filter import build

    # warm the page cache (untimed).  The stage is NOT pre-warmed: this is
    # the first execution of a fresh session, so each worker's model load
    # is part of the timed window — the same cold start a production run pays
    pages, n_pages = _replicated_pages(SF_DIR, PAGES_REPLICATION)

    import shutil

    out_dir = "/tmp/bench_flagship_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    # stage tasks capped at build()'s default (the node minus I/O headroom);
    # full north-rule pipeline incl. the perplexity LM stage
    # batch_size 1024: this sandbox charges ~0.2 s/MB of first-touch page
    # faults PER WORKER on the numpy temporaries, so the one-time cold cost
    # scales with batch working set; 1024 also yields ~200 bundles per 200k
    # docs (≫ the task cap, no idle slots).  Measured 3-5× faster end-to-end
    # than 4096 on this host.
    out = build(
        pages,
        batch_size=1024,
        with_perplexity=True,
    )
    # consume with the production sink: distributed parquet write (workers
    # materialize their own blocks).  Driver-side iter_batches would fault
    # the whole output through this sandbox's slow shared-memory path
    # single-threaded (~0.2 s/MB) and dominate the measurement.
    out.write_parquet(out_dir)
    headline_sec = time.time() - t0

    import pyarrow.dataset as pads

    written = pads.dataset(out_dir)
    n_rows = written.count_rows()
    n_kept = written.scanner(columns=["keep"]).to_table()["keep"].to_pandas().sum()
    assert n_rows == n_pages, (n_rows, n_pages)

    # individual oracle-backed queries (each consumed to completion)
    import __ray_entry__ as entrymod

    queries = {}
    for name, fn in entrymod.queries().items():
        t0 = time.time()
        try:
            res = fn(SF_DIR)
            import ray.data as rd

            if isinstance(res, rd.Dataset):
                # consumption is where a lazy Dataset actually executes — a
                # swallowed exception here would record a crashing operator
                # as a fast successful time
                for _ in res.iter_batches(batch_size=8192):
                    pass
            queries[name] = round(time.time() - t0, 3)
        except Exception as e:
            print(f"QUERY FAILED {name}: {type(e).__name__}: {e}", file=sys.stderr)
            queries[name] = None

    return {
        "metric": "flagship_pipeline_sec",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "docs_per_sec": round(n_pages / headline_sec, 1),
        "n_docs": n_pages,
        "kept_frac": round(n_kept / max(n_rows, 1), 4),
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }


if __name__ == "__main__":
    result = run_headline()
    # The driver captures only the TAIL of stdout and parses the FINAL line
    # as the run's JSON (BENCH_r02.json came back "parsed": null because the
    # 77-entry per-query map pushed the line past the capture window).  Emit
    # the full record on an EARLIER line and to a sidecar file, then a
    # compact headline-only object as the final line so the flagship number
    # is always parseable.
    print(json.dumps(result))
    try:
        with open(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_QUERIES.json"),
            "w",
        ) as f:
            json.dump(result, f, indent=1)
    except OSError:
        pass
    compact = {k: v for k, v in result.items() if k != "queries"}
    compact["queries"] = {
        "n_timed": sum(v is not None for v in result["queries"].values()),
        "n_failed": sum(v is None for v in result["queries"].values()),
        "total_sec": round(sum(v for v in result["queries"].values() if v is not None), 3),
    }
    compact["queries_file"] = "BENCH_QUERIES.json"
    print(json.dumps(compact))
    import ray

    ray.shutdown()
