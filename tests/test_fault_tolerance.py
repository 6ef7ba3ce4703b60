"""Fault-injection: the engine's scale story leans on Ray's task retry
(SURVEY §4.1 'stragglers/retries' row — lineage re-execution is PROVIDED by
Ray).  These tests actually kill a worker mid-pipeline (os._exit — a system
failure, not a user exception) and assert the pipeline completes with
correct results after transparent rescheduling."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest


def test_map_task_survives_worker_crash(ray_session, tmp_path, sf_dir):
    """One map task hard-kills its worker on first execution; Ray retries
    the task and the job completes with the exact row count and sum."""
    import ray.data as rd

    marker = str(tmp_path / "crashed_once")

    def udf(batch: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
                f.flush()
                os.fsync(f.fileno())
            os._exit(1)  # simulate machine/worker loss (system failure)
        return pa.table(
            {"doc_id": batch["doc_id"], "n": pc.utf8_length(pc.fill_null(batch["text"], ""))}
        )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(udf, batch_format="pyarrow")
    got = ds.count()

    import pyarrow.parquet as pq

    want = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    assert got == want
    assert os.path.exists(marker)  # the crash really happened


def test_groupby_survives_worker_crash(ray_session, tmp_path, sf_dir):
    """A crash inside the pre-aggregation stage of a keyed exchange must
    not lose or duplicate partial counts after retry."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    marker = str(tmp_path / "crashed_once_gb")

    def partial(batch: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
                f.flush()
                os.fsync(f.fileno())
            os._exit(1)
        return pa.table(
            {
                "lang": pc.fill_null(batch["lang"], ""),
                "one": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )

    rows = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("one", alias_name="n"))
    ).take_all()

    import pyarrow.parquet as pq

    want = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    assert sum(r["n"] for r in rows) == want
    assert os.path.exists(marker)


def test_run_resumable_survives_worker_crash(ray_session, sharded_input, tmp_path):
    _assert_run_resumable_survives_worker_crash(sharded_input, tmp_path, "ensemble")


def test_run_resumable_fasttext_survives_worker_crash(ray_session, sharded_input, tmp_path):
    _assert_run_resumable_survives_worker_crash(sharded_input, tmp_path, "fasttext")


def _assert_run_resumable_survives_worker_crash(sharded_input, tmp_path, detector):
    """A worker of the single streaming execution dies once.  The injected
    map runs as its own task on Ray's pooled workers, the same processes
    that keep the cached QualityFilterStage; after Ray's retry every input
    url is committed exactly once and every group has exactly one lineage
    line whose rows sum to the input."""
    import json

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    from language_identification_ray.pipelines.checkpoint import LINEAGE_FILE, run_resumable
    from language_identification_ray.sources.pages import _synthesize_batch

    shards, _ = sharded_input
    urls = _synthesize_batch(pq.read_table(shards))["url"].to_pylist()
    marker = str(tmp_path / "crashed_once_resumable")

    def crash_once(batch: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
                f.flush()
                os.fsync(f.fileno())
            os._exit(1)
        return _synthesize_batch(batch)

    def pages_fn(files):
        return rd.read_parquet(files, include_paths=True).map_batches(
            crash_once, batch_format="pyarrow"
        )

    out = str(tmp_path / "out")
    info = run_resumable(shards, out, group_size=1, pages_dataset_fn=pages_fn, detector=detector)
    assert os.path.exists(marker)  # the crash really happened
    assert info["groups_run"] == [0, 1, 2, 3]

    got = pads.dataset(out).to_table(columns=["url"])["url"].to_pylist()
    assert len(got) == len(set(got))  # no duplicates
    assert set(got) == set(urls)
    with open(os.path.join(out, LINEAGE_FILE)) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    assert sorted(r["group"] for r in recs) == [0, 1, 2, 3]  # once each
    assert sum(r["counters"]["rows"] for r in recs) == len(urls)


def test_group_writer_rewrite_is_idempotent(tmp_path):
    """A retried writer task re-writes the same batch: each group must
    still hold exactly one file (named by its rows), with no temp litter."""
    import pyarrow.dataset as pads

    from language_identification_ray.pipelines.checkpoint import _staging_dir, _write_groups

    out = str(tmp_path)
    for gid in (0, 1):
        os.makedirs(_staging_dir(out, gid))
    batch = pa.table(
        {
            "url": ["a", None, "c", "d", ""],
            "keep": [True, False, True, True, False],
            "path": ["/in/f0", "/in/f1", "/in/f0", "/in/f2", "/in/f1"],
        }
    )
    group_of = {"/in/f0": 0, "/in/f1": 1, "/in/f2": 1}
    for _ in range(2):
        res = _write_groups(batch, out, group_of)
        assert res.to_pylist() == [{"group": 0, "rows": 2}, {"group": 1, "rows": 3}]
    for gid, n in ((0, 2), (1, 3)):
        staging = _staging_dir(out, gid)
        assert len(os.listdir(staging)) == 1
        assert os.listdir(staging)[0].endswith(".parquet")
        tbl = pads.dataset(staging).to_table()
        assert tbl.schema.names == ["url", "keep"]  # path is not written
        assert tbl.num_rows == n
