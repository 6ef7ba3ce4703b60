"""End-to-end flagship pipeline tests over the synthesized pages table
(Ray session from conftest)."""

import pyarrow as pa
import pytest

from language_identification_ray.stages.decode import decode_and_extract


def test_decode_prefers_text():
    assert decode_and_extract("already here", b"<p>ignored</p>")[0] == "already here"


def test_decode_falls_back_to_html():
    assert decode_and_extract("", b"<html><body><p>from html</p></body></html>")[0] == "from html"
    # whitespace-only text must fall through to the html content too
    assert decode_and_extract("  \n ", b"<html><body><p>real</p></body></html>")[0] == "real"
    assert decode_and_extract(None, None) == ("", 0)


def test_decode_cp1252_html():
    raw = "<p>curly ’quote’</p>".encode("cp1252")
    assert decode_and_extract("", raw)[0] == "curly ’quote’"


@pytest.fixture(scope="module")
def flagship(ray_session, sf_dir):
    from language_identification_ray.pipelines.quality_filter import run

    return run(sf_dir).to_pandas()


def test_flagship_rows_and_schema(flagship):
    assert len(flagship) == 500
    for col in ["url", "lang", "lang_conf", "keep", "drop_reason", "scrubbed_text",
                "q_n_words", "pii_emails"]:
        assert col in flagship.columns, col
    assert flagship["url"].is_unique


def test_flagship_determinism(ray_session, sf_dir):
    from language_identification_ray.pipelines.quality_filter import run

    a = run(sf_dir).to_pandas().sort_values("url").reset_index(drop=True)
    b = run(sf_dir).to_pandas().sort_values("url").reset_index(drop=True)
    # byte-identical scrubbed text per url across runs — the parity invariant
    assert (a["scrubbed_text"] == b["scrubbed_text"]).all()
    assert (a["keep"] == b["keep"]).all()


def test_flagship_pii_scrubbed(flagship):
    # every 7th doc got PII injected; all of it must be masked
    pii_rows = flagship[flagship["pii_emails"] > 0]
    assert len(pii_rows) > 0
    assert not pii_rows["scrubbed_text"].str.contains("@example.com").any()
    assert pii_rows["scrubbed_text"].str.contains("<EMAIL>").all()


def test_flagship_keeps_majority(flagship):
    assert 0.5 < flagship["keep"].mean() <= 1.0
    dropped = flagship[~flagship["keep"]]
    assert (dropped["drop_reason"] != "").all()
    kept = flagship[flagship["keep"]]
    assert (kept["drop_reason"] == "").all()


def test_partitioned_write_and_resume(ray_session, sf_dir, tmp_path):
    from language_identification_ray.pipelines.quality_filter import (
        completed_partitions,
        run,
        write_partitioned,
    )

    out = str(tmp_path / "out")
    info = write_partitioned(run(sf_dir), out)
    assert info["partitions"], "no partitions written"
    assert all(p.startswith("lang=") for p in info["partitions"])
    # manifest round-trips for resume
    assert completed_partitions(out) == set(info["partitions"])

    import ray.data as rd

    back = rd.read_parquet(out)
    assert back.count() == 500


def test_to_baseline_schema(ray_session, sf_dir):
    from language_identification_ray.pipelines.quality_filter import run, to_baseline_schema

    out = to_baseline_schema(run(sf_dir)).limit(5).to_pandas()
    assert "quality" in out.columns and "pii_counts" in out.columns
    q0 = out["quality"].iloc[0]
    assert set(q0) == {"stopword_ratio", "symbol_word_ratio", "mean_word_len",
                       "max_line_frac", "dup_ngram_frac", "n_words", "n_sentences"}
    p0 = out["pii_counts"].iloc[0]
    assert set(p0) == {"emails", "phones", "ssns", "slurs"}
    assert not any(c.startswith("q_") for c in out.columns)


def test_salted_partitions_balance_head_language(ray_session, sf_dir, tmp_path):
    """The (lang, salt) write must spread the dominant language over salt
    buckets (north_rule skew handling)."""
    import os

    from language_identification_ray.pipelines.quality_filter import run, write_partitioned

    out = str(tmp_path / "salted")
    info = write_partitioned(run(sf_dir), out)
    en_parts = [p for p in info["partitions"] if p.startswith("lang=en/")]
    assert len(en_parts) >= 4, en_parts  # head language split across salts
    # sub-partition sizes within 10x of each other (no single hot file)
    import pyarrow.parquet as pq

    sizes = []
    for p in en_parts:
        files = [os.path.join(out, p, f) for f in os.listdir(os.path.join(out, p))]
        sizes.append(sum(pq.read_metadata(f).num_rows for f in files if f.endswith(".parquet")))
    assert max(sizes) <= 10 * max(1, min(sizes)), sizes


def test_partitioned_resume_prunes_and_redoes(ray_session, sf_dir, tmp_path):
    """resume=True: completed partitions are skipped (no duplicate rows);
    partitions missing from the manifest (crashed mid-write) are redone."""
    import json
    import os
    import shutil

    import ray.data as rd

    from language_identification_ray.pipelines.quality_filter import run, write_partitioned

    out = str(tmp_path / "resumable")
    info = write_partitioned(run(sf_dir), out)
    total = rd.read_parquet(out).count()
    parts = info["partitions"]
    assert len(parts) >= 3

    # simulate a crash: one partition half-written (dir exists, not in
    # manifest), one partition lost entirely (no dir, not in manifest)
    lost, partial = parts[0], parts[1]
    manifest_path = os.path.join(out, "_MANIFEST.json")
    keep = [p for p in parts if p not in (lost, partial)]
    with open(manifest_path, "w") as f:
        json.dump({"partitions": keep}, f)
    shutil.rmtree(os.path.join(out, lost))
    # partial: leave its files in place — resume must clear + rewrite them

    info2 = write_partitioned(run(sf_dir), out, resume=True)
    assert set(info2["partitions"]) == set(parts)
    assert rd.read_parquet(out).count() == total  # no dups, nothing missing


def test_flagship_fasttext_detector_variant(ray_session, sf_dir):
    """detector="fasttext" runs the flagship with real fastText-format
    inference warm-loaded once per worker process (the north-star hot
    path) — same schema, sane langs, keep-majority preserved."""
    from language_identification_ray.pipelines.quality_filter import run

    df = run(sf_dir, detector="fasttext").to_pandas()
    assert len(df) == 500
    for col in ["url", "lang", "lang_conf", "keep", "drop_reason", "scrubbed_text"]:
        assert col in df.columns, col
    # the corpus is majority-English synthetic text: the fastText model
    # must agree on the bulk label and keep most documents
    assert (df["lang"] == "en").mean() > 0.5
    assert df["keep"].mean() > 0.5


def _pages_table(sf_dir):
    import pyarrow.parquet as pq

    from language_identification_ray.sources.pages import _synthesize_batch

    return _synthesize_batch(pq.read_table(f"{sf_dir}/documents.parquet"))


def test_stage_handle_unpickles_to_the_process_cached_stage(sf_dir, monkeypatch):
    """A stage handle pickles as its config alone; unpickling yields this
    process's one cached stage for an equal config, a different config
    replaces the slot, and the cached stage computes exactly what a
    directly built stage does."""
    import pickle

    from language_identification_ray.pipelines import quality_filter as qf

    monkeypatch.setattr(qf, "_STAGE_SLOT", {})  # a fresh slot, dropped after
    handle = qf.QualityFilterStage.handle(["en", "fr"], detector="fasttext")
    assert not hasattr(handle, "langid")  # a handle loads nothing
    blob = pickle.dumps(handle)
    assert len(blob) < 512  # config only, no model

    stage = pickle.loads(blob)
    assert stage is not handle and hasattr(stage, "langid")
    # an equal config spelled differently reuses the same object
    same = pickle.loads(pickle.dumps(qf.QualityFilterStage.handle(("en", "fr"), detector="fasttext")))
    assert same is stage
    assert list(qf._STAGE_SLOT.values()) == [stage]

    other = pickle.loads(pickle.dumps(qf.QualityFilterStage.handle(with_perplexity=True)))
    assert other is not stage
    assert list(qf._STAGE_SLOT.values()) == [other]  # replaced, not added
    assert pickle.loads(blob) is not stage  # the old stage is gone

    batch = _pages_table(sf_dir).slice(0, 200)
    for cfg in ({"detector": "fasttext"}, {"with_perplexity": True, "detector": "ensemble"}):
        cached = pickle.loads(pickle.dumps(qf.QualityFilterStage.handle(**cfg)))
        assert cached(batch).equals(qf.QualityFilterStage(**cfg)(batch))


def test_build_caps_stage_tasks_by_default(ray_session):
    """Left unset, ``langid_concurrency`` is the int cap max(2, cpus - 2)
    over the session's CPUs: the number of stage tasks, and so of workers
    building a stage at once, is bounded."""
    import ray
    import ray.data as rd
    from ray.data._internal.compute import TaskPoolStrategy

    from language_identification_ray.pipelines import quality_filter as qf

    compute = qf.build(rd.from_items([{"url": "u", "text": "t"}]))._logical_plan.dag._compute
    assert isinstance(compute, TaskPoolStrategy)
    assert compute.size == max(2, int(ray.cluster_resources()["CPU"]) - 2)


@pytest.mark.parametrize("detector", ["ensemble", "fasttext"])
def test_build_reuses_worker_stages_across_executions(ray_session, sharded_input, detector, monkeypatch):
    """Two back-to-back build() executions in one session, at most 2 stage
    tasks at a time over several bundles: sorted by url, each output equals
    the other and the in-process stage's output, and the calling process
    never builds a stage."""
    import re

    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data._internal.compute import TaskPoolStrategy

    from language_identification_ray.pipelines import quality_filter as qf
    from language_identification_ray.sources.pages import _synthesize_batch

    shards, n = sharded_input
    pages = _synthesize_batch(pq.read_table(shards))
    want = qf.QualityFilterStage(detector=detector)(pages).sort_by("url")

    def no_local_stage(*_a, **_k):
        raise AssertionError("the calling process built a QualityFilterStage")

    # workers import their own copy of the module; only this process's fails
    monkeypatch.setattr(qf.QualityFilterStage, "__init__", no_local_stage)
    outs = []
    for _ in range(2):
        ds = qf.build(
            rd.read_parquet(shards).map_batches(_synthesize_batch, batch_format="pyarrow"),
            detector=detector,
            langid_concurrency=2,
            batch_size=64,
        )
        assert isinstance(ds._logical_plan.dag._compute, TaskPoolStrategy)  # no actor pool
        outs.append(pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow")).sort_by("url"))
        m = re.search(r"MapBatches\(QualityFilterStage\): (\d+) tasks executed", ds.stats())
        assert m and int(m[1]) >= 4, ds.stats()
    assert qf._STAGE_SLOT == {}
    assert outs[0].num_rows == n
    assert outs[0].equals(outs[1])
    assert outs[0].equals(want)
