"""Resumable checkpointed run: group commit, lineage, skip-on-resume,
crash redo (north_rule resume criterion)."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _synth_fn(files):
    import ray.data as rd

    from language_identification_ray.sources.pages import _synthesize_batch

    return rd.read_parquet(files, include_paths=True).map_batches(
        _synthesize_batch, batch_format="pyarrow"
    )


def test_run_resume_and_crash_redo(ray_session, sharded_input, tmp_path):
    import ray.data as rd

    from language_identification_ray.pipelines.checkpoint import (
        LINEAGE_FILE,
        completed_groups,
        run_resumable,
    )

    input_dir, n_rows = sharded_input
    out = str(tmp_path / "out")

    # fresh run: 4 files / group_size 2 → 2 groups, all run
    info = run_resumable(input_dir, out, group_size=2, pages_dataset_fn=_synth_fn)
    assert info["groups_run"] == [0, 1]
    assert info["groups_skipped"] == []
    assert info["counters"]["rows"] == n_rows
    assert info["counters"]["kept"] + info["counters"]["dropped"] == n_rows
    assert any(k.startswith("drop_") for k in info["counters"])

    lineage = completed_groups(out)
    assert set(lineage) == {0, 1}
    assert all(rec["counters"]["rows"] > 0 for rec in lineage.values())
    assert all(len(rec["input_files"]) == 2 for rec in lineage.values())

    full = rd.read_parquet(out).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(full) == n_rows

    # resume with everything done: no work
    info2 = run_resumable(input_dir, out, group_size=2, pages_dataset_fn=_synth_fn)
    assert info2["groups_run"] == []
    assert info2["groups_skipped"] == [0, 1]
    assert info2["counters"]["rows"] == n_rows  # totals from lineage, not rerun

    # simulate a crash mid-group-1: staging dir left behind, no lineage line
    lineage_path = os.path.join(out, LINEAGE_FILE)
    with open(lineage_path) as f:
        recs = [json.loads(l) for l in f if l.strip()]
    with open(lineage_path, "w") as f:
        for r in recs:
            if r["group"] != 1:
                f.write(json.dumps(r) + "\n")
    os.rename(os.path.join(out, "group=00001"), os.path.join(out, "group=00001._tmp"))

    info3 = run_resumable(input_dir, out, group_size=2, pages_dataset_fn=_synth_fn)
    assert info3["groups_run"] == [1]
    assert info3["groups_skipped"] == [0]

    redone = rd.read_parquet(out).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(redone) == n_rows
    # byte-identical output after crash-redo (determinism + idempotence)
    assert (redone["url"] == full["url"]).all()
    assert (redone["scrubbed_text"] == full["scrubbed_text"]).all()
    assert (redone["keep"] == full["keep"]).all()


def test_resume_rejects_changed_input_set(ray_session, sharded_input, tmp_path):
    """A lineage group id is positional: resuming against a different file
    set or group_size must fail loudly, never silently skip wrong inputs."""
    from language_identification_ray.pipelines.checkpoint import run_resumable

    input_dir, _ = sharded_input
    out = str(tmp_path / "out")
    run_resumable(input_dir, out, group_size=2, pages_dataset_fn=_synth_fn)

    # same lineage, different group_size → group 0 maps to different files
    with pytest.raises(RuntimeError, match="lineage mismatch"):
        run_resumable(input_dir, out, group_size=1, pages_dataset_fn=_synth_fn)

    # same group_size, shrunk file set → also a mismatch
    import shutil

    subset = tmp_path / "subset"
    subset.mkdir()
    names = sorted(os.listdir(input_dir))
    for f in names[:2] + names[3:]:  # drop one middle fragment
        shutil.copy(os.path.join(input_dir, f), subset / f)
    with pytest.raises(RuntimeError, match="lineage mismatch"):
        run_resumable(str(subset), out, group_size=2, pages_dataset_fn=_synth_fn)


def test_dedup_cap_surfaces_in_counters(ray_session):
    """Truncated verification buckets must be observable as counter data."""
    import ray
    import ray.data as rd

    from language_identification_ray.stages.dedup import RunCounters, minhash_lsh_pairs

    # 12 identical docs land in one bucket; max_bucket=8 forces a cap
    rows = [{"doc_id": i, "text": "alpha beta gamma delta epsilon zeta"} for i in range(12)]
    counters = RunCounters.remote()
    out = minhash_lsh_pairs(
        rd.from_items(rows), threshold=0.5, max_bucket=8, counters=counters
    ).to_pandas()
    snap = ray.get(counters.snapshot.remote())
    assert snap.get("minhash_lsh_pairs_capped_buckets", 0) >= 1
    assert snap.get("minhash_lsh_pairs_capped_rows", 0) >= 4
    # pairs among the first max_bucket ids still emitted
    assert len(out) > 0


def test_torn_trailing_lineage_line_is_ignored(tmp_path):
    from language_identification_ray.pipelines.checkpoint import (
        LINEAGE_FILE,
        completed_groups,
    )

    out = tmp_path / "out"
    out.mkdir()
    good = json.dumps({"group": 0, "input_files": ["a"], "counters": {}})
    with open(out / LINEAGE_FILE, "w") as f:
        f.write(good + "\n")
        f.write('{"group": 1, "input_fi')  # torn mid-append by a crash
    done = completed_groups(str(out))
    assert list(done) == [0]  # torn record ignored, resume still possible

    # a malformed NON-trailing line is real corruption: loud failure
    with open(out / LINEAGE_FILE, "w") as f:
        f.write('{"group": 0, bro\n')
        f.write(good + "\n")
    with pytest.raises(json.JSONDecodeError):
        completed_groups(str(out))


def test_resume_rejects_shrunk_input(ray_session, sharded_input, tmp_path):
    """Committed groups beyond the new group list mean the input shrank:
    their rows would silently pollute out_dir — must fail loudly."""
    from language_identification_ray.pipelines.checkpoint import run_resumable

    input_dir, _ = sharded_input
    out = str(tmp_path / "out")
    run_resumable(input_dir, out, group_size=2, pages_dataset_fn=_synth_fn)

    import shutil

    smaller = tmp_path / "smaller"
    smaller.mkdir()
    frags = sorted(os.listdir(input_dir))[:2]  # keep only group 0's files
    for f in frags:
        shutil.copy(os.path.join(input_dir, f), smaller / f)
    with pytest.raises(RuntimeError, match="shrank"):
        run_resumable(str(smaller), out, group_size=2, pages_dataset_fn=_synth_fn)


def test_lock_blocks_second_driver(tmp_path):
    from language_identification_ray.pipelines.checkpoint import _RunLock

    out = tmp_path / "out"
    out.mkdir()
    with _RunLock(str(out)):
        with pytest.raises(RuntimeError, match="another driver"):
            _RunLock(str(out)).__enter__()
    # released: can acquire again; a stale lock from a dead pid is taken over
    with open(out / "_LOCK", "w") as f:
        f.write("999999999")  # no such pid
    with _RunLock(str(out)):
        pass


def test_staging_dir_is_invisible_to_parquet_readers(ray_session, sharded_input, tmp_path):
    """A crashed group's staging dir must NOT leak rows into readers of
    out_dir (parquet discovery skips underscore-prefixed directories)."""
    import ray.data as rd

    from language_identification_ray.pipelines.checkpoint import run_resumable

    input_dir, n_rows = sharded_input
    out = str(tmp_path / "out")
    run_resumable(input_dir, out, group_size=2, pages_dataset_fn=_synth_fn)

    # simulate a crash: a half-written staging dir with real parquet inside
    import shutil

    staging = os.path.join(out, "_tmp_group=00007")
    shutil.copytree(os.path.join(out, "group=00000"), staging)
    assert len(rd.read_parquet(out).to_pandas()) == n_rows  # staging unseen


def test_groups_commit_incrementally_and_partial_failure_redoes_rest(
    ray_session, sharded_input, tmp_path
):
    """Groups commit while the one execution is still streaming: when rows
    of the last group fail, the earlier groups stay committed (lineage line
    and group= dir), and a re-run redoes only the rest, byte-identical to a
    clean run."""
    import time

    import ray.data as rd

    from language_identification_ray.pipelines.checkpoint import (
        LINEAGE_FILE,
        completed_groups,
        run_resumable,
    )
    from language_identification_ray.sources.pages import _synthesize_batch

    input_dir, n_rows = sharded_input
    last = os.path.abspath(os.path.join(input_dir, sorted(os.listdir(input_dir))[-1]))
    out = str(tmp_path / "out")
    lineage_path = os.path.join(out, LINEAGE_FILE)

    def fail_last_group(batch: pa.Table) -> pa.Table:
        if last in batch["path"].to_pylist():
            # fail only once the other three groups have committed (bounded
            # wait: if they never do, the assertions below catch it)
            deadline = time.time() + 120
            while time.time() < deadline:
                if os.path.exists(lineage_path):
                    with open(lineage_path) as f:
                        if sum(1 for line in f if line.strip()) >= 3:
                            break
                time.sleep(0.2)
            raise ValueError("injected failure on the last group's rows")
        return _synthesize_batch(batch)

    def failing_fn(files):
        # num_cpus=0 keeps this map out of the stage's tasks (an unequal
        # resource request blocks operator fusion), so its wait blocks
        # neither a stage task nor a CPU the other groups need
        return rd.read_parquet(files, include_paths=True).map_batches(
            fail_last_group, batch_format="pyarrow", num_cpus=0
        )

    kw = dict(group_size=1, langid_concurrency=1, batch_size=32)
    with pytest.raises(Exception, match="injected failure"):
        run_resumable(input_dir, out, pages_dataset_fn=failing_fn, **kw)
    done = completed_groups(out)
    assert set(done) == {0, 1, 2}
    for gid in (0, 1, 2):
        assert os.path.isdir(os.path.join(out, f"group={gid:05d}"))
    assert not os.path.exists(os.path.join(out, "group=00003"))

    info = run_resumable(input_dir, out, pages_dataset_fn=_synth_fn, **kw)
    assert info["groups_run"] == [3]
    assert info["groups_skipped"] == [0, 1, 2]
    assert info["counters"]["rows"] == n_rows

    clean = str(tmp_path / "clean")
    run_resumable(input_dir, clean, pages_dataset_fn=_synth_fn, **kw)
    got = rd.read_parquet(out).to_pandas().sort_values("url").reset_index(drop=True)
    want = rd.read_parquet(clean).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(got) == len(want) == n_rows
    assert (got["url"] == want["url"]).all()
    assert (got["scrubbed_text"] == want["scrubbed_text"]).all()
    assert (got["keep"] == want["keep"]).all()


def test_empty_group_commits_with_zero_rows(ray_session, sharded_input, tmp_path):
    """A group whose fragments hold no rows commits (rows = 0) without
    waiting on the stream, next to the groups that do stream."""
    import shutil

    import pyarrow.dataset as pads

    from language_identification_ray.pipelines.checkpoint import (
        completed_groups,
        run_resumable,
    )

    input_dir, n_rows = sharded_input
    src = tmp_path / "in"
    shutil.copytree(input_dir, src)
    first = pq.read_table(os.path.join(input_dir, sorted(os.listdir(input_dir))[0]))
    pq.write_table(first.slice(0, 0), str(src / "part-999.parquet"))  # empty fragment

    out = str(tmp_path / "out")
    info = run_resumable(str(src), out, group_size=1, pages_dataset_fn=_synth_fn)
    assert info["groups_run"] == [0, 1, 2, 3, 4]
    done = completed_groups(out)
    assert done[4]["counters"] == {"rows": 0, "kept": 0, "dropped": 0}
    assert os.path.isdir(os.path.join(out, "group=00004"))
    assert info["counters"]["rows"] == n_rows
    assert pads.dataset(out).count_rows() == n_rows


def test_row_count_mismatch_is_never_committed(ray_session, sharded_input, tmp_path):
    """A reader that duplicates rows streams more rows than a group's input
    holds: the run must fail and commit no group."""
    import ray.data as rd

    from language_identification_ray.pipelines.checkpoint import (
        completed_groups,
        run_resumable,
    )
    from language_identification_ray.sources.pages import _synthesize_batch

    def doubled(batch: pa.Table) -> pa.Table:
        pages = _synthesize_batch(batch)
        return pa.concat_tables([pages, pages])

    def doubling_fn(files):
        return rd.read_parquet(files, include_paths=True).map_batches(
            doubled, batch_format="pyarrow"
        )

    input_dir, _ = sharded_input
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="not committed"):
        run_resumable(input_dir, out, group_size=4, pages_dataset_fn=doubling_fn)
    assert completed_groups(out) == {}
    assert not os.path.exists(os.path.join(out, "group=00000"))


@pytest.fixture(scope="module")
def long_html_input(tmp_path_factory):
    """8 html-only fragments of 32 long pages: a ~60 KB inline script around
    a few paragraphs of seed sentences, so the footers report ~60 KB/row."""
    import numpy as np

    from language_identification_ray.state.seed_corpus import SEED_SENTENCES

    pool = [s for lang in sorted(SEED_SENTENCES) for s in SEED_SENTENCES[lang]]
    rng = np.random.default_rng(5)
    d = tmp_path_factory.mktemp("long_html")
    for k in range(8):
        urls, htmls = [], []
        for i in range(32):
            body = " ".join(pool[j] for j in rng.choice(len(pool), 12, replace=False))
            script = "var x = %d; " % i * 5000
            urls.append(f"https://long.example.org/{k}/{i}")
            htmls.append(f"<html><head><script>{script}</script></head><body><p>{body}</p></body></html>".encode())
        pq.write_table(
            pa.table({"url": urls, "text": [""] * 32, "html": pa.array(htmls, pa.binary())}),
            str(d / f"part-{k:03d}.parquet"),
        )
    return str(d)


@pytest.mark.parametrize("cap", [3, None])
def test_long_pages_run_as_byte_sized_fused_stage_writer_tasks(
    ray_session, long_html_input, tmp_path, monkeypatch, cap
):
    """On long pages run_resumable's stage tasks are sized by footer bytes,
    not by batch_size rows: the execution runs at least one stage task per
    CPU, the group writer runs inside the stage task (one fused operator)
    at an explicit cap and at the default, and the output equals the
    in-process stage over batches of 1,024."""
    import re

    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from language_identification_ray.pipelines.checkpoint import run_resumable
    from language_identification_ray.pipelines.quality_filter import QualityFilterStage

    executed = []
    iter_batches = rd.Dataset.iter_batches

    def record(self, *args, **kwargs):
        executed.append(self)
        return iter_batches(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "iter_batches", record)
    out = str(tmp_path / "out")
    info = run_resumable(long_html_input, out, group_size=2, langid_concurrency=cap, batch_size=1024)
    assert info["groups_run"] == [0, 1, 2, 3]

    (ds,) = executed
    ops = dict(re.findall(r"Operator \d+ (.+?): (\d+) tasks executed", ds.stats()))
    stage_ops = [name for name in ops if "QualityFilterStage" in name or "_write_groups" in name]
    assert stage_ops == ["MapBatches(QualityFilterStage)->MapBatches(_write_groups)"], ops
    assert int(ops[stage_ops[0]]) >= ray.cluster_resources()["CPU"], ops

    pages = pads.dataset(long_html_input).to_table()
    stage = QualityFilterStage()
    want = pa.concat_tables(stage(pages.slice(i, 1024)) for i in range(0, pages.num_rows, 1024))
    got = pads.dataset(out).to_table()
    assert got.sort_by("url").equals(want.sort_by("url"))


def test_task_rows_shrinks_only_short_executions():
    """batch_size rows per stage task once the execution has two such tasks
    per stage slot; below that, about TARGET_BYTES of input per task, never
    more than batch_size rows."""
    from language_identification_ray.pipelines.checkpoint import TARGET_BYTES, _task_rows

    # 2,000 pages of 5 KB at 1,024 rows and cap 2: byte-sized tasks
    assert _task_rows(1024, 2000 * 5120, 2000, cap=2) == TARGET_BYTES // 5120
    # 24,000 of the same pages at 4,096 rows: 5.9 tasks, ≥ 2 per slot
    assert _task_rows(4096, 24000 * 5120, 24000, cap=2) == 4096
    assert _task_rows(1024, 4096 * 5120, 4096, cap=2) == 1024
    # short rows in a short execution: capped by batch_size
    assert _task_rows(1024, 2000 * 100, 2000, cap=2) == 1024
    # empty footers or huge rows: still at least one row per task
    assert _task_rows(1024, 0, 0, cap=2) == 1024
    assert _task_rows(1024, 10 * TARGET_BYTES, 3, cap=2) == 1
