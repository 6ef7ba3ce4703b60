"""Checkpointed, resumable execution of the flagship pipeline.

north_rule: "resumable from checkpoint with per-partition lineage + metrics".
The reference has no recovery story at all (a crash loses the run —
SURVEY.md §4.1); this module is the scale-out answer:

  * the input parquet file list is split into deterministic **work groups**
    (``group_size`` fragments each, sorted order — stable across runs);
  * every pending group runs in ONE streaming execution:
    ``read_parquet(include_paths=True)`` → ``build`` (the fused stage passes
    ``path`` through) → ``_write_groups``, which writes each batch's rows
    into their group's ``_tmp_group=NNNNN`` staging dir (parquet discovery
    skips underscore dirs, so partial output stays invisible) and returns
    one small ``(group, rows)`` row per group;
  * a stage task takes ``batch_size`` rows, unless the execution is too
    short for that to give two tasks per stage slot (a few fragments of
    long pages, say): then it takes about ``TARGET_BYTES`` of uncompressed
    input (bytes per row from the same parquet footers that give the row
    counts), so the stage still gets enough tasks to fill its cap;
  * the writer runs under the stage's task cap, so Ray fuses
    ``MapBatches(QualityFilterStage)->MapBatches(_write_groups)`` into one
    task: each stage task writes its own rows, with no hand-off between
    operators;
  * ``run_resumable`` consumes those rows as they stream; when a group's rows
    reach its input row count (parquet footers — the stage keeps row
    count) and ``_count_staged`` agrees, the group **commits**: staging dir
    renamed to ``group=NNNNN/``, directory fsynced, then one JSON
    **lineage** line appended to ``_LINEAGE.jsonl``.  Groups commit as they
    finish, so lineage lines may be out of group order;
  * a re-run reads the lineage file and **skips completed groups**; a
    crashed group leaves only a staging dir that the next run clears and
    redoes.

A staged file is named by a hash of its rows' ``(path, url)`` pairs, so a
retried task overwrites its own file instead of adding a duplicate; a
count that disagrees is an error, never a commit.  Lineage counters come
from the staged parquet (footer row counts plus one bounded read of keep /
drop_reason), which is exactly-once by construction.

At 100 TB: group_size × fragment size bounds the work per commit (64 ×
1 GiB fragments ≈ 64 GiB); a crash loses only the groups in flight, and the
one execution keeps the cluster busy across group boundaries.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import Counter
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

LINEAGE_FILE = "_LINEAGE.jsonl"
# input bytes per stage task in a short execution; chosen by a sweep over
# 0.25-4 MiB (CHANGES.md)
TARGET_BYTES = 1 << 20


def _staging_dir(out_dir: str, gid: int) -> str:
    return os.path.join(out_dir, f"_tmp_group={gid:05d}")


def _write_groups(batch: pa.Table, out_dir: str, group_of: dict) -> pa.Table:
    """Final pipeline stage: split ``batch`` by commit group (``group_of``
    maps the ``path`` column to a group id), write each group's rows —
    without ``path`` — to one parquet file in its staging dir, and return
    one ``(group, rows)`` row per group.

    The file is named by a hash of its rows' ``(path, url)`` pairs, written
    under a dot-prefixed temp name and ``os.replace``d into place, so a
    retried task replaces its own file and never adds a duplicate."""
    if batch.num_rows == 0:
        return pa.table({"group": pa.array([], pa.int64()), "rows": pa.array([], pa.int64())})
    paths = pc.dictionary_encode(batch["path"].combine_chunks())
    gid_of_path = np.array([group_of[p] for p in paths.dictionary.to_pylist()], np.int64)
    row_gid = gid_of_path[paths.indices.to_numpy()]
    data = batch.drop_columns(["path"])
    groups, counts = np.unique(row_gid, return_counts=True)
    for g in groups:
        mask = pa.array(row_gid == g)
        part = data.filter(mask)
        pairs = zip(batch["path"].filter(mask).to_pylist(), part["url"].to_pylist())
        key = "\x1e".join(f"{p}\x1f{'-' if u is None else '+' + u}" for p, u in pairs)
        name = hashlib.blake2b(key.encode("utf-8", "surrogatepass"), digest_size=16).hexdigest()
        staging = _staging_dir(out_dir, int(g))
        tmp = os.path.join(staging, f".{name}.{os.getpid()}.tmp")
        pq.write_table(part, tmp)
        os.replace(tmp, os.path.join(staging, f"{name}.parquet"))
    return pa.table({"group": pa.array(groups, pa.int64()), "rows": pa.array(counts, pa.int64())})


def _task_rows(batch_size: int, input_bytes: int, input_rows: int, cap: int) -> int:
    """Rows per stage task: ``batch_size``, unless the execution has fewer
    than ``2 * cap * batch_size`` rows.  Then ``batch_size`` rows would
    leave stage slots idle (2,000 long pages at 1,024 rows make 2 tasks),
    so a task takes the rows that hold about ``TARGET_BYTES`` of input
    (uncompressed parquet bytes per row, from the footers), at most
    ``batch_size``.  A long execution keeps large tasks: there smaller ones
    only add per-task cost."""
    if input_rows >= 2 * cap * batch_size:
        return batch_size
    bytes_per_row = max(1, input_bytes // max(1, input_rows))
    return min(batch_size, max(1, TARGET_BYTES // bytes_per_row))


def list_input_files(input_path: str) -> List[str]:
    """Deterministic sorted parquet fragment list (stable group identity)."""
    if os.path.isfile(input_path):
        return [input_path]
    out = []
    for root, _dirs, files in os.walk(input_path):
        for f in files:
            if f.endswith(".parquet"):
                out.append(os.path.join(root, f))
    return sorted(out)


def completed_groups(out_dir: str) -> dict:
    """group_id -> lineage record, from the commit log.

    A torn FINAL line (crash between write and fsync) is by construction an
    uncommitted record: skip it with a warning so resume still works.  A
    malformed line anywhere else means real corruption — fail loudly."""
    path = os.path.join(out_dir, LINEAGE_FILE)
    done = {}
    if os.path.exists(path):
        with open(path) as f:
            lines = [ln.strip() for ln in f]
        lines = [ln for ln in lines if ln]
        for i, line in enumerate(lines):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    print(f"{LINEAGE_FILE}: ignoring torn trailing line (uncommitted record)")
                    continue
                raise
            done[rec["group"]] = rec
    return done


def _count_staged(staging: str) -> dict:
    """Exactly-once group counters from the staged parquet: row count from
    footers, kept/drop-reason from one bounded columnar read."""
    d = pads.dataset(staging)
    rows = d.count_rows()
    if not rows:
        return {"rows": 0, "kept": 0, "dropped": 0}
    tbl = d.to_table(columns=["keep", "drop_reason"])
    kept = int(pc.sum(tbl["keep"]).as_py() or 0)
    reasons = Counter(r for r in tbl["drop_reason"].to_pylist() if r)
    return {
        "rows": rows,
        "kept": kept,
        "dropped": rows - kept,
        **{f"drop_{k}": v for k, v in reasons.items()},
    }


class _RunLock:
    """O_EXCL pid lock on out_dir: a second concurrent driver would rmtree
    staging dirs the first is writing and double-append lineage records.
    A lock whose pid is dead (crashed driver) is taken over."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, "_LOCK")

    def __enter__(self):
        for _ in range(3):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return self
            except FileExistsError:
                try:
                    pid = int(open(self.path).read().strip() or "0")
                except (ValueError, OSError):
                    pid = 0
                alive = False
                if pid > 0:
                    try:
                        os.kill(pid, 0)
                        alive = True
                    except ProcessLookupError:
                        alive = False
                    except PermissionError:
                        # the pid exists but belongs to another user — it
                        # cannot be a crashed driver of ours (same-user
                        # writes created the lock); treat as held
                        alive = True
                if alive:
                    raise RuntimeError(
                        f"another driver (pid {pid}) holds {self.path}; "
                        "refusing to run two resumable jobs on one out_dir"
                    )
                # TOCTOU-safe takeover (r2 ADVICE): CLAIM the stale lock with
                # an atomic rename before removing it — of N drivers that all
                # read the dead pid, exactly one rename succeeds; the losers
                # fall back to the O_EXCL attempt and see the winner's fresh
                # lock.  A bare unlink here would let a loser delete the
                # winner's just-created lock.
                claim = f"{self.path}.stale.{os.getpid()}"
                try:
                    os.rename(self.path, claim)
                except FileNotFoundError:
                    continue  # another racer claimed it first; retry O_EXCL
                # rename() claims whatever file sits at self.path — which may
                # be a FRESH lock a faster racer already recreated after its
                # own takeover, not the stale one we read.  Verify the claimed
                # pid before discarding; restore a stolen live lock with
                # link() (atomic: fails if yet another lock appeared).
                try:
                    claimed_pid = int(open(claim).read().strip() or "0")
                except (ValueError, OSError):
                    claimed_pid = 0
                if claimed_pid not in (0, pid):
                    try:
                        os.link(claim, self.path)
                    except FileExistsError:
                        raise RuntimeError(
                            f"lock takeover race on {self.path}: claimed live "
                            f"lock of pid {claimed_pid} and a third lock "
                            "appeared before it could be restored; manual "
                            f"cleanup of {claim} required"
                        )
                    os.unlink(claim)
                    continue
                os.unlink(claim)
        raise RuntimeError(f"could not acquire {self.path}")

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def run_resumable(
    input_path: str,
    out_dir: str,
    group_size: int = 64,
    pages_dataset_fn=None,
    batch_size: int = 1024,
    **pipeline_kwargs,
) -> dict:
    """Run (or resume) the flagship pipeline over ``input_path`` parquet.

    Returns {"groups_run": [...], "groups_skipped": [...], "counters": {...},
    "counters_run": {...}}.  ``pages_dataset_fn(files) -> Dataset``
    overrides the reader (tests use it to inject the synthesized-pages
    schema); it must keep one row per input row and carry each row's
    source file in a ``path`` column, as ``read_parquet(files,
    include_paths=True)`` does.

    All pending groups run as one streaming execution and each commits as
    soon as its rows are staged, so lineage lines may be appended out of
    group order, and a record's ``wall_s`` is the seconds since this call's
    previous commit (for the first commit, since the call started).

    ``batch_size`` and ``pipeline_kwargs`` go to
    :func:`quality_filter.build`, with two changes.  In an execution too
    short for two ``batch_size``-row tasks per stage slot, ``batch_size``
    becomes the rows that hold about ``TARGET_BYTES`` of input (never more
    than asked).  ``langid_concurrency`` is resolved to its int cap, which
    the group writer shares so that it runs inside each stage task.
    """
    t_call = time.time()
    files = list_input_files(input_path)
    if not files:
        raise FileNotFoundError(f"no parquet under {input_path}")
    groups = [files[i : i + group_size] for i in range(0, len(files), group_size)]
    # paths in lineage are stored relative to the input root so resuming
    # from a different cwd / path spelling of the SAME data still matches
    rel_root = input_path if os.path.isdir(input_path) else os.path.dirname(input_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    done = completed_groups(out_dir)
    stale = [g for g in done if g >= len(groups)]
    if stale:
        raise RuntimeError(
            f"lineage has committed group(s) {stale} beyond this run's "
            f"{len(groups)} group(s) — the input file set shrank; their "
            "output dirs would silently contribute rows from files no "
            "longer in the input.  Use a fresh out_dir."
        )

    ran, skipped = [], []
    with _RunLock(out_dir):
        _run_groups(
            groups, rel_root, out_dir, done, ran, skipped, t_call,
            pages_dataset_fn, batch_size, pipeline_kwargs,
        )

    totals: Counter = Counter()
    totals_run: Counter = Counter()
    ran_set = set(ran)
    for rec in completed_groups(out_dir).values():
        totals.update(rec.get("counters", {}))
        if rec.get("group") in ran_set:
            totals_run.update(rec.get("counters", {}))
    return {
        "groups_run": sorted(ran),
        "groups_skipped": skipped,
        "counters": dict(totals),  # ALL committed groups (table totals)
        "counters_run": dict(totals_run),  # only groups THIS invocation ran
    }


def _run_groups(
    groups, rel_root, out_dir, done, ran, skipped, t_call,
    pages_dataset_fn, batch_size, pipeline_kwargs,
) -> None:
    from language_identification_ray.pipelines.quality_filter import _default_stage_tasks
    from language_identification_ray.pipelines.quality_filter import build as _build
    from language_identification_ray.sources.pages import read_pages as _read_pages

    pending = {}
    input_bytes = 0  # uncompressed, over the pending groups' footers
    for gid, gfiles in enumerate(groups):
        gname = f"group={gid:05d}"
        gdir = os.path.join(out_dir, gname)
        rel_files = [os.path.relpath(f, rel_root) for f in gfiles]
        if gid in done:
            # a group id is positional; if the input file set or group_size
            # changed since the committed run, gid would map to DIFFERENT
            # files — skipping then silently drops fragments.  Resume is
            # only valid when the lineage record's file list matches
            # (relative form preferred; absolute accepted for old records).
            rec_files = done[gid].get("input_files")
            if rec_files not in (rel_files, gfiles):
                raise RuntimeError(
                    f"lineage mismatch for {gname}: committed run processed "
                    f"{len(rec_files or [])} file(s) starting with "
                    f"{(rec_files or ['<none>'])[0]!r}, but this run's group "
                    f"maps to {len(gfiles)} file(s) starting with "
                    f"{gfiles[0]!r}. The input file set or group_size "
                    "changed — use a fresh out_dir (or delete "
                    f"{LINEAGE_FILE} and all group dirs) instead of resuming."
                )
            skipped.append(gid)
            continue
        staging = _staging_dir(out_dir, gid)
        for leftover in (staging, gdir + "._tmp", gdir):  # redo crashed attempts
            if os.path.exists(leftover):
                shutil.rmtree(leftover)
        os.makedirs(staging)
        # absolute paths: the row tag read_parquet attaches must match this
        # map whatever the caller's or the workers' cwd
        footers = {os.path.abspath(f): pq.read_metadata(f) for f in gfiles}
        pending[gid] = {f: m.num_rows for f, m in footers.items()}
        input_bytes += sum(
            m.row_group(i).total_byte_size for m in footers.values() for i in range(m.num_row_groups)
        )

    t_prev = t_call

    def commit(gid: int, streamed: int, rows: int) -> None:
        """Commit a group whose ``streamed`` rows reached its input ``rows``."""
        nonlocal t_prev
        gname = f"group={gid:05d}"
        staging = _staging_dir(out_dir, gid)
        # exactly-once counters, from the data
        group_counts = _count_staged(staging) if streamed == rows else {}
        if not streamed == group_counts.get("rows") == rows:
            raise RuntimeError(
                f"{gname} not committed: input {rows} row(s), streamed {streamed}, "
                f"staged {group_counts.get('rows', '-')}"
            )
        os.rename(staging, os.path.join(out_dir, gname))  # commit point 1
        # make the rename durable BEFORE the lineage record: otherwise a
        # power loss can persist the fsynced lineage line while the cached
        # rename is lost — resume would then skip a group with no output
        dfd = os.open(out_dir, os.O_DIRECTORY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
        now = time.time()
        rec = {
            "group": gid,
            "dir": gname,
            "input_files": [os.path.relpath(f, rel_root) for f in groups[gid]],
            "wall_s": round(now - t_prev, 3),
            "counters": group_counts,
        }
        t_prev = now
        with open(os.path.join(out_dir, LINEAGE_FILE), "a") as f:  # commit point 2: lineage record
            f.write(json.dumps(rec, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())
        ran.append(gid)

    expected = {gid: sum(sizes.values()) for gid, sizes in pending.items()}
    for gid in [g for g, n in expected.items() if n == 0]:
        commit(gid, 0, 0)  # nothing to stream: commit the empty group now
        del expected[gid]
    if not expected:
        return
    # ONE execution over every pending group (empty fragments add nothing
    # and would only stream schema-less blocks)
    files = [f for gid in expected for f, n in pending[gid].items() if n]
    group_of = {f: gid for gid in expected for f in pending[gid]}
    pages = pages_dataset_fn(files) if pages_dataset_fn else _read_pages(files, include_paths=True)
    # the writer takes the stage's int task cap, so Ray fuses the two into
    # one task (Task->Task fusion needs equal sizes): each stage task writes
    # its own output, with no hand-off to a separate writer operator
    cap = pipeline_kwargs.get("langid_concurrency")
    if cap is None:
        cap = _default_stage_tasks()
    task_rows = _task_rows(batch_size, input_bytes, sum(expected.values()), cap)
    kwargs = {**pipeline_kwargs, "langid_concurrency": cap, "batch_size": task_rows}
    out = _build(pages, **kwargs).map_batches(
        _write_groups,
        batch_format="pyarrow",
        batch_size=None,  # write whatever block arrives; no re-buffering
        concurrency=cap,
        fn_kwargs={"out_dir": out_dir, "group_of": group_of},
    )
    streamed: Counter = Counter()
    # prefetch_batches=0: Ray's prefetch window holds each block back until
    # the next one arrives, so a group's last result would wait on another
    # group's (or the end of the stream) before it could commit
    for res in out.iter_batches(batch_size=None, batch_format="pyarrow", prefetch_batches=0):
        for gid, n in zip(res["group"].to_pylist(), res["rows"].to_pylist()):
            streamed[gid] += n
            if streamed[gid] >= expected[gid]:
                commit(gid, streamed[gid], expected[gid])
    short = {g: f"{streamed[g]}/{n}" for g, n in expected.items() if streamed[g] < n}
    if short:
        raise RuntimeError(f"stream ended with group(s) short of their input rows: {short}")
