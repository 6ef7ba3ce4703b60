"""Production job entrypoint — the script you hand to ``ray job submit``.

    ray job submit --working-dir . -- \
        python scripts/run_job.py --input /data/pages --output /data/filtered

Runs the full north-rule pipeline (decode → langid → quality → perplexity →
scrub → rules) over a Common-Crawl-style pages parquet tree via the
checkpointed resumable runner: work groups commit independently with lineage
records, so re-submitting the SAME command after a crash (or preemption)
skips completed groups and redoes only the in-flight one.

On a cluster the driver connects to the existing Ray address from the job
environment; standalone it starts a local session.  Only this script owns
the session — the library never calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="pages parquet file/dir")
    ap.add_argument("--output", required=True, help="output directory (checkpointed)")
    ap.add_argument("--group-size", type=int, default=64, help="input fragments per commit group")
    ap.add_argument("--batch-size", type=int, default=4096)
    ap.add_argument("--concurrency", type=int, default=0, help="max concurrent stage tasks (0 = max(2, cpus-2))")
    ap.add_argument("--no-perplexity", action="store_true")
    ap.add_argument("--detector", default="ensemble",
                    choices=["ensemble", "ngram", "script", "fasttext"],
                    help="langid detector; fasttext loads a real fastText-format "
                         "model (set FASTTEXT_LID_MODEL for lid.176)")
    ap.add_argument("--per-language-ppl", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=0, help="standalone only; 0 = all")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        import os

        kwargs = dict(include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR")
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        # honor the job environment's RAY_ADDRESS (ray job submit sets it so
        # the driver joins the EXISTING cluster); standalone, None starts a
        # local session — address="local" would force a fresh single-node
        # Ray even inside a cluster job
        ray.init(address=os.environ.get("RAY_ADDRESS"), **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from language_identification_ray.pipelines.checkpoint import run_resumable

    t0 = time.time()
    info = run_resumable(
        args.input,
        args.output,
        group_size=args.group_size,
        langid_concurrency=args.concurrency or None,  # None: max(2, cpus - 2)
        batch_size=args.batch_size,
        with_perplexity=not args.no_perplexity,
        perplexity_per_language=args.per_language_ppl,
        detector=args.detector,
    )
    wall = time.time() - t0
    rows = info["counters"].get("rows", 0)
    rows_run = info["counters_run"].get("rows", 0)
    print(
        json.dumps(
            {
                "groups_run": info["groups_run"],
                "groups_skipped": info["groups_skipped"],
                "rows": rows,
                "kept": info["counters"].get("kept", 0),
                "wall_s": round(wall, 2),
                # throughput of THIS invocation only: on a resume, `rows`
                # includes previously committed groups this run never touched
                "docs_per_sec": round(rows_run / wall, 1) if wall > 0 and info["groups_run"] else None,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
