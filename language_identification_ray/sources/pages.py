"""The ``pages`` source — Common-Crawl-style web-page table.

``BASELINE.json`` ``input_hint`` fixes the engine's input schema:

    (url: string, warc_ts: timestamp[us], html: binary, text: string,
     lang: string)

Real deployments read that table straight off Parquet
(``read_pages(path)``).  For tests/benchmarks this module *synthesizes* it
deterministically from the driver's ``documents.parquet`` (doc_id, text,
lang, source, n_chars) — same rows at every call, no external data, seeded
only by ``doc_id``:

  * url       = https://{source}.example.org/{lang}/{doc_id}
  * warc_ts   = 2024-01-01T00:00:00 + doc_id seconds
  * html      = one of 5 deterministic HTML templates wrapping the text
                (plain / comments / script+style / entities / nav boilerplate),
                encoded utf-8 except every 17th row (cp1252, exercising the
                decode path of reference ``utils.py:15-37``)
  * text      = pre-extracted text, but EMPTY every 10th row (forces html
                extraction), with PII injected every 7th row and repetition
                spam every 13th row (exercises scrub + repetition rules)
  * lang      = upstream-claimed language, deliberately wrong every 11th row
                (a hint only; must never drive output)
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

import ray.data as rd

_EPOCH_2024 = np.datetime64("2024-01-01T00:00:00", "us")

_PII_SNIPPET = (
    " contact me at john.doe{i}@example.com or call +1 (555) 010-4{i:03d}"
    " ssn 123-45-6{i:03d} thanks"
)
_SPAM_SNIPPET = " spam" + "hahahahahahahaha" * 3 + " foo.jpg bar.jpg baz.jpg foo.jpg bar.jpg baz.jpg"

_WRONG_LANG = {"en": "de", "de": "fr", "fr": "es", "es": "zh", "zh": "en"}


def _render_html(text: str, doc_id: int) -> bytes:
    variant = doc_id % 5
    if variant == 0:
        body = f"<html><body><p>{text}</p></body></html>"
    elif variant == 1:
        body = f"<html><!-- hidden comment {doc_id} --><body><div>{text}</div><!-- trailing --></body></html>"
    elif variant == 2:
        body = (
            f"<html><head><script>var x = {doc_id};</script>"
            f"<style>p {{color: blue}}</style></head><body><p>{text}</p></body></html>"
        )
    elif variant == 3:
        body = f"<html><body><p>{text.replace('&', '&amp;')} &copy; {2000 + doc_id % 25}</p></body></html>"
    else:
        body = (
            f"<html><body><nav><a href='/home'>home</a> <a href='/about'>about</a></nav>"
            f"<article>{text}</article><footer>copyright</footer></body></html>"
        )
    if doc_id % 17 == 0:
        return body.encode("cp1252", errors="replace")
    return body.encode("utf-8")


def _synthesize_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch["doc_id"].to_numpy()
    texts = batch["text"].to_pylist()
    langs = batch["lang"].to_pylist()
    sources = batch["source"].to_pylist()

    out_text, out_html, out_lang, urls = [], [], [], []
    for d, t, lang, src in (zip(doc_ids, texts, langs, sources)):
        d = int(d)
        t = t or ""
        if d % 7 == 0:
            t = t + _PII_SNIPPET.format(i=d % 100)
        if d % 13 == 0:
            t = t + _SPAM_SNIPPET
        urls.append(f"https://{src}.example.org/{lang}/{d}")
        out_html.append(_render_html(t, d))
        out_text.append("" if d % 10 == 0 else t)
        out_lang.append(_WRONG_LANG.get(lang, lang) if d % 11 == 0 else lang)

    ts = _EPOCH_2024 + doc_ids.astype("timedelta64[us]") * 1_000_000
    out = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(out_html, pa.binary()),
            "text": pa.array(out_text, pa.string()),
            "lang": pa.array(out_lang, pa.string()),
        }
    )
    # a source-file tag from read_parquet(include_paths=True) passes through
    if "path" in batch.schema.names:
        out = out.append_column("path", batch["path"])
    return out


def synthesize_pages(sf_dir: str) -> "rd.Dataset":
    """documents.parquet → deterministic pages table (streaming transform)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return ds.map_batches(_synthesize_batch, batch_format="pyarrow")


def read_pages(
    path, columns: Optional[list] = None, include_paths: bool = False
) -> "rd.Dataset":
    """Production source: the pages table straight off Parquet with column
    pruning pushed to the read; ``include_paths`` adds each row's source
    file as a ``path`` column."""
    return rd.read_parquet(path, columns=columns, include_paths=include_paths)
