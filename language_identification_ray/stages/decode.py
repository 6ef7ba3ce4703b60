"""Decode + extract stage: (html, text) → canonical ``text``.

Stateless ``map_batches`` task stage (fuses with neighbours).  Per row:

  1. if the pre-extracted ``text`` is non-empty, keep it;
     else decode ``html`` bytes (reference decode semantics,
     ``utils.py:15-37``) and strip tags/entities
     (reference ``remove_html_tags.py:160-164``);
  2. fix mojibake, collapse whitespace;
  3. truncate to the 10 MiB per-document cap
     (reference ``preprocessing.py:13``).

Emits ``text`` (canonical extracted text — the byte-identical-per-url
invariant is defined on this column) and ``n_bytes`` (pre-truncation UTF-8
size, for run metrics).
"""

from __future__ import annotations

import pyarrow as pa

from language_identification_ray.functions.html import extract_text
from language_identification_ray.functions.textnorm import (
    BYTE_LENGTH_LIMIT,
    ensure_unicode,
    truncate_text,
)


def collapse_whitespace(text: str) -> str:
    """Each line's whitespace runs become one space and its ends are
    trimmed; blank lines are dropped, so single newlines survive.
    ``str.split()`` splits on exactly the characters ``str.isspace()``
    accepts, which is what ``re``'s Unicode ``\\s`` matches."""
    return "\n".join(j for j in (" ".join(line.split()) for line in text.split("\n")) if j)


def decode_and_extract(text: str | None, html: bytes | None) -> "tuple[str, int]":
    """→ (canonical text, pre-truncation utf-8 byte size).

    Whitespace-only pre-extracted text does NOT suppress the html fallback:
    a page whose text field is "  \n " but whose html holds real content
    must be extracted, not emitted empty and dropped downstream.

    Whitespace is collapsed WITHIN lines but single newlines are preserved
    (blank-line runs collapse to one) — collapsing '\\n' too made the
    downstream ``q_max_line_frac`` boilerplate signal identically 1.0 for
    every document on the flagship path."""
    if text and text.strip():
        out = ensure_unicode(text)
    elif html is not None and len(html):
        out = extract_text(ensure_unicode(html))
    else:
        return "", 0
    out = collapse_whitespace(out)
    # n_bytes is the PRE-truncation size (run metrics count input volume;
    # measuring after the 10 MiB cap would silently clip every large doc)
    n = len(out.encode("utf-8"))
    return truncate_text(out, max_bytes_length=BYTE_LENGTH_LIMIT), n


def decode_extract_batch(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pylist() if "text" in batch.schema.names else [None] * len(batch)
    htmls = batch["html"].to_pylist() if "html" in batch.schema.names else [None] * len(batch)
    pairs = [decode_and_extract(t, h) for t, h in zip(texts, htmls)]
    out = [p[0] for p in pairs]
    n_bytes = pa.array([p[1] for p in pairs], pa.int64())

    names = batch.schema.names
    result = batch.set_column(names.index("text"), "text", pa.array(out, pa.string())) if "text" in names else batch.append_column("text", pa.array(out, pa.string()))
    # html bytes are dead weight downstream — drop them here so the object
    # store only carries extracted text through the rest of the pipeline
    if "html" in result.schema.names:
        result = result.drop_columns(["html"])
    if "n_bytes" in result.schema.names:  # idempotent re-decode (fused path)
        result = result.drop_columns(["n_bytes"])
    return result.append_column("n_bytes", n_bytes)
