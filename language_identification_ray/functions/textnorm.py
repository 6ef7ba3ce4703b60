"""Decode / normalization scalar functions.

Mirrors the *semantics* of the reference decode path (reference
``utils.py:15-37``: bytes → UnicodeDammit.detwingle → encoding guess → ftfy
mojibake repair) with a self-contained implementation — neither bs4 nor ftfy
exists in this environment, so the byte-identical-text invariant is defined
against THIS decoder and pinned by golden fixtures in tests/.

All functions are deterministic and stateless; they run inside
``map_batches`` task stages (no actor needed).
"""

from __future__ import annotations

import os
import re
from typing import Iterable, Optional, Tuple, Union

RE_WHITESPACE = re.compile(r"\s", flags=re.U)
RE_NUMBERS = re.compile(r"\b\d+\b", flags=re.U)

# Reference guardrail: documents larger than this are truncated before any UDF
# (reference ``preprocessing.py:13``).
BYTE_LENGTH_LIMIT = 10 * 1024 * 1024

# Bytes 0x80-0x9F are C1 controls in latin-1 but printable in windows-1252;
# their presence in a non-UTF-8 byte string almost always means cp1252.
_CP1252_PRINTABLE = set(range(0x80, 0xA0)) - {0x81, 0x8D, 0x8F, 0x90, 0x9D}

# UTF-8-read-as-cp1252 mojibake: a UTF-8 LEAD byte (0xC2-0xF4) rendered as a
# cp1252/latin-1 char (U+00C2-U+00F4 - covers 2/3/4-byte leads, so Cyrillic
# '\u00d0'/'\u00d1', Greek '\u00ce'/'\u00cf', Arabic '\u00d8'/'\u00d9' mojibake is caught, not just
# Latin '\u00c3'), followed by a CONTINUATION byte (0x80-0xBF) as its cp1252 or
# latin-1 rendering.  The hint only gates the attempt; the strict
# encode\u2192decode round trip in fix_mojibake is the real safety check.
_MOJIBAKE_HINT = re.compile("[\u00c2-\u00f4][\x80-\xbf\u20ac\u201a\u0192\u201e\u2026\u2020\u2021\u02c6\u2030\u0160\u2039\u0152\u017d\u2018\u2019\u201c\u201d\u2022\u2013\u2014\u02dc\u2122\u0161\u203a\u0153\u017e\u0178]")


# "Detwingle" support (reference ``utils.py:26-27``,
# ``UnicodeDammit.detwingle`` semantics): web pages assembled from multiple
# sources often interleave raw windows-1252 bytes (smart quotes pasted from a
# CMS) INSIDE otherwise-valid UTF-8.  Decoding such a page wholesale as
# either encoding mangles the other part.  The repair is byte-level and must
# happen BEFORE decoding: keep every valid UTF-8 sequence, map every stray
# byte through cp1252 (latin-1 C1 controls for the five undefined code
# points).  Implemented as a codec error handler so the valid runs decode at
# C speed and only the stray bytes hit Python.
import codecs as _codecs


def _cp1252_interleave(err: UnicodeDecodeError):
    b = err.object[err.start]
    ch = bytes([b]).decode("cp1252", errors="ignore") or chr(b)
    return ch, err.start + 1


_codecs.register_error("li_cp1252_interleave", _cp1252_interleave)

# evidence of genuine UTF-8 content: one complete multibyte sequence
_RE_UTF8_MULTIBYTE = re.compile(
    rb"[\xc2-\xdf][\x80-\xbf]|[\xe0-\xef][\x80-\xbf]{2}|[\xf0-\xf4][\x80-\xbf]{3}"
)


def detwingle_bytes(data: Union[bytes, bytearray]) -> bytes:
    """Byte-level repair of windows-1252 bytes interleaved inside UTF-8
    (reference ``utils.py:26-27``): returns bytes that decode as valid
    UTF-8, with every non-UTF-8 byte replaced by the UTF-8 encoding of its
    cp1252 character.  Pure-UTF-8 input round-trips unchanged."""
    return bytes(data).decode("utf-8", errors="li_cp1252_interleave").encode("utf-8")


def decode_bytes(data: Union[bytes, bytearray], most_likely_encodings: Iterable[str] = ()) -> str:
    """bytes → str: try caller hints, then UTF-8 (with BOM), then — when the
    bytes hold at least one complete UTF-8 multibyte sequence — the
    detwingle repair (mixed cp1252-inside-UTF-8 pages, reference
    ``utils.py:26-27``), else cp1252/latin-1 wholesale.

    Stands in for UnicodeDammit (reference ``utils.py:26-34``).  Deterministic
    priority order; never raises.
    """
    data = bytes(data)
    for enc in list(most_likely_encodings) + ["utf-8-sig"]:
        try:
            return data.decode(enc)
        except (UnicodeDecodeError, LookupError):
            continue
    # mixed encodings: genuine UTF-8 content with stray legacy bytes — decode
    # the UTF-8 runs and map each stray byte through cp1252 (detwingle)
    if _RE_UTF8_MULTIBYTE.search(data):
        return data.decode("utf-8", errors="li_cp1252_interleave")
    # pure legacy: windows-1252 if its printable C1 range is used, else latin-1
    if any(b in _CP1252_PRINTABLE for b in data):
        return data.decode("cp1252", errors="replace")
    return data.decode("latin-1")


def _mojibake_roundtrip(text: str) -> Optional[str]:
    """One strict encode→decode repair attempt, or None if neither legacy
    encoding round-trips to valid UTF-8."""
    for enc in ("cp1252", "latin-1"):
        try:
            return text.encode(enc, errors="strict").decode("utf-8", errors="strict")
        except (UnicodeEncodeError, UnicodeDecodeError):
            continue
    return None


def fix_mojibake(text: str, max_passes: int = 2) -> str:
    """Repair UTF-8-decoded-as-cp1252 mojibake ('â€™' → '’'), the core ftfy
    behavior relied on by the reference (``utils.py:37``).  Applies only when
    a re-encode→decode round trip succeeds AND the tell-tale lead bytes are
    present, so plain text is untouched.

    The round trip is tried whole-text first (cheap, one pass); when a char
    outside cp1252/latin-1 blocks the encode (an emoji, CJK, or U+FFFD
    elsewhere in the document — common on real web pages), the repair falls
    back to TOKEN-WISE round trips so unrelated characters cannot veto the
    mojibake spans."""
    for _ in range(max_passes):
        if not _MOJIBAKE_HINT.search(text):
            return text
        fixed = _mojibake_roundtrip(text)
        if fixed is None:
            parts = text.split(" ")
            changed = False
            for idx, part in enumerate(parts):
                if _MOJIBAKE_HINT.search(part):
                    repaired = _mojibake_roundtrip(part)
                    if repaired is not None and repaired != part:
                        parts[idx] = repaired
                        changed = True
            if not changed:
                return text
            fixed = " ".join(parts)
        if fixed == text:
            return text
        text = fixed
    return text


def ensure_unicode(text: Union[str, bytes, bytearray], most_likely_encodings: Iterable[str] = ()) -> str:
    """Decode + mojibake-fix, the engine's equivalent of reference
    ``utils.py:15-37``."""
    if isinstance(text, (bytes, bytearray)):
        text = decode_bytes(text, most_likely_encodings)
    elif not isinstance(text, str):
        text = str(text)
    return fix_mojibake(text)


def clean_text(text: Union[str, bytes]) -> str:
    """Normalize for language-ID scoring, matching reference
    ``preprocessing.py:16-27`` except that empty output returns '' instead of
    raising (a Dataset row must not throw): ensure unicode, delete standalone
    numbers, collapse whitespace."""
    text = ensure_unicode(text)
    text = RE_NUMBERS.sub("", text)
    # str.split() splits on exactly the characters re's Unicode \s matches
    return " ".join(text.split())


def truncate_text(
    text: str,
    max_bytes_length: Optional[int] = None,
    max_str_length: Optional[int] = None,
    truncate_to_space: bool = True,
) -> str:
    """Truncate to a UTF-8 byte cap and/or char cap, backing off to the last
    whitespace in the final 1% — same contract as reference
    ``utils.py:91-132`` (the bisect there is replaced by an exact UTF-8
    boundary backoff, which yields the same maximal prefix)."""
    if not text:
        return ""

    cut = len(text)
    if max_str_length is not None:
        cut = min(cut, max_str_length)

    if max_bytes_length is not None:
        cut = min(cut, max_bytes_length)
        encoded = text[:cut].encode("utf-8")
        if len(encoded) > max_bytes_length:
            # cut the byte string at the cap; decode-ignore keeps every
            # COMPLETE char and drops only an incomplete tail sequence —
            # a manual strip-continuation-bytes loop would also delete a
            # complete final multibyte char whose last byte is (valid)
            # 0x80-0xBF, returning one char less than the maximal prefix
            cut = len(encoded[:max_bytes_length].decode("utf-8", errors="ignore"))

    if truncate_to_space and cut < len(text):
        window = max(cut // 100, 0)
        for i in range(window):
            if RE_WHITESPACE.fullmatch(text[cut - i]) is not None:
                cut = cut - i
                break

    return text[:cut].strip()


_COMPRESSION_SUFFIXES = {".gz", ".bz2", ".lz", ".lzma", ".lzo", ".xz", ".z", ".zst"} | {
    # split archives conventionally number .001-.999 (three digits)
    f".{i:03d}" for i in range(1000)
}


def split_filename(filename: Union[os.PathLike, str]) -> Tuple[str, str]:
    """filename → (stem, normalized extension), keeping compression/.NNN
    suffixes attached — same contract as reference ``utils.py:50-88``."""
    extension_max_len = 6
    name = ensure_unicode(os.path.basename(os.fspath(filename)))
    if "." not in name:
        return name.strip(), ""
    stem, ext = name.rsplit(".", 1)
    ext = "." + ext.strip().lower()

    suffix = ""
    if ext in _COMPRESSION_SUFFIXES and "." in stem[-extension_max_len:]:
        suffix = ext
        stem, ext = stem.rsplit(".", 1)
        ext = "." + ext.strip().lower()

    if len(ext) > extension_max_len:
        stem, ext = stem + ext, ""
    elif ext == ".htm":
        ext = ".html"
    elif ext == ".jpeg":
        ext = ".jpg"

    return stem.strip(), ext + suffix
