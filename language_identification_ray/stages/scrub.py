"""PII / toxicity scrub stage.

Compiled-regex scrubber per the north_star spec (emails, phone numbers,
SSN-shaped ids, a slur lexicon) plus the repeated-sequence clamp the
reference specifies as a design note but never implemented (reference
README.md:149-153: clamp repeating patterns of length 1-4 to ≤5 reps).

Emits ``scrubbed_text`` and flat ``pii_*`` count columns.  Regexes are
compiled once per actor in ``__init__``; bodies are plain ``re.sub`` per row
(regex work is C-level; the rows loop is the cheap part).

The slur lexicon here is a neutral PLACEHOLDER list (the engine's real
deployment would broadcast a curated lexicon object via ``ray.put``); the
plumbing — counting + masking + the drop rule — is real and tested.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa

from language_identification_ray.functions.tokenizer import BatchTokens
from language_identification_ray.stages.langid import set_or_append

RE_EMAIL = re.compile(r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+", flags=re.U)
# international-ish phone: optional +CC, 3 groups of digits with separators
# re.ASCII: \d must mean 0-9 only — the vectorized digit GATE below counts
# ASCII digits, and Unicode \d (fullwidth/Arabic-Indic digits) would match
# docs the gate filters out, silently leaking that PII unscrubbed
RE_PHONE = re.compile(
    r"(?<!\d)(?:\+?\d{1,3}[-.\s])?(?:\(?\d{3}\)?[-.\s])\d{3}[-.\s]\d{4}(?!\d)", flags=re.ASCII
)
RE_SSN = re.compile(r"(?<!\d)\d{3}-\d{2}-\d{4}(?!\d)", flags=re.ASCII)
# reference README.md:149-153 design note: clamp repeats of 1-4 char patterns
RE_REPEAT = re.compile(r"(.{1,4}?)\1{4,}", flags=re.S)

DEFAULT_SLUR_LEXICON: tuple = ("badslur1", "badslur2", "badslur3")

EMAIL_TOKEN = "<EMAIL>"
PHONE_TOKEN = "<PHONE>"
SSN_TOKEN = "<SSN>"
SLUR_TOKEN = "<SLUR>"


def _scrub_gates(texts: List[str], bt=None) -> tuple:
    """Vectorized per-doc preconditions for the regex passes (one classify
    pass over the joined batch — ~1 µs/doc vs 10-50 µs/doc per regex):

      * ``has_at``     — doc contains '@' (necessary for RE_EMAIL)
      * ``has_digits`` — doc contains ≥ 9 ASCII digits (RE_SSN needs 9,
        RE_PHONE ≥ 10; both count only 0-9)
      * ``has_repeat`` — doc has a position run where s[i] == s[i+k] for
        ≥ 4k consecutive i, some k ≤ 4 (necessary for RE_REPEAT: p⁵ with
        |p| = k implies exactly that run)

    All three are *necessary* conditions — a gated-out doc can never match,
    so the output is byte-identical to running every regex everywhere."""
    n = len(texts)
    if n == 0:
        z = np.zeros(0, dtype=bool)
        return z, z, z
    if bt is None:
        # the fused stage passes the QualityStats BatchTokens; a standalone
        # Scrubber builds its own (same '\n' join, errors="replace" encode
        # — a lone surrogate gates as '?' noise instead of raising)
        bt = BatchTokens(texts)
    cps = bt.cps
    doc_of = bt.doc_of_char()

    at_mask = cps == np.uint32(64)  # '@'
    has_at = np.zeros(n, dtype=bool)
    has_at[np.unique(doc_of[at_mask])] = True

    digit_mask = (cps >= np.uint32(48)) & (cps <= np.uint32(57))
    digit_counts = np.bincount(doc_of[digit_mask], minlength=n)
    has_digits = digit_counts >= 9

    has_repeat = np.zeros(n, dtype=bool)
    for k in (1, 2, 3, 4):
        if len(cps) <= k:
            break
        eq = cps[k:] == cps[:-k]
        # run length ending at i: rl[i] = eq[i] ? rl[i-1]+1 : 0, vectorized
        idx = np.arange(len(eq))
        start = np.maximum.accumulate(np.where(~eq, idx, -1))
        rl = np.where(eq, idx - start, 0)
        hits = np.flatnonzero(rl >= 4 * k)
        if len(hits):
            # positions i..i+k span docs; separator '\n' never equals text
            # chars of interest across docs? it can (newline==newline) —
            # but texts are whitespace-collapsed upstream; map via doc_of
            has_repeat[np.unique(doc_of[hits])] = True
    return has_at, has_digits, has_repeat


class Scrubber:
    """``ds.map_batches(Scrubber, batch_format="pyarrow", concurrency=N)``"""

    def __init__(self, text_column: str = "text", slur_lexicon: Optional[Sequence[str]] = None):
        self.text_column = text_column
        lex = list(slur_lexicon) if slur_lexicon is not None else list(DEFAULT_SLUR_LEXICON)
        self.re_slur = self.slur_gate = None
        self.slur_in_tokens = False
        if lex:
            alt = "(?:" + "|".join(re.escape(w) for w in sorted(lex, key=len, reverse=True)) + ")"
            self.re_slur = re.compile(r"\b" + alt + r"\b", flags=re.I | re.U)
            # the same words without \b: a doc with no gate hit has no slur
            self.slur_gate = re.compile(alt, flags=re.I | re.U)
            # the slur pass runs after the email/digit passes, so a match can
            # also overlap a token they insert: one that contains '<' or '>',
            # or one inside the token's word
            self.slur_in_tokens = any("<" in w or ">" in w for w in lex) or any(
                self.slur_gate.search(t) for t in (EMAIL_TOKEN, PHONE_TOKEN, SSN_TOKEN)
            )

    def _slur_docs(self, bt: BatchTokens) -> np.ndarray:
        """bool[n_docs]: docs with a ``slur_gate`` hit, from one search per
        hit doc over the joined batch (a necessary condition for
        ``re_slur``, like the ``_scrub_gates`` ones)."""
        hit = np.zeros(bt.n_docs, dtype=bool)
        if self.slur_gate is None:
            return hit
        joined, offsets, pos = bt.joined, bt.doc_offsets, 0
        while pos <= len(joined) and (m := self.slur_gate.search(joined, pos)) is not None:
            d = int(np.searchsorted(offsets, m.start(), side="right")) - 1
            hit[d] = True
            pos = int(offsets[d + 1])  # on to the next doc
        return hit

    def scrub_one(
        self,
        text: str,
        try_email: bool = True,
        try_digits: bool = True,
        try_repeat: bool = True,
        try_slur: bool = True,
    ) -> tuple[str, int, int, int, int]:
        """The ``try_*`` flags are gate hints (see ``_scrub_gates`` and
        ``_slur_docs``) — a False flag means the corresponding regex cannot
        match, so skipping it leaves the output byte-identical."""
        emails = phones = ssns = slurs = 0

        def _email(m):
            nonlocal emails
            emails += 1
            return EMAIL_TOKEN

        def _ssn(m):
            nonlocal ssns
            ssns += 1
            return SSN_TOKEN

        def _phone(m):
            nonlocal phones
            phones += 1
            return PHONE_TOKEN

        if try_email:
            text = RE_EMAIL.sub(_email, text)
        if try_digits:
            text = RE_SSN.sub(_ssn, text)  # SSN before phone: xxx-xx-xxxx ⊄ phone shapes
            text = RE_PHONE.sub(_phone, text)
        if try_slur and self.re_slur is not None:

            def _slur(m):
                nonlocal slurs
                slurs += 1
                return SLUR_TOKEN

            text = self.re_slur.sub(_slur, text)
        if try_repeat:
            text = RE_REPEAT.sub(lambda m: m.group(1) * 5, text)
        return text, emails, phones, ssns, slurs

    def __call__(self, batch: pa.Table, texts=None, bt=None) -> pa.Table:
        if texts is None:
            texts = [t or "" for t in batch[self.text_column].to_pylist()]
        if bt is None:
            bt = BatchTokens(texts)
        has_at, has_digits, has_repeat = _scrub_gates(texts, bt=bt)
        has_slur = self._slur_docs(bt)
        if self.slur_in_tokens:
            has_slur |= has_at | has_digits
        scrubbed, emails, phones, ssns, slurs = [], [], [], [], []
        for d, t in enumerate(texts):
            s, e, p, n, sl = self.scrub_one(
                t, bool(has_at[d]), bool(has_digits[d]), bool(has_repeat[d]), bool(has_slur[d])
            )
            scrubbed.append(s)
            emails.append(e)
            phones.append(p)
            ssns.append(n)
            slurs.append(sl)
        for name, arr, typ in [
            ("scrubbed_text", scrubbed, pa.string()),
            ("pii_emails", emails, pa.int32()),
            ("pii_phones", phones, pa.int32()),
            ("pii_ssns", ssns, pa.int32()),
            ("pii_slurs", slurs, pa.int32()),
        ]:
            batch = set_or_append(batch, name, pa.array(arr, typ))
        return batch
