"""Scrubber unit tests (PII regexes + repeated-sequence clamp)."""

import pyarrow as pa

from language_identification_ray.stages.scrub import Scrubber


def scrub(text, **kw):
    return Scrubber(**kw).scrub_one(text)


def test_email():
    out, e, p, s, sl = scrub("mail a.b+c@foo-bar.example.co.uk now")
    assert out == "mail <EMAIL> now" and e == 1


def test_phone_variants():
    for t in ["+1 (555) 010-4003", "555-010-4003", "(555) 010 4003", "+44 555.010.4003"]:
        out, e, p, s, sl = scrub(f"call {t} now")
        assert out == "call <PHONE> now", t
        assert p == 1


def test_ssn_not_phone():
    out, e, p, s, sl = scrub("ssn 123-45-6789 end")
    assert out == "ssn <SSN> end" and s == 1 and p == 0


def test_plain_numbers_untouched():
    out, e, p, s, sl = scrub("in 2024 there were 42 items priced 3.50")
    assert out == "in 2024 there were 42 items priced 3.50"
    assert (e, p, s) == (0, 0, 0)


def test_slur_lexicon():
    out, e, p, s, sl = scrub("you badslur1 and BadSlur2!", slur_lexicon=["badslur1", "badslur2"])
    assert out == "you <SLUR> and <SLUR>!" and sl == 2


def test_repeat_clamp():
    # reference README.md:149-153 design note: ≤5 reps of a 1-4 char pattern
    out, *_ = scrub("ha" * 30)
    assert out == "ha" * 5
    out, *_ = scrub("abcd" * 10)
    assert out == "abcd" * 5
    out, *_ = scrub("normal text stays")
    assert out == "normal text stays"


def test_batch_call():
    t = pa.table({"text": ["a@b.co", "clean"]})
    out = Scrubber()(t)
    assert out["scrubbed_text"].to_pylist() == ["<EMAIL>", "clean"]
    assert out["pii_emails"].to_pylist() == [1, 0]
    assert out["pii_phones"].type == pa.int32()


def test_scrub_gates_are_sound():
    """Property: the vectorized gates are NECESSARY conditions — any doc a
    PII/repeat regex would modify must be gated in (a gated-out doc is
    guaranteed byte-identical under the full regex pass)."""
    import numpy as np

    from language_identification_ray.stages.scrub import (
        RE_EMAIL,
        RE_PHONE,
        RE_REPEAT,
        RE_SSN,
        _scrub_gates,
    )

    texts = [
        "plain text no pii",
        "mail me at a.b+c@example.co.uk today",
        "ssn 123-45-6789 hidden",
        "call (415) 555-0199 now",
        "hahahahahahaha so funny",
        "abababababab pattern",
        "numbers 12345678 only eight",
        "",
        "at sign @ alone",
        "x" * 30,
        "12 34 56 78 90 spread digits",
        # non-ASCII digits: RE_SSN/RE_PHONE are compiled re.ASCII so these
        # must NOT match — and therefore the ASCII-digit gate stays sound
        "ssn １２３-４５-６７８９ fullwidth",
        "call ١٢٣-٤٥٦-٧٨٩٠ arabic",
    ]
    has_at, has_digits, has_repeat = _scrub_gates(texts)
    for i, t in enumerate(texts):
        if RE_EMAIL.search(t):
            assert has_at[i], t
        if RE_SSN.search(t) or RE_PHONE.search(t):
            assert has_digits[i], t
        if RE_REPEAT.search(t):
            assert has_repeat[i], t


def test_scrub_gates_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from language_identification_ray.stages.scrub import (
        RE_EMAIL,
        RE_PHONE,
        RE_REPEAT,
        RE_SSN,
        _scrub_gates,
    )

    alphabet = st.sampled_from(list("ab1@.-() hahaha123456789\né中"))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet, max_size=40), max_size=6))
    def check(texts):
        has_at, has_digits, has_repeat = _scrub_gates(texts)
        for i, t in enumerate(texts):
            if RE_EMAIL.search(t):
                assert has_at[i]
            if RE_SSN.search(t) or RE_PHONE.search(t):
                assert has_digits[i]
            if RE_REPEAT.search(t):
                assert has_repeat[i]

    check()


def test_scrub_gates_tolerate_lone_surrogates():
    """Arrow columns cannot hold lone surrogates, but _scrub_gates also
    serves direct callers with Python lists: a surrogateescape artifact must
    gate as '?' noise (encode-replace), not raise UnicodeEncodeError for the whole batch."""
    from language_identification_ray.stages.scrub import _scrub_gates

    has_at, has_digits, has_repeat = _scrub_gates(
        ["caf\udce9 mail me at a@b.com", "clean text"]
    )
    assert bool(has_at[0]) and not bool(has_at[1])


def _ungated(sc, texts):
    """Every regex pass on every doc: what the gates must reproduce."""
    rows = [sc.scrub_one(t) for t in texts]
    return [r[0] for r in rows], [list(r[1:]) for r in rows]


def _gated(sc, texts):
    out = sc(pa.table({"text": texts}))
    counts = zip(*(out[c].to_pylist() for c in ("pii_emails", "pii_phones", "pii_ssns", "pii_slurs")))
    return out["scrubbed_text"].to_pylist(), [list(c) for c in counts]


def test_slur_gate_byte_identical_at_doc_edges():
    sc = Scrubber()
    texts = [
        "badslur1",
        "badslur1 at the start",
        "at the end BADSLUR2",
        "xbadslur1 glued, no word boundary",
        "",
        "badslur",
        "3 follows the previous doc",
        "clean text between hits",
        "BadSlur3\nbadslur1-badslur2",
        "badslur1",
    ]
    want = _ungated(sc, texts)
    assert sum(c[3] for c in want[1]) == 7
    assert _gated(sc, texts) == want


def test_slur_gate_covers_replacement_tokens():
    """A lexicon word that matches inside a token the email/digit passes
    insert: the slur hit exists only after those passes ran."""
    sc = Scrubber(slur_lexicon=["email", "ssn"])
    assert sc.slur_in_tokens
    texts = ["write to a@b.co today", "plain words", "id 123-45-6789", "email me"]
    want = _ungated(sc, texts)
    assert [c[3] for c in want[1]] == [1, 0, 1, 1]
    assert _gated(sc, texts) == want
    assert not Scrubber().slur_in_tokens


def test_slur_gate_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    pieces = ["badslur1", "BADSLUR2", "badslur", "3", "x", "email", "a@b.co",
              "123-45-6789", "<", ">", " ", "\n", "é", "ssn"]
    doc = st.lists(st.sampled_from(pieces), max_size=12).map("".join)
    scrubbers = [
        Scrubber(),
        Scrubber(slur_lexicon=["email", "ssn", "x<e"]),
        Scrubber(slur_lexicon=["", "x"]),  # the empty word matches everywhere
    ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=8))
    def check(texts):
        for sc in scrubbers:
            assert _gated(sc, texts) == _ungated(sc, texts)

    check()
