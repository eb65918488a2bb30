"""Artifact writers replace files atomically, and hash their content with
the standard SHA-256."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stellar_match import reports
from stellar_match.reports import write_json, write_jsonl, write_table

WRITERS = {
    "json": lambda path, n: write_json(path, {"n": n}),
    "jsonl": lambda path, n: write_jsonl(path, {"kind": "test"}, [{"n": n}, {"n": n + 1}]),
    "table": lambda path, n: write_table(path, ("a", "b"), [[n, 1.5]], {"n": n}),
}


class _BrokenFile:
    """File wrapper that writes the first half of a string, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch, kind):
    path = tmp_path / "artifact"
    WRITERS[kind](str(path), 1)
    before = path.read_bytes()

    monkeypatch.setattr(
        reports, "open", lambda *a, **k: _BrokenFile(open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="disk full"):
        WRITERS[kind](str(path), 2)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_write_replaces_artifact(tmp_path, kind):
    path = tmp_path / "artifact"
    WRITERS[kind](str(path), 1)
    first = path.read_bytes()
    WRITERS[kind](str(path), 2)
    assert path.read_bytes() != first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_table_cells_are_the_values_text(tmp_path):
    # a float's shortest round-trip repr, non-finite floats by name, and a
    # numpy scalar as its value
    path = tmp_path / "table.csv"
    row = [7, 1.0 / 3.0, 1e-300, math.inf, -math.inf, math.nan,
           np.float64(1.5)]
    write_table(str(path), "abcdefg", [row], {})
    assert path.read_text().splitlines()[-1] == \
        "7,0.3333333333333333,1e-300,inf,-inf,nan,1.5"


# text around SHA-256's 64-byte block edges: 55 bytes is the longest
# message whose length field fits in its last block, 56 needs another
@given(st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x7F), min_size=54, max_size=66),
    st.text(alphabet="a\u00e9\u20ac\U0001f600", min_size=13, max_size=66),
))
@example("")
@example("x" * 55)
@example("x" * 56)
@example("x" * 64)
@example("\u00e9" * 28)
def test_content_hash_is_the_standard_sha256(text):
    assert reports.content_hash(text) == \
        hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_content_hash_falls_back_to_hashlib():
    # an interpreter without the built-in sha256 module hashes through
    # hashlib, to the same digest
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from stellar_match import reports\n"
        "import hashlib\n"
        "assert reports._sha256 is hashlib.sha256\n"
        "print(reports.content_hash('caf\\u00e9 ' * 20))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == \
        hashlib.sha256(("caf\u00e9 " * 20).encode("utf-8")).hexdigest()
