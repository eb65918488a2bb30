"""Artifact writers replace files atomically."""

import pytest

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

