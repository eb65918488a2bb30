"""Canonical serialization for reproducible reports.

Sweep and curve outputs must be byte-identical across runs, so
everything funnels through one canonical JSON form: plain Python types,
sorted keys, no whitespace, non-finite floats as strings, no timestamps.
Every artifact is written whole to a temp file beside its target and then
renamed over it, so an interrupted run never leaves a half-written file
under an artifact's name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np


def sanitize(obj):
    """Recursively convert to canonical plain-Python values: numpy scalars
    and arrays to Python numbers and lists, non-finite floats to the
    strings "inf", "-inf", "nan"."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj):
    """Deterministic JSON text for a sanitized object."""
    return json.dumps(sanitize(obj), sort_keys=True, separators=(",", ":"))


def content_hash(text):
    """sha256 hex digest of serialized report content."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def with_content_hash(obj):
    """Copy of a dict with its own canonical-JSON sha256 embedded under
    'content_sha256' (computed before embedding)."""
    body = dict(sanitize(obj))
    body.pop("content_sha256", None)
    body["content_sha256"] = content_hash(canonical_json(body))
    return body


def replace_file(path, text):
    """Write ``text`` to ``path`` atomically: a temp file in the same
    directory, then ``os.replace``.  On any failure the temp file is
    removed and an existing file at ``path`` is left as it was."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, obj):
    replace_file(path, canonical_json(with_content_hash(obj)) + "\n")


def write_jsonl(path, header, records):
    """JSON-lines file: one header record, then one record per line.
    The header carries a hash over the record lines plus its own."""
    lines = [canonical_json(rec) for rec in records]
    header = dict(header)
    header["records_sha256"] = content_hash("\n".join(lines))
    head = canonical_json(with_content_hash(header))
    replace_file(path, "\n".join([head] + lines) + "\n")


def write_table(path, columns, rows, config, fmt="csv"):
    """Tabular artifact in CSV (comment-embedded config and body hash) or
    JSON ({columns, rows, config} with embedded hash) form."""
    if fmt == "json":
        write_json(path, {"columns": list(columns), "rows": rows, "config": config})
        return
    body_lines = [",".join(columns)]
    body_lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    body = "\n".join(body_lines) + "\n"
    replace_file(
        path,
        "# config: %s\n# content_sha256: %s\n%s"
        % (canonical_json(config), content_hash(body), body),
    )


def _csv_cell(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)
