"""Output fingerprints and the committed reference table they are checked against.

An op's fingerprint is its term count and the sha256 of the sorted text
renders of its outputs.  ``data/reference.json.gz`` maps every op key any
seed can produce to the fingerprint recorded at the baseline commit, so a run
on any seed is checked op by op.  A pass's aggregate fingerprint is the sha256
of its sorted per-op digests.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os

from planarhopf.grammar import serialize_basis

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "data", "reference.json.gz")
DIGEST_CHARS = 16


def render_lines(values) -> list:
    """One sorted block of text lines per output value."""
    lines = []
    for value in values:
        if isinstance(value, dict):
            lines.extend(sorted(f"{c}*{serialize_basis(b)}" for b, c in value.items()))
        else:
            lines.append(str(value))
        lines.append("--")
    return lines


def fingerprint(values) -> tuple:
    """``(terms, digest)`` of an op's outputs."""
    terms = sum(len(v) if isinstance(v, dict) else 1 for v in values)
    text = "\n".join(render_lines(values)).encode("utf-8")
    return terms, hashlib.sha256(text).hexdigest()[:DIGEST_CHARS]


def aggregate(digests) -> str:
    return hashlib.sha256("\n".join(sorted(digests)).encode("ascii")).hexdigest()


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def mismatches(observed: dict, workload: str) -> list:
    """Op keys whose fingerprint differs from (or is missing in) the reference."""
    ref = load_reference(workload)
    return [key for key, fp in observed.items() if ref.get(key) != list(fp)]
