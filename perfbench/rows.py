"""Output checks: canonical rows, row checks, digests and reference rows.

A point fails when its sweep raised, its row is missing (a partial
distributed result) or breaks the spec's row schema, or it fails a row
check:

* ``matches_kruskal`` is ``True`` (Section 6 MST exactness);
* ``det_size_exact`` is ``True`` (or ``-`` when the size protocols are off);
* ``sync_msg_overhead(≤2)`` is at most 2 (Corollary 4);
* ``"abort"`` appears only in sweeps that inject faults.

Reference rows are stored per workload under ``reference/``; a point whose
canonical row differs from its reference row counts as *changed* — a
speed-only change must leave every simulated statistic identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.serialization import encode_nonfinite

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SYNC_OVERHEAD = "sync_msg_overhead(≤2)"


def canonical(row: Mapping[str, Any]) -> str:
    """Return the canonical JSON text of one row (tuples and lists agree)."""
    return json.dumps(
        encode_nonfinite(dict(row)), sort_keys=True, separators=(",", ":"),
        allow_nan=False, ensure_ascii=False,
    )


def _is_abort(value: Any) -> bool:
    return isinstance(value, str) and "abort" in value


def row_problems(
    row: Mapping[str, Any], columns: Sequence[str], faulty: bool
) -> List[str]:
    """Return the row checks ``row`` fails (empty when it passes)."""
    if set(row) != set(columns):
        return [f"schema: got {sorted(row)}"]
    problems = []
    if "matches_kruskal" in row and row["matches_kruskal"] is not True:
        problems.append("matches_kruskal is not True")
    exact = row.get("det_size_exact", True)
    if exact is not True and exact != "-" and not (faulty and _is_abort(exact)):
        problems.append(f"det_size_exact is {exact!r}")
    overhead = row.get(SYNC_OVERHEAD, 0)
    if not (faulty and _is_abort(overhead)) and not (
        isinstance(overhead, (int, float)) and overhead <= 2
    ):
        problems.append(f"{SYNC_OVERHEAD} is {overhead!r}")
    if not faulty and any(_is_abort(value) for value in row.values()):
        problems.append("abort in a fault-free sweep")
    return problems


def digest(rows_by_label: Mapping[str, Sequence[Mapping[str, Any]]],
           labels: Sequence[str]) -> str:
    """Return the sha256 of a workload's canonical rows, in ``labels`` order."""
    sha = hashlib.sha256()
    for label in labels:
        for row in rows_by_label.get(label, ()):
            sha.update(f"{label}\t{canonical(row)}\n".encode("utf-8"))
    return sha.hexdigest()


def reference_path(workload: str, workload_seed: Optional[int]) -> Path:
    """Return the reference-rows file of a workload at a workload seed."""
    suffix = "" if workload_seed is None else f".seed{workload_seed}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def load_reference(path: Path) -> Optional[Dict[str, List[str]]]:
    """Return ``{label: [canonical row, ...]}`` from a reference file, if any."""
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        label: [canonical(row) for row in rows]
        for label, rows in data["sweeps"].items()
    }


def write_reference(
    path: Path,
    workload: str,
    workload_seed: Optional[int],
    rows_by_label: Mapping[str, Sequence[Mapping[str, Any]]],
    labels: Sequence[str],
) -> None:
    """Record a workload's rows as its reference, in ``labels`` order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload,
        "workload_seed": workload_seed,
        "sha256": digest(rows_by_label, labels),
        "sweeps": {
            label: [json.loads(canonical(row)) for row in rows_by_label[label]]
            for label in labels
        },
    }
    path.write_text(
        json.dumps(payload, indent=1, ensure_ascii=False, allow_nan=False) + "\n",
        encoding="utf-8",
    )
