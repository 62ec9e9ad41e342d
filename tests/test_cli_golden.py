"""CLI reports and output files on the corpus, pinned against stored ones.

Criterion 8 compares two runs of the same code; this test compares each
frozen corpus command with the report, exit code and output file stored
in ``tests/data/cli_golden.json``, so a change that alters any of them
fails here.  Exit codes, keys, integers, booleans, witnesses, cycles,
arcs and output files must match exactly.  Floats match within 1e-9
relative or 1e-12 absolute, because eigensolver residues such as the
zero eigenvalues of ``spectrum p5.ug`` differ in their last bits between
LAPACK builds.

Regenerate the stored file (only when a report is meant to change) with
``PYTHONPATH=src python3 tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from skewspec.cli import run

from cli_corpus import CORPUS_COMMANDS, DATA_DIR, resolve_command

GOLDEN = DATA_DIR / "cli_golden.json"


def run_in_process(template, out_path: Path) -> dict:
    """Run one corpus command through ``cli.run`` and collect its results."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(resolve_command(template, out_path))
    return {
        "argv": list(template),
        "code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out": out_path.read_text(encoding="utf-8") if "OUT" in template else None,
    }


def same(a, b) -> bool:
    """Structural equality of parsed reports, with a tolerance on floats."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_corpus():
    assert [tuple(e["argv"]) for e in _golden()] == [t for t, _ in CORPUS_COMMANDS]


@pytest.mark.parametrize(
    "idx", range(len(CORPUS_COMMANDS)), ids=[" ".join(t) for t, _ in CORPUS_COMMANDS]
)
def test_report_matches_golden(idx, tmp_path, monkeypatch):
    monkeypatch.delenv("SKEWSPEC_TOL", raising=False)
    want = _golden()[idx]
    got = run_in_process(CORPUS_COMMANDS[idx][0], tmp_path / "out")
    assert got["code"] == want["code"] == CORPUS_COMMANDS[idx][1]
    assert got["stderr"] == want["stderr"]
    assert same(json.loads(got["stdout"]), json.loads(want["stdout"])), (
        got["stdout"],
        want["stdout"],
    )
    assert got["out"] == want["out"]


def _capture() -> None:
    os.environ.pop("SKEWSPEC_TOL", None)
    with tempfile.TemporaryDirectory() as tmp:
        entries = [
            run_in_process(template, Path(tmp) / f"{i}.out")
            for i, (template, _) in enumerate(CORPUS_COMMANDS)
        ]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _capture()
