"""Byte-identity gate: every command in golden_manifest.json must print the
same bytes, exit with the same code and write the same --out file.

The manifest lists each argv explicitly: the benchmark's commands at its
seeds 0 and 1, both verify reports in both formats, and one artifact written
through --out (its path is the placeholder OUT).  Each command runs in
process through cli.main with stdout captured, which gives the CLI's bytes.

A failure here is an artifact change.  If the change is deliberate, update
the entry and name the old hash, the new hash and the reason in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from treeperc import cli

MANIFEST = Path(__file__).with_name("golden_manifest.json")
OUT = "OUT"
ENTRIES = json.loads(MANIFEST.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(argv: list[str], out_path: Path) -> dict:
    """Run one argv through cli.main; return its exit code and the sha256 of
    its stdout and, when the argv has --out, of the file written there."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(out_path) if arg == OUT else arg for arg in argv])
    result = {"exit": code, "stdout_sha256": _sha256(stdout.getvalue().encode("utf-8"))}
    if OUT in argv:
        result["out_sha256"] = _sha256(out_path.read_bytes())
    return result


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_command_bytes(entry, tmp_path):
    expected = {key: value for key, value in entry.items() if key != "argv"}
    assert run_entry(entry["argv"], tmp_path / "artifact") == expected
