"""Byte-exact CLI output: stdout, stderr and exit code of a fixed command matrix.

The expected text lives in cli_golden.json next to this file.  `search` is left
out because its report carries timings.  A command that argparse refuses is
recorded with its exit code and usage text, formatted at 80 columns.  After a
deliberate output change, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from isecode import block_product_family, save_family
from isecode.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FAMILY = "<FAMILY>"  # stands for the verify input's path, which differs per run
FORMATS = ("text", "json", "csv")

COMMANDS = {
    "bound": ("bound", "-n", "5", "-s", "3", "-t", "3,0,0"),
    "bound-refusal": ("bound", "-n", "2", "-s", "3", "-t", "3,0,0"),
    "construct-product": ("construct", "product", "-n", "5", "-s", "3", "-t", "3,0,0"),
    "construct-binary-majority": (
        "construct", "binary-majority", "-n", "4", "-t", "1,1", "--x1", "1,2,3", "--x2", "4",
    ),
    "construct-symbol-majority": (
        "construct", "symbol-majority", "-n", "3", "-s", "3", "-t", "1", "--x", "1,2,3",
    ),
    "construct-window": ("construct", "window", "-n", "5", "-s", "3", "-t", "2", "-r", "1"),
    "verify": ("verify", FAMILY, "-t", "3,0,0"),
    "verify-no-demand": ("verify", FAMILY),
    "correlate-exhaustive": (
        "correlate", "-s", "3", "--pins-a", "1", "--pins-b", "2", "--exhaustive",
    ),
    "correlate-random": (
        "correlate", "-s", "3", "-n", "2", "--pins-a", "1", "--pins-b", "2,3",
        "--trials", "6", "--seed", "1",
    ),
    "table-bounds": ("table", "--what", "bounds", "-s", "3", "--n-max", "2"),
    "table-oracle": ("table", "--what", "oracle", "-s", "2", "--n-max", "2"),
    "table-measures": ("table", "--what", "measures", "-n", "9", "-s", "3", "--t-max", "4"),
}
for _name in [k for k in COMMANDS if k.startswith("construct-")]:
    COMMANDS[_name + "-density"] = COMMANDS[_name] + ("--density-only",)

CASES = [f"{name}.{fmt}" for name in COMMANDS for fmt in FORMATS]
FILE_CASES = [c for c in CASES if c.startswith(("correlate-", "table-"))]


def _family_file(directory: Path) -> str:
    path = directory / "f.fam"
    save_family(block_product_family(5, 3, (3, 0, 0)).family, path)
    return str(path)


def _run(argv) -> dict:
    out, err = io.StringIO(newline=""), io.StringIO(newline="")
    # argparse wraps its usage text to COLUMNS, else to the terminal's width
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses before main returns
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_case(case: str, directory: Path, *extra: str) -> dict:
    name, fmt = case.rsplit(".", 1)
    family = _family_file(directory)
    argv = [family if a == FAMILY else a for a in COMMANDS[name]]
    result = _run([*argv, "--format", fmt, *extra])
    for key in ("stdout", "stderr"):
        result[key] = result[key].replace(family, FAMILY)
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_byte_identical(golden, case, tmp_path):
    assert _run_case(case, tmp_path) == golden[case]


@pytest.mark.parametrize("case", FILE_CASES)
def test_output_file_holds_the_stdout_bytes(golden, case, tmp_path):
    path = tmp_path / "report.out"
    result = _run_case(case, tmp_path, "-o", str(path))
    if golden[case]["code"] != 0:  # a refused command writes no file and reports as before
        assert result == golden[case] and not path.exists()
        return
    assert result == {"code": golden[case]["code"], "stdout": "", "stderr": ""}
    with open(path, newline="") as f:
        assert f.read() == golden[case]["stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        expected = {case: _run_case(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {len(expected)} cases to {GOLDEN}", file=sys.stderr)
