#!/usr/bin/env python3
"""Record the golden CLI reports that ``tests/test_golden.py`` compares against.

Each case in ``cases.json`` is one command line, run in-process through
``fuzzygh.cli.main`` with this directory as the working directory, so the
fixture paths inside the reports are relative.  The exit code goes into
``cases.json``, stdout and stderr into ``reports/<case>.stdout`` and
``reports/<case>.stderr``.  Record only at a commit whose reports are the
reference; a refactor must then reproduce them byte for byte.

    PYTHONPATH=src python3 tests/golden/record.py
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call made from this directory."""
    from fuzzygh.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    reports = HERE / "reports"
    reports.mkdir(exist_ok=True)
    for name, case in cases.items():
        code, out, err = run_case(case["argv"])
        case["code"] = code
        (reports / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        (reports / f"{name}.stderr").write_bytes(err.encode("utf-8"))
    (HERE / "cases.json").write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
