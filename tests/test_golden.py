"""CLI reports compared byte for byte with the reports recorded in tests/golden/.

``tests/golden/record.py`` records them; a refactor must keep every verb's
exit code, stdout and stderr.
"""

import json
from pathlib import Path

import pytest

from golden.record import run_case

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    case = CASES[name]
    code, out, err = run_case(case["argv"])
    assert code == case["code"]
    assert out.encode("utf-8") == (GOLDEN / "reports" / f"{name}.stdout").read_bytes()
    assert err.encode("utf-8") == (GOLDEN / "reports" / f"{name}.stderr").read_bytes()


def test_golden_cases_cover_every_verb():
    verbs = {case["argv"][0] for case in CASES.values()}
    assert verbs >= {
        "check", "diam", "hausdorff", "glue", "mdelta", "gh-bounds",
        "net", "cover", "pigeonhole", "bridge", "example",
    }
    assert any("--eps" in c["argv"] for c in CASES.values() if c["argv"][0] == "hausdorff")
    assert any("--verify" in c["argv"] for c in CASES.values() if c["argv"][0] == "example")
