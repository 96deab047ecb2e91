"""Pinned `verify` reports: the exact compact stdout bytes and exit code.

Each file under tests/golden is the stdout of one `nilflag verify` run.
A change that moves any count, case total or witness shows up here as a
byte difference, without diffing reports by hand.
"""

from pathlib import Path

import pytest

from nilflag.cli import EXIT_FAIL, EXIT_OK, run

GOLDEN = Path(__file__).parent / "golden"

RUNS = [
    ("verify_n3_d5.json", ["--n", "3", "--d", "5"], EXIT_OK),
    ("verify_n4_d5.json", ["--n", "4", "--d", "5"], EXIT_OK),
    ("verify_n3_d7.json", ["--n", "3", "--d", "7"], EXIT_OK),
    ("verify_n6_d6_numeric_p2_3.json",
     ["--n", "6", "--d", "6", "--mode", "numeric", "--primes", "2,3"], EXIT_OK),
    ("verify_n2_d2_literal_paper.json",
     ["--n", "2", "--d", "2", "--convention", "literal-paper"], EXIT_FAIL),
    ("verify_n3_d4_literal_paper.json",
     ["--n", "3", "--d", "4", "--convention", "literal-paper"], EXIT_FAIL),
    ("verify_n3_d4_literal_paper_numeric.json",
     ["--n", "3", "--d", "4", "--convention", "literal-paper", "--mode", "numeric"],
     EXIT_FAIL),
]


@pytest.mark.parametrize("name,argv,exit_code", RUNS, ids=[r[0][:-5] for r in RUNS])
def test_verify_report_bytes(capsys, name, argv, exit_code):
    code = run(["verify", *argv])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    assert captured.err == ""
