"""Byte-identity gate: fixed-flag reports must match the stored copies.

Each file in tests/golden/ is the exact output of one CLI call. A change
that alters any reported number or its formatting fails here; such a
change must regenerate the file and explain the difference.
"""

from pathlib import Path

import pytest

from affinecost.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLAGS = ["--format", "json", "--dims", "1..3", "--trials", "20", "--seed", "0"]

CASES = [
    (f"check_{selector.replace(':', '_')}.json", ["check", "--cost", selector])
    for selector in ("det", "qdet:0.5", "qdet:1", "qdet:2", "trace", "identity")
] + [("kernel_qdet_0.5.json", ["kernel", "--cost", "qdet:0.5"])]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(name, argv, capsys):
    main(argv + FLAGS)
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
