"""Byte-identity gate: fixed-flag reports must match the stored copies.

Each report file in tests/golden/ is the exact output of one CLI call. A
change that alters any reported number or its formatting fails here; such
a change must regenerate the file and explain the difference.

The MCD cases read mcd_points.csv: 13 points in the plane with four
duplicated points (exact ties), seven points on one line (21 degenerate
5-subsets) and C(13, 5) = 1287 subsets, so tied subsets lie more than
256 subsets apart in lexicographic order.
"""

from pathlib import Path

import pytest

from affinecost.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLAGS = ["--format", "json", "--dims", "1..3", "--trials", "20", "--seed", "0"]
MCD_POINTS = GOLDEN / "mcd_points.csv"

CASES = [
    (f"check_{selector.replace(':', '_')}.json", ["check", "--cost", selector, *FLAGS])
    for selector in ("det", "qdet:0.5", "qdet:1", "qdet:2", "trace", "identity")
] + [("kernel_qdet_0.5.json", ["kernel", "--cost", "qdet:0.5", *FLAGS])] + [
    (f"mcd_{selector.replace(':', '_')}.{ext}",
     ["mcd", "--input", str(MCD_POINTS), "--h", "5", "--cost", selector, "--format", fmt])
    for selector in ("det", "qdet:1", "trace", "identity")
    for fmt, ext in (("json", "json"), ("text", "txt"))
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(name, argv, capsys):
    main(argv)
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
