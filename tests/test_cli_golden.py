"""Exact CLI output bytes for the float-free reports (oracle, closure, generate).

Each case's expected stdout (or, with --output, the written file) lives in
tests/data/cli_golden/<name>.out; every case exits 0.
"""

from pathlib import Path

import pytest

from hamspec.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
GRAPHS = str(GOLDEN / "graphs.g6")  # four graphs, orders 4, 5, 6, 4

CASES = {
    "oracle_g6": ["oracle", "--g6", "Dhc"],
    "oracle_family": ["oracle", "--family", "cycle", "--n", "6"],
    "oracle_file": ["oracle", "--file", GRAPHS],
    "closure_g6": ["closure", "--g6", "Cl", "--k", "4"],
    "closure_family": ["closure", "--family", "path", "--n", "5", "--k", "4"],
    "closure_file": ["closure", "--file", GRAPHS, "--k", "4"],
    "generate_family": ["generate", "--family", "join-of-two-cliques", "--n", "8", "--s", "3"],
    "generate_circulant": ["generate", "--family", "circulant", "--n", "7",
                           "--connections", "1,2"],
}
FORMATS = ("json", "text")


def _expected(name: str) -> str:
    return (GOLDEN / f"{name}.out").read_text(encoding="ascii")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(capsys, case, fmt):
    code = main(CASES[case] + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == _expected(f"{case}.{fmt}")


@pytest.mark.parametrize("argv,name", [
    (["generate", "--family", "cycle", "--n", "5", "--format", "text"], "generate_output.text"),
    (["oracle", "--file", GRAPHS, "--format", "json"], "oracle_file.json"),
])
def test_cli_output_file_matches_golden(tmp_path, capsys, argv, name):
    dst = tmp_path / "report"
    code = main(argv + ["--output", str(dst)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert dst.read_text(encoding="ascii") == _expected(name)
