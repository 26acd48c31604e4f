"""Exact CLI output bytes for the float-free reports (oracle, closure,
generate, validate), and the text layout of the float-bearing ones (analyze,
remark).

Each case's expected stdout (or, with --output, the written file) lives in
tests/data/cli_golden/<name>.out; every case exits 0.  Validate's
`elapsed_ms` is masked to 0.  A layout file keeps each text line up to and
including its first colon: the key paths, their order and their
indentation, but no float digits, which depend on the LAPACK build.
"""

import re
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
TIMED_CASES = {
    "validate_t42": ["validate", "--criterion", "T42", "--orders", "5"],
}
LAYOUT_CASES = {
    "analyze_g6": ["analyze", "--g6", "E?~o"],
    "remark": ["remark", "--r-max", "3"],
}
ELAPSED = re.compile(r'("?elapsed_ms"?: )\d+')


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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(TIMED_CASES))
def test_cli_stdout_matches_golden_with_elapsed_masked(capsys, case, fmt):
    code = main(TIMED_CASES[case] + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert ELAPSED.sub(r"\g<1>0", captured.out) == _expected(f"{case}.{fmt}")


def _layout(text: str) -> str:
    return "".join("".join(line.partition(":")[:2]) + "\n" for line in text.splitlines())


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_cli_text_layout_matches_golden(capsys, case):
    code = main(LAYOUT_CASES[case] + ["--format", "text"])
    captured = capsys.readouterr()
    assert code == 0
    assert _layout(captured.out) == _expected(f"{case}.text.layout")
