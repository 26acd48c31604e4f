import json

import pytest

from hamspec import complete, cycle, parse_graph6, write_graph6
from hamspec.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_k4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--g6", "C~")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral"]["mu"] == pytest.approx(3, abs=1e-9)
    assert payload["spectral"]["gamma"] == pytest.approx(6, abs=1e-9)
    assert payload["oracle"]["has_path"]
    assert payload["oracle"]["has_cycle"]
    assert payload["oracle"]["hamilton_connected"]
    assert len(payload["bounds"]) == 7
    # order four misses the preconditions of the two complement criteria... no:
    # T32 needs >= 4 and T34 needs >= 6, so exactly one is skipped
    assert {c["criterion"] for c in payload["criteria_skipped"]} == {"T34_ComplementSignlessHC"}
    assert len(payload["criteria"]) == 5


def test_analyze_text_mode_carries_the_numbers(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--g6", "C~", "--format", "text")
    assert code == 0
    assert "mu: 3" in out
    assert "gamma: 6" in out


def test_analyze_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "analyze", "--g6", "C~", "--family", "complete", "--n", "4")
    assert code == 2
    assert "exactly one" in err


def test_generate_clique_plus_two_edges(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "clique-plus-two-edges", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert parse_graph6(payload["graph6"]).edge_count == 12


def test_generate_text_mode_emits_bare_graph6(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "complete", "--n", "4",
                           "--format", "text")
    assert code == 0
    assert out.strip() == "C~"


def test_generate_circulant(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "circulant", "--n", "7",
                           "--connections", "1,2")
    assert code == 0
    g = parse_graph6(json.loads(out)["graph6"])
    assert g.degrees() == [4] * 7


def test_generate_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "generate", "--family", "join-of-two-cliques", "--n", "8")
    assert code == 2
    assert "--s" in err


@pytest.mark.parametrize("argv,message", [
    (["generate", "--family", "complete", "--n", "4", "--s", "3"], "does not take s"),
    (["generate", "--family", "circulant", "--n", "8", "--connections", "1,x"],
     "--connections"),
    (["validate", "--criterion", "T42", "--orders", "5,x"], "--orders"),
    (["analyze", "--g6", "C~", "--n", "5"], "--n needs --family"),
    (["closure", "--g6", "C~", "--k", "3", "--connections", "1,x"],
     "--connections needs --family"),
    (["validate", "--criterion", "T42", "--orders", "5", "--threshold-shift", "nan"],
     "--threshold-shift must be finite"),
    (["validate", "--criterion", "T42", "--orders", "5", "--threshold-shift", "inf"],
     "--threshold-shift must be finite"),
])
def test_bad_flag_values_are_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_closure_subcommand(capsys):
    g6 = write_graph6(cycle(4))
    code, out, _ = run_cli(capsys, "closure", "--g6", g6, "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_graph6"] == "C~"
    assert payload["added_edges"] == [[0, 2], [1, 3]]
    assert payload["edges_added"] == 2


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--g6", "C~")
    assert code == 0
    payload = json.loads(out)
    assert payload["hamilton_connected"] and payload["witness_path"] is not None


def test_oracle_over_cap_names_the_cap(capsys):
    g6 = write_graph6(complete(22))
    code, _, err = run_cli(capsys, "oracle", "--g6", g6)
    assert code == 2
    assert "cap 20" in err


def test_analyze_oracle_skip_and_cap_ceiling(capsys):
    g6 = write_graph6(complete(22))
    code, out, _ = run_cli(capsys, "analyze", "--g6", g6)
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] is None
    assert payload["oracle_skipped"] == "order 22 above oracle cap 20"
    for command in (["analyze", "--g6", g6], ["remark", "--r-min", "4", "--r-max", "4"]):
        code, _, err = run_cli(capsys, *command, "--oracle-cap", "25")
        assert code == 2 and "cannot exceed 24" in err  # even with every order above it


def test_oracle_cap_flag_lowers_the_cap(capsys):
    k6 = write_graph6(complete(6))
    code, _, err = run_cli(capsys, "oracle", "--g6", k6, "--oracle-cap", "5")
    assert code == 2 and "cap 5" in err
    code, out, _ = run_cli(capsys, "analyze", "--g6", k6, "--oracle-cap", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] is None
    assert payload["oracle_skipped"] == "order 6 above oracle cap 5"
    code, out, _ = run_cli(capsys, "remark", "--oracle-cap", "5")  # orders 6, 14, 15
    assert code == 0
    assert [row["oracle_has_cycle"] for row in json.loads(out)["rows"]] == [None] * 3


@pytest.mark.parametrize("argv", [
    ["oracle", "--g6", write_graph6(complete(6))],
    ["oracle", "--g6", write_graph6(complete(21))],
    ["analyze", "--g6", write_graph6(complete(6))],
    ["analyze", "--g6", write_graph6(complete(21))],
    ["remark"],
])
def test_oracle_cap_flag_omitted_means_cap_20(capsys, argv):
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--oracle-cap", "20")


def test_malformed_graph6_names_byte_offset(capsys):
    code, _, err = run_cli(capsys, "analyze", "--g6", "C(")
    assert code == 2
    assert "offset 1" in err


def test_validate_exhaustive_order_five(capsys):
    code, out, _ = run_cli(capsys, "validate", "--criterion", "T42", "--orders", "5",
                           "--mode", "exhaustive")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs_checked"] == 1024
    assert payload["violations"] == []


def test_validate_reports_violations_with_exit_one(capsys):
    code, out, _ = run_cli(capsys, "validate", "--criterion", "T33", "--orders", "5",
                           "--mode", "exhaustive", "--threshold-shift", "-1.0")
    assert code == 1
    assert len(json.loads(out)["violations"]) > 0


@pytest.mark.parametrize("extra", [["--orders", ","],
                                   ["--orders", "6", "--mode", "random", "--samples", "-3"]])
def test_validate_rejects_empty_corpora(capsys, extra):
    code, out, err = run_cli(capsys, "validate", "--criterion", "T42", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_validate_long_criterion_name(capsys):
    code, out, _ = run_cli(capsys, "validate", "--criterion", "T42_AdjacencyPathCycle",
                           "--orders", "4")
    assert code == 0
    assert json.loads(out)["criterion"] == "T42_AdjacencyPathCycle"


def test_validate_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "validate", "--criterion", "T99", "--orders", "4")
    assert code == 2
    assert "unknown criterion" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--g6", "C~", "--frobnicate"])
    assert exc.value.code == 2


# each per-graph subcommand takes its own flag: closure a required --k,
# analyze and oracle an optional --oracle-cap; None means exit code 2
@pytest.mark.parametrize("argv,parsed", [
    (["closure", "--g6", "C~"], None),
    (["closure", "--g6", "C~", "--k", "3", "--oracle-cap", "5"], None),
    (["analyze", "--g6", "C~", "--k", "3"], None),
    (["oracle", "--g6", "C~", "--k", "3"], None),
    (["closure", "--g6", "C~", "--k", "3"], ("k", 3)),
    (["analyze", "--g6", "C~", "--oracle-cap", "5"], ("oracle_cap", 5)),
    (["oracle", "--g6", "C~", "--oracle-cap", "5"], ("oracle_cap", 5)),
])
def test_per_graph_subcommands_parse_their_own_flags(capsys, argv, parsed):
    if parsed is None:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
    else:
        dest, value = parsed
        assert getattr(build_parser().parse_args(argv), dest) == value


def test_file_input_and_output_roundtrip(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("C~\nDhc\n")
    dst = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "oracle", "--file", str(src), "--output", str(dst))
    assert code == 0
    assert out == ""
    payload = json.loads(dst.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert payload[1]["has_cycle"] is True  # the five-cycle


@pytest.mark.parametrize("content,message", [
    (b"C~\n\nC(\nDhc\n", "line 3: byte 40 outside graph6 range 63..126 (byte offset 1)"),
    (b"C~\nC\xc3\n", "line 2: byte 195 outside graph6 range 63..126 (byte offset 1)"),
])
def test_file_input_error_names_the_line(tmp_path, capsys, content, message):
    src = tmp_path / "graphs.g6"
    src.write_bytes(content)
    code, out, err = run_cli(capsys, "oracle", "--file", str(src))
    assert code == 2
    assert out == ""
    assert message in err


def test_remark_subcommand(capsys):
    code, out, _ = run_cli(capsys, "remark", "--r-min", "2", "--r-max", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [{
        "r": 2, "s": 2, "n": 6, "f_at_n_minus_2": 1, "g_at_2n_minus_4": 0,
        "mu": rows[0]["mu"], "gamma": rows[0]["gamma"],
        "mu_below": True, "gamma_above": True, "oracle_has_cycle": True,
    }]
    assert rows[0]["mu"] == pytest.approx(3.82842712475, abs=1e-9)
    assert rows[0]["gamma"] == pytest.approx(8, abs=1e-9)
    code, out, err = run_cli(capsys, "remark", "--r-min", "5", "--r-max", "3")
    assert (code, out) == (2, "")  # an empty r range is not an empty pass
    assert "no r values" in err


def test_twelve_significant_digit_floats(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--g6", write_graph6(cycle(5)))
    payload = json.loads(out)
    mu = payload["spectral"]["mu"]
    assert mu == float(f"{mu:.12g}")
