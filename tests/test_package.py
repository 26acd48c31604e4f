import ast
import dataclasses
import inspect
import json
import re
import shlex
from pathlib import Path
from types import ModuleType

import hamspec
from hamspec import (
    CriterionId,
    apply_criterion,
    bound_suite,
    cli,
    cycle,
    hamilton_profile,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamilton_connected,
    remark_scan,
    spectral_summary,
    validate,
)
from hamspec._report import Report

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The code block of the README's library tour."""
    return re.search(r"## Library tour\s+```python\n(.*?)```", README.read_text(), re.S).group(1)


def _tour_names() -> set[str]:
    """Names the README's library tour reads after `from hamspec import *`."""
    tree = ast.parse(_tour())
    stored = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} - stored


def test_star_import_exports_no_submodules():
    assert not [name for name in hamspec.__all__
                if isinstance(getattr(hamspec, name), ModuleType)]


def test_every_report_keys_its_json_by_field_name():
    """One real instance of each report class: the JSON keys are the field
    names, in declaration order, with no second name for any field."""
    g = cycle(5)
    reports = [spectral_summary(g), bound_suite(g)[0], hamilton_profile(g),
               apply_criterion(g, CriterionId.T42_AdjacencyPathCycle),
               validate(CriterionId.T42_AdjacencyPathCycle, [4]), remark_scan([2])[0]]
    assert {type(r) for r in reports} == set(Report.__subclasses__())
    for report in reports:
        assert list(report.to_json_dict()) == [f.name for f in dataclasses.fields(report)]


def test_every_oracle_cap_parameter_is_named_oracle_cap():
    for entry_point in (hamilton_profile, has_hamiltonian_path, has_hamiltonian_cycle,
                        is_hamilton_connected, remark_scan):
        params = inspect.signature(entry_point).parameters
        assert list(params)[-1] == "oracle_cap", entry_point.__name__


def test_star_import_covers_the_readme_tour():
    names = _tour_names()
    assert {"bound_suite", "CriterionId", "remark_scan"} <= names
    assert names <= set(hamspec.__all__)


def test_readme_tour_runs():
    exec(compile(_tour(), str(README), "exec"), {})


def _cli_lines() -> list[list[str]]:
    """The commands of the README's CLI block, each without `hamspec` and its comment."""
    block = re.search(r"## CLI\s+```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def test_readme_cli_block_runs(capsys):
    """Every README CLI line exits 0, and every validate line issues a
    prediction, so no example passes by checking nothing."""
    lines = _cli_lines()
    assert {"analyze", "validate", "remark"} <= {argv[0] for argv in lines}
    for argv in lines:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "validate":
            assert json.loads(out)["predictions_issued"] >= 1, argv
