import ast
import re
from pathlib import Path
from types import ModuleType

import hamspec

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_names() -> set[str]:
    """Names the README's library tour reads after `from hamspec import *`."""
    text = README.read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)
    tree = ast.parse(tour)
    stored = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} - stored


def test_star_import_exports_no_submodules():
    assert not [name for name in hamspec.__all__
                if isinstance(getattr(hamspec, name), ModuleType)]


def test_star_import_covers_the_readme_tour():
    names = _tour_names()
    assert {"bound_suite", "CriterionId", "remark_scan"} <= names
    assert names <= set(hamspec.__all__)
