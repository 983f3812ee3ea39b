"""Every source file parses under the oldest Python that pyproject.toml allows.

``ast.parse`` with ``feature_version`` rejects syntax newer than that
version, so such syntax fails here on any interpreter, not only on the
oldest one CI runs.  It checks syntax only, not the library calls a file
makes.  The floor is read with a regex because ``tomllib`` needs 3.11.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_source_parses_at_the_python_floor():
    floor = re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor is not None
    version = (3, int(floor.group(1)))
    sources = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert sources
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}: {err}")
    assert not failures, "\n".join(failures)
