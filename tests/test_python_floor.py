"""The package, and the tier-1 tests that must collect wherever it installs, parse at
the oldest Python that ``pyproject.toml`` declares.

CI runs one newer Python, so syntax that only a later release accepts would pass
there and break every install at the floor. ``ast.parse`` with ``feature_version``
checks the grammar of the floor release without running it.
"""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _floor() -> tuple[int, int]:
    """(major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', fh.read(), re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def _parse_at_floor(path):
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=_floor())


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "src", "aglkit", "*.py"))),
                         ids=os.path.basename)
def test_module_parses_at_the_declared_python_floor(path):
    _parse_at_floor(path)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))
                                        + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                                        + glob.glob(os.path.join(ROOT, "bench", "*.py"))),
                         ids=lambda path: os.path.relpath(path, ROOT))
def test_tier1_file_parses_at_the_declared_python_floor(path):
    _parse_at_floor(path)


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Pair = tuple[int, int]\n",
], ids=["except-star", "type-statement"])
def test_syntax_newer_than_the_floor_is_rejected(source):
    """The check is live: syntax of 3.11 and 3.12 does not parse at the 3.10 floor."""
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_floor())
