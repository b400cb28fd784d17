"""The package's source parses as the oldest Python that pyproject.toml declares.

This checks syntax only: ``ast.parse`` with ``feature_version=(3, 10)``
rejects grammar newer than 3.10 (``except*``, PEP 695 type parameters and
the like), but not a call to a library function added after 3.10, nor any
difference in behaviour.  Running the suite on 3.10 is what checks those.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tasep2c").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
