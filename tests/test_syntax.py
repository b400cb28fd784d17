"""The package, its tests and the benchmark scripts parse as the oldest
Python that pyproject.toml declares.

This checks syntax only: ``ast.parse`` with ``feature_version=(3, 10)``
rejects grammar newer than 3.10 (``except*``, PEP 695 type parameters and
the like), but not a call to a library function added after 3.10, nor any
difference in behaviour.  Running the suite on 3.10 is what checks those.
The benchmark scripts are only read here, never run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for folder in ("src/tasep2c", "tests", "benchmarks")
           for path in sorted((ROOT / folder).glob("*.py"))]


def test_sources_are_found():
    # 9 package modules, 11 test modules and 8 benchmark scripts; the
    # file name is each file's test id, so no two may share one
    assert len(SOURCES) >= 27
    assert len({p.name for p in SOURCES}) == len(SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
