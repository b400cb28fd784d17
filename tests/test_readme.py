"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(title):
    """The first python block under the README heading ``## title``."""
    text = README.read_text()
    section = text[text.index(f"\n## {title}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    # it asserts its own Monte Carlo estimate against the exact value
    namespace = {}
    exec(compile(section_code("Library quick start"), "README.md", "exec"), namespace)
    assert 0 < namespace["p"] < 1 and 0 < namespace["swap"] < 1
