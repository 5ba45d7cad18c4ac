"""The README's Python examples run against the current API, and the
package exports every name it lists, at pyproject's version."""

from __future__ import annotations

import re
from pathlib import Path

import nads

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2  # the Quickstart and the shipped-scenario block
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The Quickstart's two routes to P agree, as its comments say.
    assert abs(namespace["p_center"] - namespace["p_check"][1200]) < 1e-9
    assert len(namespace["series"]) == 2401


def test_every_listed_name_is_exported():
    assert [name for name in nads.__all__ if not hasattr(nads, name)] == []
    version = re.search(r'^version = "(.*)"$', (ROOT / "pyproject.toml").read_text(),
                        flags=re.MULTILINE)
    assert nads.__version__ == version[1]
