"""Every ```python block of README.md runs as written, and each ``print``
line that ends in a ``# text`` comment prints that text."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    printed = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)
    assert capsys.readouterr().out == "".join(f"{text}\n" for text in printed)
