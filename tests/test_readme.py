"""Every ```python block of README.md runs, in order, in one temporary
directory, so a file one block writes is there for the next."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 4


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
