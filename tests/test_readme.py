"""The README's library quickstart runs as written, so a public name it
uses cannot be deleted or renamed without this test failing."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library quickstart'"
    exec(compile(block.group(1), "README.md (Library quickstart)", "exec"), {})
