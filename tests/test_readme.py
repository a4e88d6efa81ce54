"""The Python examples of README.md run as written.

Each ```python block executes in a fresh namespace, so documented API that
no longer exists fails here rather than in a reader's session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python block"
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {"__name__": "__readme__"})
