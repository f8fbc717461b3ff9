"""The README's Python example runs as documented.

It imports the public API from the package root, so a removed or renamed
export fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no ```python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
