"""The README's Python examples run as written and print what their trailing
comments say, so a renamed or removed public name cannot leave them stale."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_print_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        # `print(...)   # text`: the comment is the line that call must print
        expected = re.findall(r"^\s*print\(.*\)\s+#\s*(.*?)\s*$", block, re.M)
        out = StringIO()
        with redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
