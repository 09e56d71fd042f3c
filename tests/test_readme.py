"""The README's examples run as written: its Python blocks print what their
trailing comments say, and its command-line transcript prints what it shows,
so a renamed or removed public name or a changed output cannot leave them
stale."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from adicaut.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_print_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        # `print(...)   # text`: the comment is the line that call must print
        expected = re.findall(r"^\s*print\(.*\)\s+#\s*(.*?)\s*$", block, re.M)
        out = StringIO()
        with redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected


def test_readme_command_line_transcript_replays(tmp_path, monkeypatch, capsys):
    blocks = [b for b in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S) if "\n$ " in "\n" + b]
    assert len(blocks) == 1
    # each `$ command` is followed by the stdout lines it prints, up to a blank line or the next command
    steps = re.findall(r"^\$ (.*)\n((?:(?!\$ ).+\n)*)", blocks[0], re.M)
    assert steps
    monkeypatch.chdir(tmp_path)
    for command, shown in steps:
        argv = shlex.split(command, comments=True)
        expected = [re.sub(r"\s+#.*$", "", line) for line in shown.splitlines()]
        if argv[0] == "echo":  # echo TEXT > FILE
            assert argv[-2] == ">" and not expected
            (tmp_path / argv[-1]).write_text(" ".join(argv[1:-2]) + "\n")
            continue
        assert argv[0] == "adicaut"
        assert main(argv[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command
