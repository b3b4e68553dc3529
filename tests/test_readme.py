"""The README's quick start and its shell examples run as written and
print what they say."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from longzeta import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_what_its_comments_say():
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print's comment shows its output, up to a "  -- " aside
    expected = [
        line.split("#", 1)[1].split("  -- ", 1)[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["(1*q^1 + 1*(p-q))*s^0 + (-1*q^1 - 1*(p-q))*s^1", "True 1"]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_shell_examples_print_what_their_comments_say(monkeypatch, capsys):
    # a command line followed by "# <output>" lines prints exactly those
    # lines, run through cli.main from the repository root
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            out = []
            for nxt in lines[i + 1:]:
                if not nxt.startswith("# "):
                    break
                out.append(nxt[2:])
            if out and not line.startswith("#"):
                examples.append((shlex.split(line, comments=True), out))
    assert [argv[:2] for argv, _ in examples] == [
        ["longzeta", "certify"], ["longzeta", "fuzz"]
    ]
    monkeypatch.chdir(README.parent)
    for argv, out in examples:
        capsys.readouterr()
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.splitlines() == out, argv
