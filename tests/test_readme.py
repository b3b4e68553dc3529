"""The README's quick start runs as written and prints what it says."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

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
