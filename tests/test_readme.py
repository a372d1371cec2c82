"""The README's examples, run as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The Python block under the README's "Library quick start" heading."""
    text = README.read_text("utf-8")
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_prints_what_its_comments_say():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    # each commented print shows its comment's text up to the first double space
    expected = [
        (line, shown, line.partition("  # ")[2].split("  ")[0])
        for line, shown in zip(prints, printed)
        if "  # " in line
    ]
    assert expected, "no print in the quick start states its output"
    for line, shown, comment in expected:
        assert shown == comment, line
