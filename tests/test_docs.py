"""The README's library quick start runs as printed, and every export resolves."""

import contextlib
import io
import re
from pathlib import Path

import cubespec as cs

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_commented_output():
    # each print line carries its output as a comment: a field ending in
    # "..." is a prefix of the printed field, any other field is exact
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    comments = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 2
    for comment, line in zip(comments, printed):
        want, got = comment.replace(",", " ").split(), line.split()
        assert len(want) == len(got), (comment, line)
        for w, g in zip(want, got):
            assert g.startswith(w[:-3]) if w.endswith("...") else g == w, (comment, line)


def test_star_import_resolves_every_export_once():
    namespace = {}
    exec("from cubespec import *", namespace)
    assert len(set(cs.__all__)) == len(cs.__all__)
    assert [name for name in cs.__all__ if name not in namespace] == []
