"""The README's library quick start runs as written and prints what its
comments say, so an API change cannot leave it stale."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def expected_prints(lines: list) -> list:
    """Per ``print(`` line, the ``# ...`` comment beside it or, when it has
    none, on the next line, without a trailing ``-- remark``."""
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, sep, comment = line.partition("#")
        if not sep:
            comment = lines[i + 1].removeprefix("#")
        out.append(comment.split(" -- ")[0].strip())
    return out


def test_readme_quick_start_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    want = expected_prints(block.splitlines())
    assert len(want) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
