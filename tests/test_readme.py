"""README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    value, verdict, fit = out.getvalue().splitlines()
    # the values its comments give
    assert abs(float(value) - 0.16) <= 1e-12
    assert verdict == "no_violation_found"
    assert fit.split()[0] == "False"
