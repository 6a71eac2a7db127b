"""The Python examples of README.md run as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_print_their_comments():
    # the blocks build on each other, so they run in order in one
    # namespace; each `print(...)  # v` line must print v
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    want = [v for block in blocks
            for v in re.findall(r"^print\(.*\)\s+# ([^,\s]+)", block, re.M)]
    assert len(blocks) == 3 and want == ["2"] * 4
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == want
