"""README.md's Python examples run as written, so an API change that breaks
them fails here and not only in the docs."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks, "README.md has no fenced python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
