"""The README's library example runs, and every condition its comments state holds."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_comments_hold():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    conditions = [line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line]
    assert conditions
    for condition in conditions:
        assert eval(condition, namespace), condition
