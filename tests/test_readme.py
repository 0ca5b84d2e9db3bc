"""README's examples run: the library block's comments hold and each shell example prints what it shows."""

import os
import pathlib
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_comments_hold():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    conditions = [line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line]
    assert conditions
    for condition in conditions:
        assert eval(condition, namespace), condition


def shell_examples():
    """(command, expected lines) for each "$ " line of README's plain fenced blocks.

    The expected lines are those after the command up to the next blank line.
    """
    examples, fence, expected = [], None, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence, expected = (line[3:] if fence is None else None), None
        elif fence != "":
            continue
        elif line.startswith("$ "):
            expected = []
            examples.append((line[2:], expected))
        elif not line:
            expected = None
        elif expected is not None:
            expected.append(line)
    return examples


def test_shell_examples_print_what_readme_shows():
    # a shown line holding "..." is matched up to it, a line that is only "..."
    # ends the comparison, and verify's millis column is a timing
    examples = shell_examples()
    assert len(examples) == 10
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(command):
        return subprocess.run(command.replace("python3", shlex.quote(sys.executable)), shell=True,
                              capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)

    with ThreadPoolExecutor(2) as pool:  # the examples are independent; most of each is start-up
        procs = list(pool.map(run, [command for command, _ in examples]))
    for (command, expected), proc in zip(examples, procs):
        assert proc.returncode == 0, (command, proc.stderr)
        actual = proc.stdout.splitlines()
        if "..." in expected:
            cut = expected.index("...")
            expected, actual = expected[:cut], actual[:cut]
        assert len(actual) == len(expected), (command, proc.stdout)
        for want, got in zip(expected, actual):
            if "..." in want:
                want = want.split("...")[0]
                got = got[:len(want)]
            elif " verify " in command and re.match(r"t\d+ ", want):
                want, got = want.rsplit(None, 1)[0], got.rsplit(None, 1)[0]
            assert got == want, command
