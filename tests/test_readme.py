"""The README's examples run as written.

Every python block of README.md runs in order in one namespace, and a line
whose comment is a Python literal (`expr  # 73`) must evaluate to it. Every
`cartier ...` line of the CLI block runs through CliRunner and exits 0.
"""

import ast
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from cartier.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def commented_values(block):
    """(expression, value) for each line `expression  # literal`."""
    for line in block.splitlines():
        code, sep, comment = line.partition("  #")
        if not sep:
            continue
        try:
            yield code.strip(), ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue


def test_library_tour_runs_and_shows_what_it_says():
    namespace = {}
    checked = 0
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), namespace)
        for code, value in commented_values(block):
            assert eval(code, namespace) == value, code
            checked += 1
    assert checked


def test_cli_examples_exit_zero():
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("cartier ")]
    assert len(commands) >= 7
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
