"""The README's quick tour, run as a doctest, and its command lines, run in
process."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from qforms import cli

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
            for line in block.splitlines() if line.startswith("qforms ")]


def test_readme_quick_tour_runs():
    # the ```python block alone: the closing fence would read as expected output
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    tour = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", str(README), 0)
    assert any("count_diagonal" in e.source for e in tour.examples)
    result = doctest.DocTestRunner().run(tour)
    assert (result.failed, result.attempted) == (0, len(tour.examples))


def test_readme_lists_its_command_lines():
    assert len(COMMANDS) == 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_line_exits_0(line, capsys):
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0
    _, arrow, shown = line.partition("# -> ")  # a line may show its one output row
    if arrow:
        assert capsys.readouterr().out == shown.strip() + "\n"
