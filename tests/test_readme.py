"""The README's quick tour, run as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    # the ```python block alone: the closing fence would read as expected output
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    tour = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", str(README), 0)
    assert any("count_diagonal" in e.source for e in tour.examples)
    result = doctest.DocTestRunner().run(tour)
    assert (result.failed, result.attempted) == (0, len(tour.examples))
