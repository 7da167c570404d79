"""The README's Library example runs exactly as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first ```python block of the README's "## Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_as_written(capsys):
    namespace = {}
    exec(compile(_library_example(), f"{README} (Library)", "exec"), namespace)
    assert namespace["increments"].shape == (2, 2**10)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(float(x) == float(x) for x in printed)  # four numbers, none nan
