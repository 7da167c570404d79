"""The README's Library example runs exactly as written, and its config-key table matches `RunConfig`."""

import re
from dataclasses import fields
from pathlib import Path

from fbmpassage.cli import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first ```python block of the README's "## Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_as_written(capsys):
    namespace = {}
    exec(compile(_library_example(), f"{README} (Library)", "exec"), namespace)
    assert namespace["increments"].shape == (2, 4, 2**10)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(float(x) == float(x) for x in printed)  # four numbers, none nan


def test_config_key_table_lists_every_run_config_field_in_order():
    table = README.read_text().split(" Keys:\n", 1)[1].strip().split("\n\n", 1)[0]
    first_cells = [line.split("|")[1] for line in table.splitlines()[2:]]  # below the header and rule
    keys = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert keys == [f.name for f in fields(RunConfig)]
