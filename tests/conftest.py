"""Shared fixtures."""

import pytest

from fbmpassage import runner


@pytest.fixture
def pin_chunk(monkeypatch):
    """Call with a size to start every model's runs from chunks of that many path pairs.

    The runner still halves the chunk if a run does not fit in memory, and
    hands each chunk's pair range to the worker in the call, so pool workers
    need no inherited patch.
    """

    def pin(pairs: int) -> None:
        monkeypatch.setattr(runner, "_model_chunk_pairs", lambda job: pairs)

    return pin
