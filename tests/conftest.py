"""Guards shared by every test directory."""

import pytest

from repro import runctx

#: The run context the test run started in (the one the environment
#: variables describe).
STARTING_CONTEXT = runctx.current()


@pytest.fixture(autouse=True)
def run_context_unchanged():
    """Fail any test that leaves a run context bound behind it: the next
    test would silently run in the wrong modes."""
    yield
    leaked = runctx.current()
    assert leaked is STARTING_CONTEXT, (
        f"test left run context {leaked!r} bound; bind with "
        f"`with runctx.using(...)` so it is undone"
    )
