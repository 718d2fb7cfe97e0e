"""Test path setup (make the in-tree package importable) and shared fixtures."""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def another_thread(monkeypatch):
    """Keep a second thread running through the test, with os.fork patched to fail."""

    def no_fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    yield
    stop.set()
    other.join(10.0)
    assert not other.is_alive()
