import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def low_recursion_limit():
    """Allow only 100 frames beyond the current depth while the test runs,
    so code whose recursion depth grows with its input fails fast."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    yield
    sys.setrecursionlimit(old)
