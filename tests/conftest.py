import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env():
    """Environment for a child ``python -m centaudit``: pyproject's
    ``pythonpath`` reaches only the pytest process, so PYTHONPATH starts with
    the repository's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
