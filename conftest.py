"""Repo-root conftest: makes ``tests`` and ``repro`` importable everywhere,
and registers the ``contract`` marker.

Adding ``src`` here (not only via ``PYTHONPATH=src``) lets a bare
``python -m pytest`` work out of the box; when the env var is also set,
the duplicate path entry is harmless.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(_ROOT))
sys.path.insert(1, str(_ROOT / "src"))


def pytest_configure(config):
    # CI runs ``pytest -m contract --strict-markers`` before the full suite.
    config.addinivalue_line(
        "markers",
        "contract: a bit-identity, oracle or budget contract (layering, goldens, "
        "differential oracles, hot-path and memory budgets)",
    )
