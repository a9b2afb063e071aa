"""Make the harness package (and ``src/``) importable for its own tests.

Run explicitly: ``python -m pytest benchmarks/ledger/tests -q``; the
repo's tier-1 command only collects ``tests/``.
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
for entry in (LEDGER, LEDGER.parents[1] / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
