"""repro.lint — the repo's invariant-enforcing static analysis suite.

Eight serving PRs accumulated a set of load-bearing invariants that
were documented in ``src/repro/serve/README.md`` but enforced only by
code review: bitwise GeMM lane discipline, hot-path allocation purity,
contextvar-scoped telemetry, frozen request/format specs.  This package
encodes them as machine-checked rules — a standalone AST pass over
``src/repro`` with no runtime dependencies beyond the standard library.

Run it as ``python -m repro.lint``:

* exit 0 — no findings beyond the committed ``lint_baseline.json``
  (grandfathered findings, each carrying a tracking note);
* exit 1 — new findings, or stale baseline entries (the ratchet:
  the baseline may only shrink, so a fixed finding must be removed
  from it).

``python -m repro.lint --explain RPL002`` documents any rule;
``--json`` emits machine-readable findings for CI artifacts.

The rules:

=======  ===========================================================
RPL001   no wall-clock calls in hot-path modules (perf_counter only)
RPL002   no allocation-shaped numpy calls reachable from Engine.step
RPL003   hot-path classes must declare ``__slots__``
RPL004   module-global stats touched only by attention's StatScope
RPL006   ``object.__setattr__`` only inside ``__post_init__``
RPL007   no bare/blanket exception swallowing in ``serve/``
RPL008   ``serve.__all__`` exactly matches the bound public names
RPL009   no import cycles between ``repro`` modules
RPL010   no raw matmuls in ``serve/``, no raw weight products in ``llm/``
RPL011   ``serve/`` and ``llm/`` raise ``ModelError`` subclasses only
=======  ===========================================================
"""

from repro.lint.findings import Baseline, Finding
from repro.lint.runner import LintResult, run_lint
from repro.lint.rules import RULES, get_rule

__all__ = [
    "RULES",
    "Baseline",
    "Finding",
    "LintResult",
    "get_rule",
    "run_lint",
]
