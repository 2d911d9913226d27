"""The profile-qualified static analyzer (``repro lint`` / ``/v1/lint``).

Layers:

* :mod:`~repro.analyze.passes` — the path-aware lint family
  (``LINT005``–``010``) spending the hot-path-graph facts;
* :mod:`~repro.analyze.runner` — compute/rank entry points shared by the
  CLI, the service daemon, the drivers, and the matrix suite;
* :mod:`~repro.analyze.report` — ranked text, JSON, and SARIF 2.1.0;
* :mod:`~repro.analyze.baseline` — content-addressed suppression so CI
  fails only on *new* findings.

See ``docs/ANALYZER.md`` for usage and ``docs/CHECKS.md`` for the code
registry.
"""

from .baseline import (
    Baseline,
    baseline_of,
    finding_fingerprint,
    partition,
)
from .passes import (
    DEFAULT_MIN_MASS,
    PATH_LINT_CODES,
    DefiniteAssignment,
    PathLintPass,
    path_lint_qualified,
)
from .report import RULES, render_text, to_json_payload, to_sarif, write_sarif
from .runner import (
    compute_findings,
    compute_function_findings,
    lint_program,
    rank,
)

__all__ = [
    "Baseline",
    "DEFAULT_MIN_MASS",
    "DefiniteAssignment",
    "PATH_LINT_CODES",
    "PathLintPass",
    "RULES",
    "baseline_of",
    "compute_findings",
    "compute_function_findings",
    "finding_fingerprint",
    "lint_program",
    "partition",
    "path_lint_qualified",
    "rank",
    "render_text",
    "to_json_payload",
    "to_sarif",
    "write_sarif",
]
