"""Active learning that warms up from logged observational data.

The package covers the full pipeline: sparse datasets and logging policies,
unbiased error estimators that combine logged and actively collected samples,
the disagreement-based learners (passive, active with one- and two-sample
weighting, and the debiasing variant that skips over-covered regions), exact
small-hypothesis-class and linear large-scale modes, a brute-force oracle for
verification, and a paired benchmark harness with CSV reports.
"""
from __future__ import annotations

# import each name from its module; a bare `import idbal` still loads (and perfbench times) these eight
from . import data, estimators, harness, hypotheses, learners, oracle, policies, rng

__version__ = "0.1.0"

__all__ = ["data", "estimators", "harness", "hypotheses", "learners", "oracle", "policies", "rng"]
