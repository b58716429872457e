"""Exact computation of quasimap intersection numbers by iterated residues,
with cross-checks against generalized hypergeometric coefficients and the
associated differential-operator annihilation."""

from .quasimap import Query, eval_cascade, eval_direct, hypergeom_series

__version__ = "0.1.0"

__all__ = [
    "Query",
    "eval_direct",
    "eval_cascade",
    "hypergeom_series",
    "__version__",
]
