"""Exact toolkit for two-level configurations.

Core objects: 0/1 matrices with distinct lines, configurations (A, B) with
all pairwise products in {0,1}, their slack matrices, the two-level
completion of a polytope's vertex set, canonical forms under row/column
permutations, correlation-cone face certificates, and the weighted-graph
compression of maximal classes.
"""

from .configuration import (
    BinaryMatrix,
    Configuration,
    SlackMatrix,
    closure,
    from_slack_matrix,
    is_maximal_in_md,
    maximal_completion,
    normalize_to_binary,
    parse_matrix,
    slack_matrix,
)
from .canon import CanonicalForm, canonical_form, equivalent
from .errors import TlcError
from .geometry import polytope_completion

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CanonicalForm",
    "Configuration",
    "SlackMatrix",
    "TlcError",
    "canonical_form",
    "closure",
    "equivalent",
    "from_slack_matrix",
    "is_maximal_in_md",
    "maximal_completion",
    "normalize_to_binary",
    "parse_matrix",
    "polytope_completion",
    "slack_matrix",
    "__version__",
]
