"""parcodec: single-redundancy-symbol codes for length-parametric channel constraints.

Build a codec from a textual spec, ``build_codec(parse_spec("mpl:n=16"))``
(one :mod:`parcodec.specs` registry row per constraint, ``mpl``, ``ss`` and
``ab`` included), or from shrink steps via :func:`build_one_symbol`, then
:func:`encode`/:func:`decode` fixed-length words.
The :mod:`parcodec.oracle` module verifies codecs exhaustively at small block
lengths.  It is imported on first use of it or of one of its names here, so
``import parcodec`` and the CLI's encode, decode and check compile only the
codec path.
"""

from importlib import import_module as _import_module

from .core import (
    DEFAULT_STATE_BOUND,
    CodecSpec,
    ShrinkStep,
    TraceStats,
    build_intersection,
    build_one_symbol,
    ceil_log,
    decode,
    decode_index,
    encode,
    encode_index,
)
from .errors import (
    BoundExceeded,
    CodecError,
    DimensionMismatch,
    IterationCapExceeded,
    NotACodeword,
    ParameterViolation,
    ParseError,
    RankOutOfRange,
    SlackMismatch,
)
from .global_codes import (
    DNA_COMPLEMENT,
    count_weight_at_most,
    min_balanced_weight,
    rank_weight_at_most,
    repeat_free_shrink,
    reverse_complement_shrink,
    unrank_weight_at_most,
)
from .local import (
    WindowCoder,
    first_forbidden_window,
    forbidden_window_shrink,
    listed_window_coder,
    min_period_coder,
    min_weight_coder,
    minimal_period,
    no_palindrome_coder,
    weight_window_coder,
)
from .specs import ConstraintSpec, build_codec, build_shrink, parse_spec
from .words import Word, all_words

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset((
    "VerifyReport", "build_state_graph", "check_graph", "check_shrink_injective",
    "count_constraint", "exhaustive_roundtrip", "graph_to_dot", "sample_roundtrip",
))


def __getattr__(name: str):
    # the oracle and its names are loaded on first use (PEP 562); import_module
    # rather than ``from . import oracle``, which would ask this hook for
    # "oracle" again before importing it
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
