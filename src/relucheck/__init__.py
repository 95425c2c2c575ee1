"""relucheck: sound verification of ReLU feed-forward networks.

Output ranges are bounded with outward-rounded interval arithmetic and
symbolic interval propagation; inconclusive regions are refined by
gradient-guided bisection until proved, refuted with a concrete
counterexample, or out of budget. Pending boxes are evaluated in batches,
as stacks of arrays.
"""

from .intervals import (
    Box,
    Interval,
    IntervalOverflowError,
    UnsplittableError,
    iv_bisect,
)
from .symbolic import ReluState
from .network import (
    DimensionMismatchError,
    Layer,
    Network,
    NetworkFormatError,
    eval_concrete,
    load_network,
)
from .propagate import ForwardResult, ReluMaskMatrix, naive_forward, symbolic_forward
from .gradients import backward_gradient, smear_split_choice
from .properties import (
    InputSpec,
    SoundCheck,
    TriState,
    check_concrete,
    check_sound,
    parse_property,
)
from .engine import (
    Config,
    PartitionReport,
    Status,
    SubStatus,
    Verdict,
    enumerate_regions,
    verify,
)

__version__ = "0.1.0"
