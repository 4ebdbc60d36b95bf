"""Chaos-based secure link simulator.

Synchronized logistic maps with a variable feedback controller, chaotic
masking, a 16-bit fixed-point hardware twin, bit-level spreading with a
correlation-summation receiver, and chaos-driven channel hopping.
"""

from .bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from .core import (
    BasinEscapeError,
    LogisticParams,
    SpectrumReport,
    amplitude_spectrum,
    bifurcation_scan,
    iterate,
    lyapunov_exponent,
    step,
)
from .fixedpoint import FixedParams, fx_run_sync
from .hopper import (
    ChannelEntry,
    ChannelTable,
    build_default_table,
    hop_session,
    hop_trigger,
    select_channel,
)
from .masking import threshold_detect
from .simkit import (
    Metrics,
    ScenarioConfig,
    SessionTrace,
    export_csv,
    load_config,
    load_trace_csv,
    run_digital_session,
    run_hop_session,
    run_sync_session,
    run_transmit_session,
)

__version__ = "0.1.0"

# The kernels are pure Python/numpy: no compiled backend runs.  Records that
# name the backend that ran read this.
USING_NUMBA = False
