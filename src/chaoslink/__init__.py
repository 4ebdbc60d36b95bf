"""Chaos-based secure link simulator.

Synchronized logistic maps with a variable feedback controller, chaotic
masking, a 16-bit fixed-point hardware twin, bit-level spreading with a
correlation-summation receiver, and chaos-driven channel hopping.
"""

from ._accel import USING_NUMBA
from .bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from .control import (
    ControllerGains,
    check_degenerate_sync,
    control,
    error,
    lyapunov_delta,
    predict_error,
    step_response,
)
from .core import (
    BasinEscapeError,
    LogisticParams,
    Orbit,
    SpectrumReport,
    amplitude_spectrum,
    bifurcation_scan,
    iterate,
    lyapunov_exponent,
    step,
)
from .fixedpoint import FixedParams, QFormat, fx_run_sync
from .hopper import (
    ChannelEntry,
    ChannelTable,
    build_default_table,
    hop_session,
    hop_trigger,
    select_channel,
)
from .masking import (
    InvertibleOperator,
    epsilon,
    get_operator,
    recover_symbol,
    register_operator,
    scramble,
    threshold_detect,
)
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
