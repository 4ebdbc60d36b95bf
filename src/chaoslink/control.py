"""Placeholder: the controller's reference code lives in tests/law_oracle.py.

No session, CLI path or benchmark workload calls the one-step controller,
so it moved beside the tests' other oracles; the package runs the law only
inside its kernels (chaoslink._accel.control_effort and the response
steps).  This module stays, empty, because the frozen benchmark's span
hooks (perfbench/spans.py, LAYERS) import chaoslink.control on every
traced run.  ROADMAP item 2 deletes it together with USING_NUMBA, once the
benchmark stops importing either.
"""
