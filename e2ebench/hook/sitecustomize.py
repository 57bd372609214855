"""Interpreter start-up hook for the benchmark's traced run.

``run.py`` puts this directory first on ``PYTHONPATH`` (and sets
``E2EBENCH_SPAN_DIR``) only for the processes of a traced run, so the
workload process, the service, its pool workers and everything they fork
record spans around the layer functions listed in ``spans.TARGETS``.
"""

import os
import sys

if os.environ.get("E2EBENCH_SPAN_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.install(os.environ["E2EBENCH_SPAN_DIR"])
