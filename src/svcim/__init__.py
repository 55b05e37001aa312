"""Link-level simulator for sparse-vector-coded OFDM with codebook index modulation."""

from .harness import SweepPlan, run_ber_sweep
from .link import LinkContext, SystemConfig

__version__ = "0.1.0"
