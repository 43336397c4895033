"""Information dynamics and synergy-based information modification.

Measures of distributed computation for discrete processes: active
information storage, transfer entropy in its apparent, conditional, and
complete flavors, separable information, and a partial information
decomposition over the redundancy lattice whose synergy-only mass serves as
a measure of information modification. Includes an elementary cellular
automaton laboratory and reproduction pipelines.

The names below are the ones the README's Library section uses; everything
else is reached through its submodule.
"""

from .dynamics import (
    active_info_storage,
    ca_distribution,
    ca_distributions,
    local_ais,
    local_separable,
    local_te,
    transfer_entropy,
)
from .eca import run
from .experiments import ExperimentConfig, run_or_demo, run_table1
from .pid import local_i_min, modified_information, partial_terms

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "active_info_storage",
    "ca_distribution",
    "ca_distributions",
    "local_ais",
    "local_i_min",
    "local_separable",
    "local_te",
    "modified_information",
    "partial_terms",
    "run",
    "run_or_demo",
    "run_table1",
    "transfer_entropy",
]
