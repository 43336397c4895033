"""Information dynamics and synergy-based information modification.

Measures of distributed computation for discrete processes: active
information storage, transfer entropy in its apparent, conditional, and
complete flavors, separable information, and a partial information
decomposition over the redundancy lattice whose synergy-only mass serves as
a measure of information modification. Includes an elementary cellular
automaton laboratory and reproduction pipelines.
"""

from .distributions import (
    JointDistribution,
    VariableSpec,
    avg_mi,
    count_samples,
    embed_history,
    local_mi,
    merge,
    unpack_history,
)
from .dynamics import (
    DynamicsConfig,
    LocalProfile,
    active_info_storage,
    ca_distribution,
    ca_distributions,
    ca_samples,
    ca_variables,
    local_ais,
    local_separable,
    local_te,
    profile,
    transfer_entropy,
)
from .eca import RuleTable, SpacetimeGrid, decode_rule, encode_rule, run
from .experiments import (
    ExperimentConfig,
    TableReport,
    export_local_profiles,
    or_distribution,
    run_or_demo,
    run_table1,
)
from .lattice import Antichain, RedundancyLattice, below_or_equal, build_lattice
from .pid import (
    PidDecomposition,
    decomposition_report,
    discontinuity_scan,
    i_min,
    local_i_min,
    modified_information,
    partial_terms,
    specific_information,
)

__version__ = "0.1.0"

__all__ = [
    "Antichain",
    "DynamicsConfig",
    "ExperimentConfig",
    "JointDistribution",
    "LocalProfile",
    "PidDecomposition",
    "RedundancyLattice",
    "RuleTable",
    "SpacetimeGrid",
    "TableReport",
    "VariableSpec",
    "active_info_storage",
    "avg_mi",
    "below_or_equal",
    "build_lattice",
    "ca_distribution",
    "ca_distributions",
    "ca_samples",
    "ca_variables",
    "count_samples",
    "decode_rule",
    "decomposition_report",
    "discontinuity_scan",
    "embed_history",
    "encode_rule",
    "export_local_profiles",
    "i_min",
    "local_ais",
    "local_i_min",
    "local_mi",
    "local_separable",
    "local_te",
    "merge",
    "modified_information",
    "or_distribution",
    "partial_terms",
    "profile",
    "run",
    "run_or_demo",
    "run_table1",
    "specific_information",
    "transfer_entropy",
    "unpack_history",
]
