"""Cylinder-exact thermodynamic formalism on the one-sided full shift.

Submodules:

* shift        -- points, words, cylinder tables and measures
* potentials   -- regularity metadata and certified evaluation
* transfer     -- transfer operator, eigendata, normalisation
* interactions -- many-body interactions built from potentials
* dlr          -- finite-volume Gibbs kernels and their consistency checks
* ising        -- the long-range spin chain worked example
* cli          -- JSON/CSV report front-end (console script `ruellekit`)
"""

from .shift import (
    CylinderFunction,
    CylinderMeasure,
    Point,
    TableSizeError,
    integrate,
    shift_n,
)
from .potentials import (
    GenericContinuous,
    Hoelder,
    LocallyConstant,
    Potential,
    SummableVariation,
    jop_series,
    make_hofbauer_walters,
    walters_estimate,
)
from .transfer import (
    RPFData,
    check_normalized,
    normalize,
    power_iterate,
    transfer_operator,
)
from .interactions import (
    Interaction,
    from_potential,
    hamiltonian_from_interaction,
    interaction_norm,
    ising_lr,
    ising_nn,
    reconstruct_at_site1,
)
from .dlr import (
    D_estimate,
    change_of_measure_check,
    constant_shift_check,
    dlr_residual,
    finite_volume_dlr_check,
    kernel,
    kernel_measure,
    log_partition,
    sandwich_check,
    tl_sequence,
)
from .ising import (
    IsingParams,
    TwoSidedPoint,
    coboundary_checks,
    f_two_sided,
    g_one_sided,
    g_potential,
    hoelder_witness,
    ising_walters_estimate,
    transfer_h,
    zeta,
)

__version__ = "0.1.0"
