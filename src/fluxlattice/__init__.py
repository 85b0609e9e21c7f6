"""Rhombic flux-lattice simulator.

Construction and exact dynamics of signed-coupling rhombic qubit arrays,
Lindblad dephasing, eigenstate spectroscopy, adiabatic ground-state
preparation, Bloch-band topology, and the tunable-coupler device layer.
"""

from .errors import ConfigError, FluxLatticeError, NumericalError
from .lattice import (
    PI,
    Bond,
    BondSign,
    HermitianOperator,
    LatticeConfig,
    Rail,
    RhombicLattice,
    SiteId,
    all_sites,
    apply_site_gauge,
    build_lattice,
    hamiltonian_single_excitation,
    lattice_from_dict,
    lattice_to_dict,
    load_lattice,
    parse_flux,
    plaquette_flux,
    plaquette_fluxes,
    save_lattice,
    site_index,
    site_labels,
    uniform_flux,
)
from .dynamics import (
    EffectiveModel,
    EffectiveModelKind,
    PopulationTrace,
    StateVector,
    antisymmetric_detunings,
    caged_sites,
    default_time_grid,
    effective_model,
    effective_model_amplitudes,
    evolve_amplitudes,
    evolve_lattice,
    evolve_unitary,
    pm_basis_transform,
    pm_labels,
    pm_transform_matrix,
    verify_equivalence,
)
from .open_system import (
    DensityMatrix,
    DephasingRates,
    LindbladResult,
    dephasing_operators,
    fidelity,
    lindblad_evolve,
    with_vacuum,
)
from .protocols import (
    AdiabaticResult,
    CagingResult,
    RampSchedule,
    RampSegment,
    SpectroscopyConfig,
    SpectroscopyResult,
    adiabatic_prepare,
    analytic_plaquette_populations,
    caging_benchmark,
    schedule_from_json,
    schedule_to_json,
    spectroscopy,
    two_stage_ramp,
)
from .bands import (
    BandStructure,
    BlochModel,
    ZakResult,
    band_structure,
    rhombic_bloch,
    rhombic_bloch_model,
    trimer_bloch,
    trimer_bloch_model,
    wilson_loop_phase,
    zak_phase,
)
from .device import (
    CouplerSpec,
    CrosstalkMatrix,
    DeviceConfig,
    TransmonTuneCurve,
    VacuumRabiExtraction,
    coupler_off_frequency,
    crosstalk_correct,
    crosstalk_fit,
    g_eff,
    load_crosstalk_csv,
    load_device,
    simulate_compensation_data,
    three_mode_vacuum_rabi,
    tune_curve,
)

__version__ = "0.1.0"
