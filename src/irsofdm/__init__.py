"""Wideband OFDM link simulator for reconfigurable reflecting surfaces.

Per-element reflection is modeled two ways: an equivalent-circuit model
(parallel resonant tank with a tunable capacitor) and a fitted analytical
model that maps a target phase at the design frequency to the realized
amplitude/phase response across the band.  On top sit frequency-selective
channel generation, water-filling power allocation, and discrete-phase
reflect beamforming via coordinate descent.
"""

from .circuit import (
    CircuitParams,
    SingularCircuitError,
    wrap_phase,
    reflection,
    solve_capacitance,
    sweep_reflection,
)
from .reflection_model import (
    ModelParams,
    codebook,
    model_response,
    reflection_table,
    fit_model,
)
from .channel import (
    SystemConfig,
    dbm_to_watts,
    path_loss_gain,
    subcarrier_frequencies,
    ap_user_distance,
    generate_channels,
    take_elements,
)
from .optimizer import (
    OptimizerSettings,
    PowerAllocation,
    PowerAllocationError,
    water_filling,
    design_tables,
    alternating_optimize,
)
from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (
    drop_channel,
    run_model_validation,
    run_rate_vs_power,
    run_rate_vs_elements,
    run_convergence_trace,
    write_result_csv,
)

__version__ = "0.1.0"
