"""Cell characterization flows (DC current tables, capacitances, NLDM)."""

from .capacitance import (
    characterize_cell_capacitances,
    characterize_input_capacitance,
    characterize_internal_capacitance,
    characterize_miller_capacitance,
    characterize_output_capacitance,
    extract_ramp_capacitance,
    extract_ramp_capacitances,
)
from .characterize import (
    characterization_job,
    characterization_key,
    characterize_baseline_mis,
    characterize_mcsm,
    characterize_sis,
    nldm_characterization_job,
    nldm_characterization_key,
    run_characterization,
    run_nldm_characterization,
)
from .config import CharacterizationConfig
from .dc_tables import (
    characterize_mcsm_currents,
    characterize_mis_current,
    characterize_sis_current,
)
from .nldm import NLDMTable, characterize_nldm, characterize_nldm_cell, nldm_arcs
from .probe import ProbeBench

__all__ = [
    "CharacterizationConfig",
    "ProbeBench",
    "characterize_sis_current",
    "characterize_mis_current",
    "characterize_mcsm_currents",
    "characterize_cell_capacitances",
    "characterize_miller_capacitance",
    "characterize_output_capacitance",
    "characterize_internal_capacitance",
    "characterize_input_capacitance",
    "extract_ramp_capacitance",
    "extract_ramp_capacitances",
    "characterize_sis",
    "characterize_baseline_mis",
    "characterize_mcsm",
    "characterize_nldm",
    "characterize_nldm_cell",
    "nldm_arcs",
    "characterization_job",
    "characterization_key",
    "run_characterization",
    "nldm_characterization_job",
    "nldm_characterization_key",
    "run_nldm_characterization",
    "NLDMTable",
]
