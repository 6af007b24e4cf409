"""Behavioral modeling, training, and netlist mapping of flash threshold
logic cells."""

from .truthtable import Polarity, TruthTable, parse_truth_table, to_positive_form, unateness
from .threshold import (
    CatalogEntry,
    ThresholdFunction,
    build_catalog,
    canonicalize_np,
    check_threshold,
    count_threshold_functions,
    f115_table,
)
from .device import (
    DeviceParams,
    EvalResult,
    FtlCell,
    VariationSample,
    branch_conductance,
    evaluate,
    sample_variation,
    verify_cell,
    worst_case_delay,
)
from .train import (
    TrainConfig,
    TrainResult,
    TrainingError,
    kmax_bound,
    train,
)
from .analysis import (
    Datapath,
    McConfig,
    RetuneError,
    YieldReport,
    check_timing,
    conductivity_map,
    margin_schedule,
    vdd_sweep,
    yield_mc,
)
from .program import (
    ProgrammerConfig,
    PulseSchedule,
    plan_program,
    program_cell,
)
from .netlist import Cut, Netlist, NetlistError, cut_function, enumerate_cuts, parse_blif
from .mapping import MappedDesign, map_ftl, verify_equivalence

__version__ = "0.1.0"
