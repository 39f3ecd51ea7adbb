"""Logic-in-memory adders on complementary resistive switches.

Two simulation levels share one microcode format: a behavioral level
that applies the switch update rule symbolically, and a device level
that integrates an electrochemical filament model through every pulse
and decides bits from measured spike currents.
"""

from .crs import (
    CrsDeviceState,
    CrsLogicState,
    CrsThresholds,
    IndeterminateStateError,
    ThresholdExtractionError,
    classify,
    crs_pulse,
    crs_state_for_bit,
    decode_state,
    fsm_next,
    series_current,
    solve_crs_divider,
    step_crs_transient,
    sweep_iv_crs,
)
from .ecm import (
    CellSolution,
    ConvergenceError,
    EcmParams,
    EcmState,
    extract_unit_landmarks,
    ionic_current,
    load_params,
    params_text,
    save_params,
    solve_cell_dc,
    state_derivative,
    step_transient,
    sweep_iv_unit,
    tunnel_conductance,
    tunnel_current,
)
from .executor import (
    CalibrationError,
    ExecTrace,
    ExecutionError,
    PulseParams,
    ReadRecord,
    StepRecord,
    calibrate_pulse,
    params_fingerprint,
    run_behavioral,
    run_device,
    time_to_flip,
    write_states_csv,
    write_trace_csv,
    write_verdicts_json,
)
from .logic import (
    add_words_reference,
    carry_next,
    full_adder_bit,
    int_to_word,
    str_to_word,
    sub_words_reference,
    sum_final,
    sum_intermediate,
    word_to_int,
    word_to_str,
)
from .microcode import (
    ArrayDrive,
    CellAddr,
    ComparisonRow,
    Program,
    ReadDirective,
    Signal,
    Step,
    comparison_csv,
    comparison_markdown,
    comparison_table,
    gen_pc_adder,
    gen_tc_adder,
    program_from_json,
    program_to_json,
    render_step_table,
    validate_program,
)

__version__ = "0.1.0"
