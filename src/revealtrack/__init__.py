"""Probabilistic finite-state automata with state reveals.

Exact belief filtering, deferred-normalization joint and marginal linear
trackers with their adversarial decay constructions, a generalized-
Householder permutation recurrence, and a transcript dataset generator for
next-token-prediction training on state tracking.
"""

__version__ = "0.1.0"

from .automaton import (
    AutomatonFormatError,
    DeadEndError,
    InconsistentObservationError,
    PermutationMixture,
    Pfsa,
    Symbol,
    Trajectory,
    belief_trajectory,
    belief_update,
    dumps_automaton,
    joint_discretization_count,
    loads_automaton,
    marginal_discretization_count,
    one_hot,
    random_automaton,
    read_automaton,
    reveal_only,
    sample_trajectory,
    transition_only,
    validate,
    validate_belief,
    write_automaton,
)
from .householder import (
    EigenRange,
    HouseholderStep,
    eigenrange_check,
    householder_matrix,
    run_recurrence,
    swap_head,
)
from .joint import (
    JointLinearState,
    MassUnderflowError,
    arrangement_automaton,
    gated_reset,
    joint_decode,
    joint_init,
    joint_step,
    mixture_symbol,
    placement_reveal_symbol,
    survival,
)
from .marginal import (
    MixSpec,
    NoSupportError,
    RevealSpec,
    SinkhornResult,
    bilinear_step,
    birkhoff_residual,
    joint_to_marginal,
    marginal_init,
    marginal_mix,
    marginal_reveal,
    marginal_step,
    reveal_operators,
    sinkhorn_project,
    vectorized_step,
)
from .perm import (
    Permutation,
    apply,
    check_mixture,
    compose,
    identity,
    inverse,
    lex_index,
    lex_indices,
    one_line_table,
    sample_uniform,
    symmetric_group,
    to_matrix,
    transposition,
)
from .scenarios import (
    RESET,
    DecayReport,
    DecayRow,
    FloatGrid,
    JointScenario,
    MarginalScenario,
    SINGLE_PRECISION,
    absorbing_automaton,
    adversarial_joint_scenario,
    adversarial_marginal_scenario,
    dfa_scenario,
    hidden_swap_automaton,
    noisy_swap_s3,
    run_and_report,
)
from .trace import (
    COMMAND_KINDS,
    CURRICULUM_STAGES,
    ELEMENTARY_SWAP,
    FULL_PERMUTATION,
    ExecutionResult,
    RevealMismatch,
    Trace,
    TraceConfig,
    TraceEvent,
    TraceParseError,
    build_trace,
    curriculum,
    derive_seed,
    execute,
    export_dataset,
    generate,
    parse,
    render,
    var_name,
)
