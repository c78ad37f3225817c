"""Boolean function complexity laboratory.

Packed-truth-table representations of total and partial Boolean functions,
exact combinatorial complexity measures, approximate degree via minimax
linear programs, and a noisy-oracle simulation stack with squared-bias cost
accounting.
"""

from .functions import (
    ArityLimitError,
    JuntaSymmetricSpec,
    PartialFn,
    SymmetricSpectrum,
    and_n,
    compose,
    from_junta_spec,
    from_spectrum,
    gapmaj,
    load_function,
    maj_n,
    mux,
    or_n,
    pror,
    pror_shifted,
    rub,
    save_function,
    sink,
    xor_n,
    zoo_function,
)
from .linprog import LinearProgram, LpOutcome, check_certificate, solve
from .measures import (
    BlockFamily,
    MeasureReport,
    block_sensitivity,
    decision_tree_depth,
    exact_degree,
    fractional_block_sensitivity,
    measure_function,
    paturi_gamma,
    sensitivity,
)
from .approxdeg import (
    MultilinearPoly,
    adeg,
    adeg_feasible,
    bdeg,
    bdeg_feasible,
    build_sink_polynomial,
)
from .noisy import (
    BiasedBitStream,
    NoisyOracle,
    WalkParams,
    amplify_bias_exact,
    mu_ratio_check,
    mu_t,
    run_composed_trial,
    run_composed_trials,
    sample_conditioned_walk,
    sample_conditioned_walks,
)

__version__ = "0.1.0"
