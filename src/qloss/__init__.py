"""Entanglement robustness of 2 x N x M pure states against loss of the qubit.

Trace out the qubit, reduce the residual bipartite state to full local
ranks, filter to its normal form, and test for entanglement (Ky Fan
criterion, PPT/negativity) and measure it (negativity, concurrence).
"""

from .bloch import (
    BlochForm,
    CorrelationSVD,
    bloch_decompose,
    correlation_svd,
    normal_form,
    reconstruct,
)
from .criteria import (
    CriterionResult,
    MeasureValue,
    RoofBudget,
    Verdict,
    build_example1_state,
    concurrence,
    concurrence_pure,
    concurrence_roof,
    example1_region,
    kf_criterion,
    length_bound_criterion,
    ppt_negativity,
    wootters_concurrence,
)
from .errors import (
    ConvergenceFailureError,
    DegenerateFamilyError,
    DimensionMismatchError,
    EmptyStateError,
    InvalidDimensionError,
    InvalidParamsError,
    InvalidSubsystemError,
    KetSyntaxError,
    LabelOutOfRangeError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    QlossError,
    RankDeficientError,
    StateFileError,
)
from .numerics import eigh, inv_sqrt_psd, ky_fan_norm, sqrt_psd, trace_norm
from .robustness import (
    Classification,
    RobustnessReport,
    SweepPoint,
    __version__,
    classify_qubit_loss,
    classify_residual,
    example3_family,
    fig1_scatter,
    ghz,
    observation1_family,
    point_seed,
    random_two_qubit_mixed,
    sweep,
    tiles_state,
    w,
)
from .states import (
    DensityMatrix,
    StateFile,
    StateVector,
    density,
    parse_ket,
    parse_state_file,
    partial_trace,
    partial_transpose,
    read_state_file,
    reduce_support,
)
from .su_basis import GeneratorBasis, expand_in_basis, generators
