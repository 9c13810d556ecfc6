"""Speculative decoding with multiple drafts.

Token-level draft selection as optimal transport with membership cost (the
exact optimum by min-cut, its plan by max-flow, and the K-SEQ approximation),
sequence-level recursive selection, draft-set construction, and a toy
benchmark harness for block efficiency.
"""

from .prob_core import (
    DimensionError,
    ProbVector,
    RngStream,
    SpectrError,
    TokenId,
    ValidationError,
    sample,
    tv_distance,
)
from .token_coupling import (
    AcceptanceReport,
    DegenerateSupportError,
    InvalidDraftError,
    InvalidGammaError,
    KseqParams,
    KseqScan,
    SizeLimitError,
    TransportPlan,
    alpha_bernoulli_closed_form,
    alpha_star,
    alpha_uniform_closed_form,
    alpha_upper_bound,
    kseq_acceptance,
    kseq_gamma_star,
    kseq_output_marginal,
    kseq_params,
    kseq_select,
    otm_lp_solve,
)
from .lm_sim import CostModel, ModelPair, ToyLm, make_model_pair
from .draft_gen import (
    DraftNode,
    DraftSet,
    StructuralError,
    build_prefix_tree_drafts,
    sample_iid_drafts,
)
from .spectr_decode import (
    DecodeTrace,
    IterationRecord,
    SelectionMethod,
    UndefinedMetricError,
    baseline_decode,
    block_efficiency,
    draft_selection,
    simulated_speedup,
    spectr_decode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
