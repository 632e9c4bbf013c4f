"""Density-matrix word meanings, conversational negation, and evaluation."""

from .composition import COMPOSITIONS, CompositionKind, diag_comp, fuzz, mult, phaser, spider
from .context import (
    EntailmentGraph,
    HypernymHierarchy,
    WeightFunction,
    WeightKind,
    build_entailment_graph,
    hypernym_weights,
    load_hierarchy,
    worldly_context_graph,
    worldly_context_hierarchy,
)
from .entailment import (
    k_ba,
    k_e,
    k_hyp,
    k_hyp_clamped,
    k_hyp_oracle,
    trace_similarity,
)
from .experiment import (
    GridSpec,
    PlausibilityDataset,
    PlausibilityRecord,
    ResultTable,
    load_dataset,
    parse_grid_config,
    pearson,
    run_grid,
)
from .lexicon import (
    Lexicon,
    VectorTable,
    build_density_matrix,
    build_lexicon,
    load_lexicon,
    load_vectors,
    save_lexicon,
)
from .negation import neg_inv, neg_ker, neg_sub, neg_supp
from .pipeline import (
    Basis,
    NegationConfig,
    NegationKind,
    conversational_negate,
    logical_negation,
    plausibility,
)
from .spectral import (
    Dmat,
    SpectralDecomposition,
    loewner_leq,
    normalize_max_eig,
    rescale_max_eig,
    spectral_decompose,
    support_projector,
)
from .verify import VerifyReport, verify_theorems

__all__ = [name for name in dir() if not name.startswith("_")]
