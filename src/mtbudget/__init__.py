"""Graph-regularized multitask kernel online learning on a memory budget."""

from .active_set import ActiveSet
from .data import (DatasetStream, ReferenceTaskSet, binarize_by_percentile,
                   generate_synthetic, parse_dataset, rescale_features,
                   shift_term)
from .graph import (InteractionModel, TaskGraph, augment_graph,
                    build_interaction_model, build_laplacian,
                    resistance_matrix, verify_proposition_3_1)
from .harness import StreamMetrics, baseline_active_size, resolve_budget, run_stream
from .kernels import KernelSpec, MultitaskInstance, Query, SparseVector, make_queries
from .learners import (ALGORITHMS, LearnerConfig, StepOutcome, compute_phi,
                       make_learner, mtforg_bound, mtrbp_bound)

__version__ = "0.1.0"
