"""Incremental exact model counter with a persistent component cache."""

from .cache import ComponentCache, make_key
from .engine import CountResult, EngineConfig, SearchStats, count, unit_propagate
from .formula import (Component, FormulaState, PrimalGraph, brute_force_count,
                      count_truth_table, decompose_components, normalize_clause,
                      primal_graph)
from .heuristics import (TreeDecomposition, compute_tree_decomposition,
                         select_branch_variable, td_valid_for)
from .session import (BatchError, DuplicateClauseWarning, PreconditionError,
                      Session, UpdateBatch, UpdateOp, run_script)
from .argumentation import (ArgumentationFramework, PerturbationConfig,
                            dynamic_sequence, encode_complete,
                            enumerate_complete_bruteforce, parse_af, perturb)
from .softcore import (SoftCoreConfig, SoftCoreResult, compute_soft_core,
                       verify_soft_core)

__all__ = [name for name in dir() if not name.startswith("_")]
