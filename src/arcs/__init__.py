"""Budgeted synthesize-execute-repair code synthesis over a frozen model.

The library wires five pieces around a pluggable proposal model: corpus
ingestion and retrieval, optional planning, prompt composition, sandboxed
test execution, and a budgeted controller with cost accounting and
bit-exact replay logging.
"""

from .controller import (
    AffineCost,
    CostBound,
    CostModel,
    CostReport,
    RunDeps,
    RunLog,
    RunResult,
    TierConfig,
    check_cost_bound,
    compare_run_logs,
    load_run_log,
    replay,
    run,
    save_run_log,
)
from .corpus import CorpusItem, CorpusSnapshot, ingest, load_snapshot, save_snapshot
from .embedding import EmbeddingProvider, HashingEmbedder, RemoteEmbedder
from .errors import (
    ArcsError,
    ConfigError,
    ContextExhaustedError,
    EmbedderMismatchError,
    EmptyCorpusError,
    IngestError,
    ModelProposalError,
    NoCandidateError,
    ReplayAssetError,
    SnapshotCorruptionError,
)
from .evalkit import SweepReport, TaskRecord, ablation_matrix, sweep
from .executor import (
    ExecutionFeedback,
    Executor,
    InProcessExecutor,
    ProcessExecutor,
    ResourceCaps,
    TestCase,
    TestSuite,
    encode_feedback,
    load_suite,
)
from .model import DecodingParams, ProposalModel, RemoteModel, ScriptedModel, extract_code
from .planner import Plan, canonicalize, plan, token_count
from .prompting import ComposedPrompt, PromptSegment, compose, render, truncate
from .retrieval import (
    RetrievalQuery,
    RetrievalResult,
    cosine_sim,
    filter_redundancy,
    plan_conditioned_retrieve,
    refresh,
    top_k,
)

__version__ = "0.1.0"
