"""familykit: one backbone, many exits.

Train a multi-exit decoder transformer jointly, deepen one branch with
zero-residual block expansion, shrink the added blocks with
activation-whitened SVD, and decode with confidence-thresholded early
exits. Pure numpy, deterministic end to end.
"""

from .checkpoint import config_fingerprint, load_checkpoint, save_checkpoint
from .compression import (CalibrationSet, CompressionPlan, CompressionReport,
                          Decomposition, WhitenFactors, allocate_ratios,
                          apply_compression, build_plan, capture_activations,
                          decompose, inverted_log_score, measure_compression,
                          truncation_loss, whiten)
from .config import CompressionConfig, Paths, RunConfig, build_run_config, load_run_config
from .data import BOS, EOS, PAD, ByteTokenizer, WindowSampler, load_corpus
from .errors import (ConfigError, DataError, DefinitenessError, DegenerateBatchError,
                     DivergenceError, FamilyKitError, GraphError, InputError,
                     IntegrityError, NumericError, ShapeError)
from .evaluation import branch_nll, branch_perplexity
from .expansion import (ExpansionReport, ExpansionSpec, expand, grown_scope,
                        layer_cosine_similarity, verify_identity)
from .inference import ExitPolicy, GenerationTrace, TokenRecord, confidence, generate
from .model import (ExitHead, Factored, FamilialModel, FamilyConfig, desk_config,
                    extract_submodel, forward_all_branches, forward_branch, init_model,
                    named_parameters, param_count, set_freeze)
from .rng import SplitRng
from .tensor import Tensor, backward, cross_entropy, matmul, rmsnorm
from .training import (LambdaSchedule, StepMetrics, TrainConfig, TrainState, joint_loss,
                       lambda_at, lr_at, run_training, train_step)

__version__ = "0.1.0"
