"""smseg: zero-shot segmentation machinery at desk scale.

Pseudo-mask discovery by seeded multi-window K-means, class/candidate
embedding banks, decoupled Hungarian assignment with a full cost model,
multi-scale feature fusion with verified gradients, random-query
mask-classification inference, and harmonic-mean IoU evaluation — all on
plain numpy arrays exchanged through a bit-exact binary container.
"""

from .clustering import (CandidateMaskSet, ClusterResult, WindowConfig,
                         fuse_masks, kmeans, multi_scale_seeds,
                         restrict_candidates, window_seeds, window_starts)
from .decoder import (DecoderParams, Predictions, RQ_SEED0_FIRST8,
                      assemble_semantic_map, decode, inject_random_queries)
from .embeddings import (ClassEmbeddings, JointEmbedding,
                         build_joint_embedding, load_candidate_embeddings,
                         pool_region_embeddings)
from .losses import (CostWeights, bce_mask, class_similarity, cosine_loss,
                     cross_entropy_map, dice_loss, focal_loss, focal_map,
                     iou_loss, match_cost_matrix, matched_loss, sigmoid)
from .matcher import Assignment, Pair, hungarian, split_match
from .metrics import (EvalConfig, MetricsReport, confusion_matrix, evaluate,
                      hiou, iou_per_class, subset_miou)
from .mfe import (GRADCHECK_OPS, DenseBlockParams, FeaturePyramid, MfeParams,
                  bilinear_resize, conv2d_3x3, dense_block, grad_check, group_norm,
                  init_mfe_params, mfe_forward, mfe_logits, relu)
from .pipeline import (PipelineConfig, PipelineResult, PipelineStageError,
                       make_synth_run, run_pipeline)
from .synth import SynthFixture, gen_synth, write_fixture
from .tensor_store import (BadHeaderError, BadMagicError, NonFiniteError,
                           TensorFormatError, TruncatedPayloadError,
                           UnsupportedDtypeError, UnsupportedVersionError,
                           load_tensor, reshape_view, save_tensor)

__version__ = "0.1.0"
