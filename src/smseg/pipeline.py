"""End-to-end orchestration: cluster -> fuse -> restrict -> embed ->
decode -> match -> losses -> inference -> eval.

The pipeline is file driven: a plain-text config (key = value under
section headers) names the input tensors, every stage writes its
intermediates into the output directory (SMTF for arrays, JSON for
assignments/metrics), and a stage failure is re-raised as
:class:`PipelineStageError` carrying the stage name. Given fixed seeds
the whole run is bitwise reproducible, including the written files.
"""

import configparser
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import (WindowConfig, fuse_masks, kmeans, multi_scale_seeds,
                         restrict_candidates)
from .decoder import DecoderParams, QuerySet, decode, inject_random_queries, \
    assemble_semantic_map
from .embeddings import (ClassEmbeddings, build_joint_embedding,
                         load_candidate_embeddings, pool_region_embeddings)
from .losses import (CostWeights, class_similarity, cosine_loss,
                     cross_entropy_map, focal_map, matched_loss, mfe_loss,
                     sm_loss, total_loss)
from .matcher import split_match
from .metrics import EvalConfig, evaluate
from .mfe import bilinear_resize, FeaturePyramid, init_mfe_params, mfe_forward, \
    mfe_logits
from .synth import gen_synth, write_fixture
from .tensor_store import load_tensor, save_tensor


class PipelineStageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _ints(text):
    return tuple(int(t) for t in str(text).replace(" ", "").split(",") if t != "")


@dataclass
class PipelineConfig:
    # inputs (paths are resolved against base_dir)
    features: str = ""
    seen_labels: str = ""
    ignore_mask: str = ""            # optional; derived from seen_labels otherwise
    seen_embeddings: str = ""
    unseen_embeddings: str = ""      # optional; enables unseen classes at inference
    gt_labels: str = ""              # optional; enables evaluation
    candidate_embeddings: str = ""   # optional external region embeddings
    # clustering / fusion
    windows: tuple = (8, 16, 32)
    kmeans_iters: int = 10
    kmeans_tol: float = 1e-4
    metric: str = "cosine"
    tau: float = 0.9
    min_area: int = 16
    # matching
    weights: CostWeights = field(default_factory=CostWeights)
    # decoder
    decoder_mode: str = "oracle"     # "oracle" builds queries from embeddings
    decoder_params: str = ""
    queries: str = ""
    ksplit: tuple = ()
    layers: int = 1
    query_scale: float = 4.0
    # inference
    random_queries: int = 50
    rq_seed: int = 0
    rq_sigma: float = 0.02
    # optional fusion-block loss branch
    mfe_enabled: bool = False
    mfe_groups: int = 8
    mfe_seed: int = 0
    temperature: float = 0.07
    # eval
    num_classes: int = 0
    seen_ids: tuple = ()
    unseen_ids: tuple = ()
    ignore_id: int = 255
    percent: bool = True
    # output
    out_dir: str = "out"
    base_dir: str = "."

    @classmethod
    def from_file(cls, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(path)
        base = Path(path).resolve().parent
        cfg = cls(base_dir=str(base))

        def get(section, key, default=None):
            if parser.has_option(section, key):
                return parser.get(section, key)
            return default

        for key in ("features", "seen_labels", "ignore_mask", "seen_embeddings",
                    "unseen_embeddings", "gt_labels", "candidate_embeddings"):
            setattr(cfg, key, get("inputs", key, ""))
        if get("clustering", "windows"):
            cfg.windows = _ints(get("clustering", "windows"))
        cfg.kmeans_iters = int(get("clustering", "iters", cfg.kmeans_iters))
        cfg.kmeans_tol = float(get("clustering", "tol", cfg.kmeans_tol))
        cfg.metric = get("clustering", "metric", cfg.metric)
        cfg.tau = float(get("fusion", "tau", cfg.tau))
        cfg.min_area = int(get("fusion", "min_area", cfg.min_area))
        cfg.weights = CostWeights(
            w_cls=float(get("matching", "w_cls", 1.0)),
            w_bce=float(get("matching", "w_bce", 1.0)),
            w_dice=float(get("matching", "w_dice", 1.0)),
            focal_alpha=float(get("matching", "focal_alpha", 0.25)),
            focal_gamma=float(get("matching", "focal_gamma", 2.0)),
            use_iou_in_loss=str(get("matching", "use_iou", "true")).lower() == "true",
        )
        cfg.decoder_mode = get("decoder", "mode", cfg.decoder_mode)
        cfg.decoder_params = get("decoder", "params", "")
        cfg.queries = get("decoder", "queries", "")
        if get("decoder", "ksplit"):
            cfg.ksplit = _ints(get("decoder", "ksplit"))
        cfg.layers = int(get("decoder", "layers", cfg.layers))
        cfg.query_scale = float(get("decoder", "query_scale", cfg.query_scale))
        cfg.random_queries = int(get("inference", "random_queries", cfg.random_queries))
        cfg.rq_seed = int(get("inference", "seed", cfg.rq_seed))
        cfg.rq_sigma = float(get("inference", "sigma", cfg.rq_sigma))
        cfg.mfe_enabled = str(get("mfe", "enabled", "false")).lower() == "true"
        cfg.mfe_groups = int(get("mfe", "groups", cfg.mfe_groups))
        cfg.mfe_seed = int(get("mfe", "seed", cfg.mfe_seed))
        cfg.temperature = float(get("mfe", "temperature", cfg.temperature))
        cfg.num_classes = int(get("eval", "num_classes", 0))
        cfg.seen_ids = _ints(get("eval", "seen_ids", ""))
        cfg.unseen_ids = _ints(get("eval", "unseen_ids", ""))
        cfg.ignore_id = int(get("eval", "ignore_id", cfg.ignore_id))
        cfg.percent = str(get("eval", "percent", "true")).lower() == "true"
        cfg.out_dir = get("output", "dir", cfg.out_dir)
        return cfg

    def path(self, name):
        value = getattr(self, name)
        if not value:
            return None
        p = Path(value)
        return p if p.is_absolute() else Path(self.base_dir) / p


@dataclass
class PipelineResult:
    report: object                   # MetricsReport or None
    losses: dict
    assignment: object
    candidate_count: int
    artifacts: dict


def _seen_targets(seen_labels, seen_ids, ignore_id):
    """(joint id, binary mask) for every seen class present in the labels."""
    targets = []
    for joint_id, class_id in enumerate(seen_ids):
        mask = (seen_labels == class_id).astype(np.float64)
        if class_id != ignore_id and mask.any():
            targets.append((joint_id, mask))
    return targets


def _remap_labels(labels, ids, fill):
    """``{cid: j for j, cid in enumerate(ids)}.get(v, fill)`` for every label
    v, as one sorted-key lookup: a repeated id keeps its last index."""
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    keys, last = np.unique(ids[::-1], return_index=True)
    pos = np.minimum(np.searchsorted(keys, labels), len(keys) - 1)
    return np.where(keys[pos] == labels, len(ids) - 1 - last[pos], fill)


def _assignment_json(assignment, seen_count, k_seen):
    return {
        "pairs": [{"q": p.query, "t": p.target, "cost": p.cost, "group": p.group}
                  for p in assignment.pairs],
        "unmatched": list(assignment.unmatched_queries),
        "total_cost": assignment.total_cost,
        "seen_count": seen_count,
        "k_seen": k_seen,
    }


def run_pipeline(config, global_loss_hook=None):
    """Run every stage on the configured inputs; returns a PipelineResult.

    ``global_loss_hook`` is an optional callable (fused_map, joint) ->
    float merged into the fusion-block loss; it defaults to disabled.
    """
    cfg = PipelineConfig.from_file(config) if not isinstance(
        config, PipelineConfig) else config
    out = Path(cfg.base_dir) / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}

    def emit(name, array):
        path = out / name
        save_tensor(array, path)
        artifacts[name] = str(path)

    def emit_json(name, payload):
        path = out / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        artifacts[name] = str(path)

    with _stage("load-inputs"):
        feats = load_tensor(cfg.path("features"))
        seen_labels = load_tensor(cfg.path("seen_labels"))
        if cfg.path("ignore_mask"):
            ignore = load_tensor(cfg.path("ignore_mask"))
        else:
            ignore = (seen_labels == cfg.ignore_id).astype(np.uint8)
        seen_ids = cfg.seen_ids or tuple(range(load_tensor(
            cfg.path("seen_embeddings")).shape[0]))
        seen_bank = ClassEmbeddings.from_matrix(
            load_tensor(cfg.path("seen_embeddings")), seen_ids)
        unseen_bank = None
        if cfg.path("unseen_embeddings"):
            unseen_ids = cfg.unseen_ids or tuple(range(
                len(seen_ids), len(seen_ids) + load_tensor(
                    cfg.path("unseen_embeddings")).shape[0]))
            unseen_bank = ClassEmbeddings.from_matrix(
                load_tensor(cfg.path("unseen_embeddings")), unseen_ids)

    with _stage("cluster"):
        wcfg = WindowConfig(window_sizes=cfg.windows, kmeans_iters=cfg.kmeans_iters,
                            kmeans_tol=cfg.kmeans_tol, metric=cfg.metric)
        clusters = kmeans(feats, multi_scale_seeds(feats, wcfg), wcfg)
        emit("cluster_assign.smtf", clusters.assignments.astype(np.float32))
        emit("cluster_centroids.smtf", clusters.centroids)

    with _stage("fuse"):
        fused_masks, fused_cents = fuse_masks(clusters, tau=cfg.tau)

    with _stage("restrict"):
        cand = restrict_candidates(fused_masks, fused_cents, ignore,
                                   min_area=cfg.min_area)
        if cand.count:
            emit("Yu.smtf", cand.masks)

    with _stage("embed"):
        if cfg.path("candidate_embeddings"):
            cand_rows = load_candidate_embeddings(
                cfg.path("candidate_embeddings"), expected_count=cand.count,
                expected_width=seen_bank.width)
        else:
            cand_rows = pool_region_embeddings(feats, cand)
        joint = build_joint_embedding(seen_bank, cand_rows)
        if cand.count:
            emit("Cu.smtf", cand_rows)
        emit("E.smtf", joint.matrix)

    with _stage("decode"):
        if cfg.decoder_mode == "oracle":
            queries = QuerySet.build(
                cfg.query_scale * seen_bank.matrix,
                cfg.query_scale * cand_rows if cand.count else None)
            params = DecoderParams.zeros(seen_bank.width, layers=cfg.layers)
        elif cfg.decoder_mode == "file":
            stacked = load_tensor(cfg.path("queries"))
            k_seen, k_cand = cfg.ksplit if cfg.ksplit else (len(stacked), 0)
            queries = QuerySet.build(stacked[:k_seen], stacked[k_seen:k_seen + k_cand])
            pm = load_tensor(cfg.path("decoder_params"))
            params = DecoderParams(wq=pm[0], wk=pm[1], wv=pm[2], layers=cfg.layers)
        else:
            raise ValueError(f"unknown decoder mode {cfg.decoder_mode!r}")
        preds = decode(queries, feats, params)
        emit("V.smtf", preds.v)
        emit("M.smtf", preds.m)

    with _stage("match"):
        seen_targets = _seen_targets(seen_labels, seen_ids, cfg.ignore_id)
        cand_targets = [(joint.seen_count + u, cand.masks[u].astype(np.float64))
                        for u in range(cand.count)]
        assignment = split_match(preds.seen, preds.cand, seen_targets,
                                 cand_targets, joint, cfg.weights)
        emit_json("assign.json", _assignment_json(assignment, joint.seen_count,
                                                  preds.k_seen))

    with _stage("loss"):
        v_all = preds.v
        m_all = preds.m
        s_all = class_similarity(v_all, joint)
        targets = seen_targets + cand_targets
        matched = matched_loss(assignment, s_all, m_all, targets, cfg.weights)
        t_seen = len(seen_targets)
        cand_pairs = [(p.query - preds.k_seen, p.target - t_seen)
                      for p in assignment.pairs if p.group == "candidate"]
        cos = cosine_loss(preds.cand[0], cand_rows, cand_pairs)
        losses = {"matched": matched, "cosine": cos,
                  "sm": sm_loss(matched, cos)}
        if cfg.mfe_enabled:
            c, h, w = feats.shape
            pyr = FeaturePyramid(f0=bilinear_resize(feats, h // 4, w // 4),
                                 f1=bilinear_resize(feats, h // 2, w // 2),
                                 f2=feats)
            fused = mfe_forward(pyr, init_mfe_params(
                c, groups=cfg.mfe_groups, seed=cfg.mfe_seed))
            logits = mfe_logits(fused, joint, temperature=cfg.temperature)
            pseudo = _remap_labels(seen_labels, seen_ids, cfg.ignore_id)
            for u in range(cand.count):
                pseudo[cand.masks[u].astype(bool)] = joint.seen_count + u
            ce = cross_entropy_map(logits, pseudo, cfg.ignore_id)
            foc = focal_map(logits, pseudo, cfg.ignore_id,
                            cfg.weights.focal_alpha, cfg.weights.focal_gamma)
            hook = global_loss_hook(fused, joint) if global_loss_hook else None
            losses["mfe_ce"] = ce
            losses["mfe_focal"] = foc
            losses["mfe"] = mfe_loss(ce, foc, hook)
            emit("Fd.smtf", fused)
        losses["total"] = total_loss(losses["sm"], losses.get("mfe", 0.0))
        emit_json("loss.json", losses)

    with _stage("infer"):
        infer_qs = inject_random_queries(queries, k_r=cfg.random_queries,
                                         seed=cfg.rq_seed, sigma=cfg.rq_sigma)
        emit("queries.smtf", infer_qs.matrix)
        infer_preds = decode(infer_qs, feats, params)
        if unseen_bank is not None:
            class_matrix = np.concatenate([seen_bank.matrix, unseen_bank.matrix])
            ids = (seen_bank.class_ids, unseen_bank.class_ids)
        else:
            class_matrix = seen_bank.matrix
            ids = (seen_bank.class_ids, ())
        scores = class_similarity(infer_preds.v, class_matrix)
        labels = assemble_semantic_map(scores, infer_preds.m, ids[0], ids[1])
        emit("labels.smtf", labels)

    report = None
    if cfg.path("gt_labels"):
        with _stage("eval"):
            gt = load_tensor(cfg.path("gt_labels"))
            n = cfg.num_classes or (len(seen_ids) + (unseen_bank.count
                                                     if unseen_bank else 0))
            ecfg = EvalConfig(num_classes=n, seen_ids=seen_ids,
                              unseen_ids=unseen_bank.class_ids if unseen_bank else (),
                              ignore_id=cfg.ignore_id)
            report = evaluate(labels, gt, ecfg, percent=cfg.percent)
            emit_json("report.json", report.to_dict())

    return PipelineResult(report=report, losses=losses, assignment=assignment,
                          candidate_count=cand.count, artifacts=artifacts)


def make_synth_run(out_dir, seed=0, blobs=4, seen=2, size=64, dim=16,
                   noise=0.05):
    """gen_synth + write_fixture, returning the config path for run_pipeline."""
    fix = gen_synth(seed=seed, blobs=blobs, seen=seen, size=size, dim=dim,
                    noise=noise)
    paths = write_fixture(fix, out_dir)
    return paths["config"], fix
