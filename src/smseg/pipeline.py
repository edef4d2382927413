"""End-to-end orchestration: cluster -> fuse -> restrict -> embed ->
decode -> match -> losses -> inference -> eval.

The pipeline is file driven: a plain-text config (key = value under
section headers) names the input tensors, every stage writes its
intermediates into the output directory (SMTF for arrays, JSON for
assignments/metrics), and a stage failure is re-raised as
:class:`PipelineStageError` carrying the stage name. Given fixed seeds
the whole run is bitwise reproducible, including the written files.

``run_pipeline`` enters each stage once, in one ``_stage`` block. Stages
``cluster``, ``embed``, ``match``, ``loss`` and ``infer`` call the function
of that name here, as the ``smseg`` subcommand of that name does, and stage
``loss`` also calls ``mfe`` when ``[mfe] enabled``, as ``smseg mfe`` does;
``fuse`` and ``restrict`` call ``fuse_masks`` and ``restrict_candidates``,
as ``smseg fuse`` does. The config keys are declared once, as
``PipelineConfig`` fields.
"""

import configparser
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .clustering import (WindowConfig, fuse_masks, kmeans, multi_scale_seeds,
                         restrict_candidates)
from .decoder import (DEFAULT_RANDOM_QUERIES, DEFAULT_RQ_SIGMA, DecoderParams,
                      assemble_semantic_map, decode, inject_random_queries)
from .embeddings import (ClassEmbeddings, build_joint_embedding,
                         load_candidate_embeddings, pool_region_embeddings,
                         unannotated_region)
from .losses import (CostWeights, class_similarity, cosine_loss,
                     cross_entropy_map, focal_map, matched_loss)
from .matcher import split_match
from .metrics import EvalConfig, evaluate
from .mfe import DEFAULT_TEMPERATURE, bilinear_resize, FeaturePyramid, \
    init_mfe_params, mfe_forward, mfe_logits
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
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _ints(text):
    return tuple(int(t) for t in str(text).replace(" ", "").split(",") if t != "")


def _bool(text):
    """configparser's boolean states: 1/yes/true/on and 0/no/false/off."""
    state = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if state is None:
        raise ValueError(f"not a boolean: {text!r}")
    return state


def _text(value):
    """A field value as the config text its parser reads back."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _key(section, key, default, parse=str):
    """A config field read from ``key`` under ``[section]`` by ``parse``."""
    return field(default=default, metadata={"ini": (section, key, parse)})


@dataclass
class PipelineConfig:
    # inputs, resolved against base_dir; those with a comment are optional
    features: str = _key("inputs", "features", "")
    seen_labels: str = _key("inputs", "seen_labels", "")
    seen_embeddings: str = _key("inputs", "seen_embeddings", "")
    unseen_embeddings: str = _key("inputs", "unseen_embeddings", "")  # unseen classes
    gt_labels: str = _key("inputs", "gt_labels", "")            # enables evaluation
    candidate_embeddings: str = _key("inputs", "candidate_embeddings", "")  # external
    # clustering / fusion
    windows: tuple = _key("clustering", "windows", WindowConfig.window_sizes, _ints)
    kmeans_iters: int = _key("clustering", "iters", WindowConfig.kmeans_iters, int)
    kmeans_tol: float = _key("clustering", "tol", WindowConfig.kmeans_tol, float)
    tau: float = _key("fusion", "tau", 0.9, float)
    min_area: int = _key("fusion", "min_area", 16, int)
    # matching: the fields of CostWeights, read back by ``weights``
    w_cls: float = _key("matching", "w_cls", CostWeights.w_cls, float)
    w_bce: float = _key("matching", "w_bce", CostWeights.w_bce, float)
    w_dice: float = _key("matching", "w_dice", CostWeights.w_dice, float)
    focal_alpha: float = _key("matching", "focal_alpha", CostWeights.focal_alpha, float)
    focal_gamma: float = _key("matching", "focal_gamma", CostWeights.focal_gamma, float)
    use_iou_in_loss: bool = _key("matching", "use_iou", CostWeights.use_iou_in_loss, _bool)
    # decoder; queries and params, both or neither, replace the oracle queries
    decoder_params: str = _key("decoder", "params", "")
    queries: str = _key("decoder", "queries", "")
    ksplit: tuple = _key("decoder", "ksplit", (), _ints)
    layers: int = _key("decoder", "layers", 1, int)
    query_scale: float = _key("decoder", "query_scale", 4.0, float)
    # inference
    random_queries: int = _key("inference", "random_queries", DEFAULT_RANDOM_QUERIES, int)
    rq_seed: int = _key("inference", "seed", 0, int)
    rq_sigma: float = _key("inference", "sigma", DEFAULT_RQ_SIGMA, float)
    # optional fusion-block loss branch
    mfe_enabled: bool = _key("mfe", "enabled", False, _bool)
    mfe_groups: int = _key("mfe", "groups", 8, int)
    mfe_seed: int = _key("mfe", "seed", 0, int)
    temperature: float = _key("mfe", "temperature", DEFAULT_TEMPERATURE, float)
    # eval
    num_classes: int = _key("eval", "num_classes", 0, int)
    seen_ids: tuple = _key("eval", "seen_ids", (), _ints)
    unseen_ids: tuple = _key("eval", "unseen_ids", (), _ints)
    ignore_id: int = _key("eval", "ignore_id", 255, int)
    percent: bool = _key("eval", "percent", True, _bool)
    # output
    out_dir: str = _key("output", "dir", "out")
    base_dir: str = "."

    @classmethod
    def declared(cls):
        """{(section, key): (field name, parser)} for every config key."""
        return {f.metadata["ini"][:2]: (f.name, f.metadata["ini"][2])
                for f in fields(cls) if f.metadata}

    @classmethod
    def from_file(cls, path):
        """Read a config file. An unknown section or key, or a value its
        parser rejects, raises ValueError naming it, and so does a file
        configparser cannot read; an empty value keeps the field's default.
        Values are plain text: a ``%`` reads as itself."""
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            found = parser.read(path)
        except configparser.Error as exc:    # its message names the file
            raise ValueError(str(exc)) from exc
        if not found:
            raise FileNotFoundError(path)
        declared = cls.declared()
        values = {"base_dir": str(Path(path).resolve().parent)}
        for section in parser.sections():
            if section not in {s for s, _ in declared}:
                raise ValueError(f"{path}: unknown config section [{section}]")
            for key, text in parser.items(section):
                if (section, key) not in declared:
                    raise ValueError(f"{path}: unknown config key {key!r} in [{section}]")
                name, parse = declared[section, key]
                if not text:
                    continue
                try:
                    values[name] = parse(text)
                except ValueError as exc:
                    raise ValueError(f"{path}: [{section}] {key}: {exc}") from exc
        return cls(**values)

    def to_text(self, sections):
        """The config file text of every key of the given ``sections``, in
        declaration order, which ``from_file`` reads back as this config.
        An empty value is written empty and keeps its default."""
        declared, lines = self.declared(), []
        for section in sections:
            lines.append(f"[{section}]")
            lines += [f"{key} = {_text(getattr(self, name))}".rstrip()
                      for (sec, key), (name, _) in declared.items() if sec == section]
            lines.append("")
        return "\n".join(lines) + "\n"

    @property
    def weights(self):
        return CostWeights(**{f.name: getattr(self, f.name) for f in fields(CostWeights)})

    def path(self, name):
        value = getattr(self, name)
        return Path(self.base_dir) / value if value else None


@dataclass
class PipelineResult:
    report: object                   # MetricsReport or None
    losses: dict
    assignment: object
    candidate_count: int
    artifacts: dict


def _remap_labels(labels, ids, fill):
    """``{cid: j for j, cid in enumerate(ids)}.get(v, fill)`` for every label
    v, as one sorted-key lookup: a repeated id keeps its last index."""
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    keys, last = np.unique(ids[::-1], return_index=True)
    pos = np.minimum(np.searchsorted(keys, labels), len(keys) - 1)
    return np.where(keys[pos] == labels, len(ids) - 1 - last[pos], fill)


# Stage functions: ``run_pipeline`` calls them in order and each CLI
# subcommand calls one. They reach the library through this module's own
# imports, so a wrapper put on ``smseg.pipeline.kmeans`` sees every call.

def cluster(feats, windows, iters, tol):
    """Multi-window seeds refined by Lloyd iterations: a ClusterResult."""
    wcfg = WindowConfig(window_sizes=windows, kmeans_iters=iters, kmeans_tol=tol)
    return kmeans(feats, multi_scale_seeds(feats, wcfg), wcfg)


def embed(feats, masks, external):
    """Candidate rows: the ``external`` SMTF file's, renormalized, or else
    each of the (U, H, W) ``masks`` (None only with ``external``) pooled."""
    if external:
        return load_candidate_embeddings(
            external, expected_count=None if masks is None else len(masks),
            expected_width=feats.shape[0])
    if masks is None:
        raise ValueError("embed needs masks when no external embeddings are given")
    return pool_region_embeddings(feats, masks)


def _same_queries(v, m):
    """ValueError naming both shapes unless the class queries V and the mask
    queries M have one row per query each."""
    if len(v) != len(m):
        raise ValueError(f"V {v.shape} and M {m.shape} hold different numbers of queries")


def match(v, m, k_seen, targets, joint, weights):
    """Split matching of queries [0, k_seen) to the seen (joint id, mask)
    ``targets`` and the rest to the candidate ones: (Assignment, assign.json
    payload)."""
    _same_queries(v, m)
    assignment = split_match(v, m, k_seen, targets, joint, weights)
    return assignment, {
        "pairs": [{"q": p.query, "t": p.target, "cost": p.cost, "group": p.group}
                  for p in assignment.pairs],
        "unmatched": list(assignment.unmatched_queries),
        "total_cost": assignment.total_cost,
        "seen_count": joint.seen_count,
        "k_seen": k_seen,
        "weights": asdict(weights),  # the cost model of every pair cost
    }


def loss(v, m, k_seen, targets, assignment, joint, weights):
    """Matched, cosine and split-matching losses of ``assignment`` over the
    stacked (joint id, mask) ``targets``. Each pair's cost must come from
    ``match`` under the same ``weights`` and ``k_seen``, in [0, len(v)]. A
    pair's group must be its target's, "seen" below ``joint.seen_count``, and
    its query's, "seen" below ``k_seen`` (ValueError naming the pair
    otherwise). A candidate pair's cosine term uses its target's class row."""
    _same_queries(v, m)
    if not 0 <= k_seen <= len(v):
        raise ValueError(f"k_seen {k_seen} outside [0, {len(v)}] queries")
    matched = matched_loss(assignment, class_similarity(v, joint.matrix), m, targets,
                           weights)
    cand_pairs = []
    for p in assignment.pairs:
        cid = targets[p.target][0]
        group = "seen" if cid < joint.seen_count else "candidate"
        if p.group != group:
            raise ValueError(f"{p.group} pair ({p.query}, {p.target}) has {group} "
                             f"class id {cid}")
        side = "seen" if p.query < k_seen else "candidate"
        if side != group:
            raise ValueError(f"{group} pair ({p.query}, {p.target}) has a {side} "
                             f"query (k_seen {k_seen})")
        if group == "candidate":
            cand_pairs.append((p.query, cid))
    cos = cosine_loss(v, joint.matrix, cand_pairs)
    return {"matched": matched, "cosine": cos, "sm": matched + cos}


def mfe(feats, groups, seed):
    """The fusion block's map F_d of (C, H, W) float32 ``feats``: the 1/4-,
    1/2- and full-size levels fused under ``init_mfe_params(C, groups,
    seed)``. H and W must be positive multiples of 4; ``FeaturePyramid``
    names a size that 4 does not divide."""
    if feats.ndim != 3 or min(feats.shape[1:]) < 4:
        raise ValueError("features must be (C, H, W) with H and W positive multiples "
                         f"of 4, got shape {feats.shape}")
    if feats.dtype != np.float32:
        raise ValueError(f"features must be float32, got {feats.dtype}")
    c, h, w = feats.shape
    pyr = FeaturePyramid(f0=bilinear_resize(feats, h // 4, w // 4),
                         f1=bilinear_resize(feats, h // 2, w // 2), f2=feats)
    return mfe_forward(pyr, init_mfe_params(c, groups=groups, seed=seed))


def seen_query_count(ksplit, rows):
    """k_seen of a (k_seen, k_cand) ``ksplit`` of ``rows`` stacked queries,
    seen first; it must cover every row (ValueError otherwise). An empty
    ``ksplit`` makes every row seen."""
    ksplit = ksplit or (rows, 0)
    if len(ksplit) != 2 or min(ksplit) < 0 or sum(ksplit) != rows:
        raise ValueError(f"ksplit {ksplit} does not cover {rows} queries")
    return ksplit[0]


def infer(queries, feats, params, class_matrix, class_ids, random_queries, seed,
          sigma):
    """Decode with random queries injected and read out a label map over
    ``class_ids``, one per row of ``class_matrix``: (query matrix, labels)."""
    queries = inject_random_queries(queries, k_r=random_queries, seed=seed,
                                    sigma=sigma)
    preds = decode(queries, feats, params)
    labels = assemble_semantic_map(class_similarity(preds.v, class_matrix), preds.m,
                                   class_ids)
    return queries, labels


def decoder_params(path, layers):
    """DecoderParams from a (3, C, C) SMTF tensor holding Wq, Wk, Wv."""
    pm = load_tensor(path)
    if pm.ndim != 3 or pm.shape[0] != 3 or pm.shape[1] != pm.shape[2]:
        raise ValueError(f"decoder params must be (3, C, C), got shape {pm.shape}")
    return DecoderParams(wq=pm[0], wk=pm[1], wv=pm[2], layers=layers)


def run_pipeline(config):
    """Run every stage on the configured inputs; returns a PipelineResult."""
    cfg = PipelineConfig.from_file(config) if not isinstance(
        config, PipelineConfig) else config
    weights = cfg.weights
    out = Path(cfg.base_dir) / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}

    def emit(name, value):
        """Write an array as SMTF, or a *.json payload as JSON."""
        path = out / name
        if name.endswith(".json"):
            path.write_text(json.dumps(value, indent=2) + "\n")
        else:
            save_tensor(value, path)
        artifacts[name] = str(path)

    with _stage("load-inputs"):
        feats = load_tensor(cfg.path("features"))
        seen_labels = load_tensor(cfg.path("seen_labels"))
        seen_matrix = load_tensor(cfg.path("seen_embeddings"))
        seen_ids = cfg.seen_ids or tuple(range(len(seen_matrix)))
        seen_bank = ClassEmbeddings.from_matrix(seen_matrix, seen_ids)
        unseen_matrix, unseen_ids = np.zeros((0, seen_bank.width), np.float32), ()
        if cfg.path("unseen_embeddings"):
            unseen_matrix = load_tensor(cfg.path("unseen_embeddings"))
            unseen_ids = cfg.unseen_ids or tuple(range(
                len(seen_ids), len(seen_ids) + len(unseen_matrix)))
        unseen_bank = ClassEmbeddings.from_matrix(unseen_matrix, unseen_ids)
        unannotated = unannotated_region(seen_labels, cfg.ignore_id,
                                         seen_bank.class_ids + unseen_bank.class_ids)

    with _stage("cluster"):
        clusters = cluster(feats, cfg.windows, cfg.kmeans_iters, cfg.kmeans_tol)
        emit("cluster_assign.smtf", clusters.assignments.astype(np.float32))
        emit("cluster_centroids.smtf", clusters.centroids)

    with _stage("fuse"):
        cents, group_labels = fuse_masks(clusters, tau=cfg.tau)

    with _stage("restrict"):
        cand = restrict_candidates(cents, group_labels, unannotated,
                                   min_area=cfg.min_area)
        masks = cand.masks
        if cand.count:
            emit("Yu.smtf", masks)

    with _stage("embed"):
        cand_rows = embed(feats, masks, cfg.path("candidate_embeddings"))
        joint = build_joint_embedding(seen_bank, cand_rows)
        if cand.count:
            emit("Cu.smtf", cand_rows)
        emit("E.smtf", joint.matrix)

    with _stage("decode"):
        if cfg.queries or cfg.decoder_params:
            if not (cfg.queries and cfg.decoder_params):
                given, missing = (("queries", "params") if cfg.queries
                                  else ("params", "queries"))
                raise ValueError(f"[decoder] {given} needs [decoder] {missing}")
            queries = load_tensor(cfg.path("queries"))
            k_seen = seen_query_count(cfg.ksplit, len(queries))
            params = decoder_params(cfg.path("decoder_params"), cfg.layers)
        else:
            queries, k_seen = cfg.query_scale * joint.matrix, joint.seen_count
            params = DecoderParams.zeros(seen_bank.width, layers=cfg.layers)
        preds = decode(queries, feats, params)
        emit("V.smtf", preds.v)
        emit("M.smtf", preds.m)

    with _stage("match"):
        # joint id per pixel: seen, else candidate, else -1 (ignore_id is no seen id)
        joint_labels = _remap_labels(seen_labels, seen_ids, -1)
        joint_labels = np.where(cand.labels >= 0, joint.seen_count + cand.labels,
                                joint_labels)
        ids = np.flatnonzero(np.bincount(joint_labels[joint_labels >= 0]))
        targets = [(int(j), joint_labels == j) for j in ids]
        assignment, payload = match(preds.v, preds.m, k_seen, targets, joint, weights)
        emit("assign.json", payload)

    with _stage("loss"):
        losses = loss(preds.v, preds.m, k_seen, targets, assignment, joint, weights)
        if cfg.mfe_enabled:
            fused = mfe(feats, cfg.mfe_groups, cfg.mfe_seed)
            logits = mfe_logits(fused, joint.matrix, temperature=cfg.temperature)
            ce = cross_entropy_map(logits, joint_labels, -1)
            foc = focal_map(logits, joint_labels, -1,
                            weights.focal_alpha, weights.focal_gamma)
            losses.update(mfe_ce=ce, mfe_focal=foc, mfe=ce + foc)
            emit("Fd.smtf", fused)
        losses["total"] = losses["sm"] + losses.get("mfe", 0.0)
        emit("loss.json", losses)

    with _stage("infer"):
        query_matrix, labels = infer(
            queries, feats, params,
            np.concatenate([seen_bank.matrix, unseen_bank.matrix]),
            seen_bank.class_ids + unseen_bank.class_ids, cfg.random_queries,
            cfg.rq_seed, cfg.rq_sigma)
        emit("queries.smtf", query_matrix)
        emit("labels.smtf", labels)

    report = None
    if cfg.path("gt_labels"):
        with _stage("eval"):
            gt = load_tensor(cfg.path("gt_labels"))
            ecfg = EvalConfig(
                num_classes=cfg.num_classes or seen_bank.count + unseen_bank.count,
                seen_ids=seen_ids, unseen_ids=unseen_bank.class_ids,
                ignore_id=cfg.ignore_id)
            report = evaluate(labels, gt, ecfg, percent=cfg.percent)
            emit("report.json", report.to_dict())

    return PipelineResult(report=report, losses=losses, assignment=assignment,
                          candidate_count=cand.count, artifacts=artifacts)


def make_synth_run(out_dir, **synth_args):
    """gen_synth(**synth_args) + write_fixture, returning the config path
    for run_pipeline and the fixture."""
    fix = gen_synth(**synth_args)
    paths = write_fixture(fix, out_dir)
    return paths["config"], fix
