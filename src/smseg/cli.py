"""smseg command line: every pipeline stage as a subcommand.

Arrays travel as SMTF files, structured results as JSON. Target lists for
``match``/``loss`` are JSON of the form
``{"targets": [{"class_id": 3, "mask": "mask3.smtf"}, ...]}`` with mask
paths resolved against the JSON file's directory.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .clustering import (ClusterResult, WindowConfig, fuse_masks, kmeans,
                         multi_scale_seeds, restrict_candidates)
from .decoder import DecoderParams, QuerySet, decode, inject_random_queries, \
    assemble_semantic_map
from .embeddings import JointEmbedding, load_candidate_embeddings, \
    pool_region_embeddings
from .losses import (CostWeights, class_similarity, cosine_loss, matched_loss,
                     sm_loss)
from .matcher import Assignment, Pair, split_match
from .metrics import EvalConfig, evaluate
from .mfe import DenseBlockParams, FeaturePyramid, MfeParams, grad_check, \
    mfe_forward, GRADCHECK_OPS
from .pipeline import PipelineStageError, run_pipeline
from .synth import gen_synth, write_fixture
from .tensor_store import load_tensor, save_tensor


def _ints(text):
    return tuple(int(t) for t in text.split(",") if t != "")


def _load_targets(path):
    spec = json.loads(Path(path).read_text())
    base = Path(path).resolve().parent
    targets = []
    for entry in spec["targets"]:
        mask = load_tensor(base / entry["mask"]) if not Path(
            entry["mask"]).is_absolute() else load_tensor(entry["mask"])
        targets.append((int(entry["class_id"]), mask.astype(np.float64)))
    return targets


def _weights_from_json(path):
    if not path:
        return CostWeights()
    raw = json.loads(Path(path).read_text())
    return CostWeights(**raw)


def _joint_from_file(path, seen_count):
    matrix = load_tensor(path)
    if seen_count is None or seen_count > matrix.shape[0]:
        raise SystemExit("--seen-count required and must not exceed embedding rows")
    return JointEmbedding(matrix=matrix, seen_count=seen_count,
                          candidate_count=matrix.shape[0] - seen_count)


def _infer_seen_count(args, cand_targets, embed_rows):
    if args.seen_count is not None:
        return args.seen_count
    if cand_targets:
        return min(cid for cid, _ in cand_targets)
    return embed_rows


def _cmd_cluster(args):
    feats = load_tensor(args.features)
    cfg = WindowConfig(window_sizes=_ints(args.windows), kmeans_iters=args.iters,
                       kmeans_tol=args.tol, metric=args.metric)
    result = kmeans(feats, multi_scale_seeds(feats, cfg), cfg)
    save_tensor(result.assignments.astype(np.float32), args.out_assign)
    save_tensor(result.centroids, args.out_centroids)
    print(json.dumps({"clusters": int(result.centroids.shape[0]),
                      "iterations": len(result.objective_trace),
                      "objective": result.objective_trace[-1]}))


def _cmd_fuse(args):
    assign = load_tensor(args.assign).astype(np.int64)
    centroids = load_tensor(args.centroids)
    result = ClusterResult(assignments=assign.astype(np.int32),
                           centroids=centroids, objective_trace=[])
    masks, cents = fuse_masks(result, tau=args.tau)
    ignore = load_tensor(args.ignore)
    cand = restrict_candidates(masks, cents, ignore, min_area=args.min_area)
    if cand.count:
        save_tensor(cand.masks, args.out_masks)
        save_tensor(cand.centroids, args.out_centroids)
    print(json.dumps({"fused": int(masks.shape[0]), "candidates": cand.count,
                      "masks_written": bool(cand.count)}))


def _cmd_embed(args):
    feats = load_tensor(args.features)
    masks = load_tensor(args.masks) if args.masks else None
    count = int(masks.shape[0]) if masks is not None else 0
    if args.external:
        rows = load_candidate_embeddings(args.external, expected_count=count or None,
                                         expected_width=feats.shape[0])
    else:
        if masks is None:
            raise SystemExit("embed needs --masks when --external is not given")
        rows = pool_region_embeddings(feats, masks)
    if rows.shape[0]:
        save_tensor(rows, args.out)
    print(json.dumps({"rows": int(rows.shape[0]), "width": int(rows.shape[1]),
                      "written": bool(rows.shape[0])}))


def _cmd_match(args):
    v = load_tensor(args.pred_class)
    m = load_tensor(args.pred_masks)
    seen_targets = _load_targets(args.seen_targets)
    cand_targets = _load_targets(args.cand_targets) if args.cand_targets else []
    seen_count = _infer_seen_count(args, cand_targets, None)
    joint = _joint_from_file(args.embeds, seen_count)
    k_seen, k_cand = args.ksplit
    if k_seen + k_cand != len(v):
        raise SystemExit(f"ksplit {args.ksplit} does not cover {len(v)} queries")
    assignment = split_match((v[:k_seen], m[:k_seen]), (v[k_seen:], m[k_seen:]),
                             seen_targets, cand_targets, joint,
                             _weights_from_json(args.weights))
    payload = {
        "pairs": [{"q": p.query, "t": p.target, "cost": p.cost, "group": p.group}
                  for p in assignment.pairs],
        "unmatched": assignment.unmatched_queries,
        "total_cost": assignment.total_cost,
        "seen_count": joint.seen_count,
        "k_seen": k_seen,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps({"pairs": len(assignment.pairs),
                      "total_cost": assignment.total_cost}))


def _cmd_loss(args):
    v = load_tensor(args.pred_class)
    m = load_tensor(args.pred_masks)
    targets = _load_targets(args.targets)
    raw = json.loads(Path(args.assignment).read_text())
    seen_count = raw.get("seen_count", args.seen_count)
    if seen_count is None:
        raise SystemExit("assignment JSON lacks seen_count; pass --seen-count")
    joint = _joint_from_file(args.embeds, seen_count)
    pairs = [Pair(p["q"], p["t"], p.get("cost", 0.0), p.get("group", "seen"))
             for p in raw["pairs"]]
    assignment = Assignment(pairs=pairs, group="combined",
                            unmatched_queries=raw.get("unmatched", []))
    weights = _weights_from_json(args.weights)
    s = class_similarity(v, joint)
    matched = matched_loss(assignment, s, m, targets, weights)
    k_seen = raw.get("k_seen", 0)
    t_seen = sum(1 for cid, _ in targets if cid < joint.seen_count)
    cand_pairs = [(p.query - k_seen, p.target - t_seen)
                  for p in pairs if p.group == "candidate"]
    cand_rows = joint.matrix[joint.seen_count:]
    cos = cosine_loss(v[k_seen:], cand_rows, cand_pairs)
    payload = {"matched": matched, "cosine": cos, "sm": sm_loss(matched, cos)}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))


def _cmd_mfe(args):
    pyr = FeaturePyramid(f0=load_tensor(args.f0), f1=load_tensor(args.f1),
                         f2=load_tensor(args.f2))
    packed = load_tensor(args.params)
    channels = pyr.f2.shape[0]
    per_block = channels * channels * 9 + 3 * channels
    if packed.shape != (3, per_block):
        raise SystemExit(f"params must be (3, {per_block}) for {channels} channels")
    blocks = []
    for row in packed:
        w = row[:channels * channels * 9].reshape(channels, channels, 3, 3)
        rest = row[channels * channels * 9:].reshape(3, channels)
        blocks.append(DenseBlockParams(conv_w=w, conv_b=rest[0],
                                       gn_gamma=rest[1], gn_beta=rest[2],
                                       groups=args.groups, eps=args.eps))
    fused = mfe_forward(pyr, MfeParams(blocks=tuple(blocks)))
    save_tensor(fused.astype(np.float32), args.out)
    print(json.dumps({"shape": list(fused.shape)}))


def _cmd_gradcheck(args):
    err = grad_check(args.op, seed=args.seed, step=args.step)
    if not math.isfinite(err):
        raise ValueError(f"gradcheck {args.op}: relative error is {err}")
    print(json.dumps({"op": args.op, "seed": args.seed, "step": args.step,
                      "max_rel_err": err}))


def _cmd_infer(args):
    feats = load_tensor(args.features)
    stacked = load_tensor(args.queries)
    queries = QuerySet.build(stacked)
    pm = load_tensor(args.decoder)
    params = DecoderParams(wq=pm[0], wk=pm[1], wv=pm[2], layers=args.layers)
    queries = inject_random_queries(queries, k_r=args.random_queries,
                                    seed=args.seed, sigma=args.sigma)
    preds = decode(queries, feats, params)
    embeds = load_tensor(args.embeds)
    scores = class_similarity(preds.v, embeds)
    ids = _ints(args.class_ids) if args.class_ids else tuple(range(len(embeds)))
    labels = assemble_semantic_map(scores, preds.m, ids, ())
    save_tensor(labels, args.out)
    print(json.dumps({"queries": int(preds.v.shape[0]),
                      "classes": int(embeds.shape[0])}))


def _cmd_eval(args):
    cfg = EvalConfig(num_classes=args.classes, seen_ids=_ints(args.seen),
                     unseen_ids=_ints(args.unseen), ignore_id=args.ignore)
    report = evaluate(load_tensor(args.pred), load_tensor(args.gt), cfg,
                      percent=not args.fraction)
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    print(json.dumps({"sIoU": report.siou, "uIoU": report.uiou,
                      "hIoU": report.hiou}))


def _cmd_gen_synth(args):
    fix = gen_synth(seed=args.seed, blobs=args.blobs, seen=args.seen,
                    size=args.size, dim=args.dim, noise=args.noise)
    paths = write_fixture(fix, args.out_dir)
    print(json.dumps(paths, indent=2))


def _cmd_pipeline(args):
    result = run_pipeline(args.config)
    summary = {"candidates": result.candidate_count,
               "pairs": len(result.assignment.pairs),
               "losses": result.losses}
    if result.report is not None:
        summary["report"] = result.report.to_dict()
    print(json.dumps(summary, indent=2))


def build_parser():
    parser = argparse.ArgumentParser(prog="smseg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="multi-window seeded k-means over features")
    p.add_argument("--features", required=True)
    p.add_argument("--windows", default="8,16,32")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--metric", default="cosine", choices=("cosine", "euclidean"))
    p.add_argument("--out-assign", required=True)
    p.add_argument("--out-centroids", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("fuse", help="merge similar clusters, restrict to ignore region")
    p.add_argument("--assign", required=True)
    p.add_argument("--centroids", required=True)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--ignore", required=True)
    p.add_argument("--min-area", type=int, default=16)
    p.add_argument("--out-masks", required=True)
    p.add_argument("--out-centroids", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("embed", help="candidate region embeddings")
    p.add_argument("--features", required=True)
    p.add_argument("--masks", default="")
    p.add_argument("--external", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("match", help="group-decoupled assignment")
    p.add_argument("--pred-class", required=True)
    p.add_argument("--pred-masks", required=True)
    p.add_argument("--embeds", required=True)
    p.add_argument("--seen-targets", required=True)
    p.add_argument("--cand-targets", default="")
    p.add_argument("--ksplit", type=_ints, default=(100, 50))
    p.add_argument("--seen-count", type=int, default=None)
    p.add_argument("--weights", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("loss", help="losses for a stored assignment")
    p.add_argument("--pred-class", required=True)
    p.add_argument("--pred-masks", required=True)
    p.add_argument("--embeds", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--weights", default="")
    p.add_argument("--seen-count", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("mfe", help="multi-scale fusion forward pass")
    p.add_argument("--f0", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--groups", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mfe)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--op", required=True, choices=GRADCHECK_OPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("infer", help="decode with random queries, emit label map")
    p.add_argument("--features", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--decoder", required=True)
    p.add_argument("--embeds", required=True)
    p.add_argument("--class-ids", default="")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--random-queries", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="confusion-matrix metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--seen", required=True)
    p.add_argument("--unseen", default="")
    p.add_argument("--ignore", type=int, default=255)
    p.add_argument("--fraction", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-synth", help="write a deterministic blob fixture")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blobs", type=int, default=4)
    p.add_argument("--seen", type=int, default=2)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, FileNotFoundError, PipelineStageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
