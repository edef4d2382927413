"""smseg command line: every pipeline stage as a subcommand.

The config file is the one parameter source: ``cluster``, ``fuse``, ``match``,
``mfe``, ``infer`` and ``eval`` read the ``PipelineConfig`` of ``--config``, as
``smseg pipeline`` does, or its defaults without the flag. Arrays travel as
SMTF files, structured results as JSON. ``match`` and ``loss`` take one target
list, seen and candidate targets in any order, as JSON of the form
``{"targets": [{"class_id": 3, "mask": "mask3.smtf"}, ...]}`` with mask paths
resolved against the JSON file's directory.
"""

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .clustering import ClusterResult, fuse_masks, restrict_candidates
from .embeddings import JointEmbedding, unannotated_region
from .losses import CostWeights
from .matcher import Assignment, Pair
from .metrics import EvalConfig, evaluate
from .mfe import GRADCHECK_BOUND, GRADCHECK_OPS, grad_check
from .pipeline import (PipelineConfig, PipelineStageError, _ints, cluster,
                       decoder_params, embed, infer, loss, match, mfe, run_pipeline,
                       seen_query_count)
from .synth import gen_synth, write_fixture
from .tensor_store import load_tensor, save_tensor

# gen_synth parameters exposed as gen-synth flags, with gen_synth's defaults
SYNTH_FLAGS = ("seed", "blobs", "seen", "size", "dim", "noise")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}


def _typed(value, kind, what):
    """``value`` if it is a ``kind`` (a bool is no integer); ValueError
    naming ``what`` otherwise."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _field(obj, key, source, kind, default=None):
    """``obj[key]``, or ``default`` where the JSON object ``obj`` lacks it, as
    a ``kind``."""
    return _typed(obj.get(key, default), kind, f"{source}: {key!r}")


def _objects(obj, key, source):
    """The list of JSON objects under ``key`` of ``obj``."""
    return [_typed(item, dict, f"{source}: each of {key!r}")
            for item in _field(obj, key, source, list)]


def _read_json(path):
    """The JSON object in the file ``path``."""
    return _typed(json.loads(Path(path).read_text()), dict, str(path))


def _load_targets(path):
    base = Path(path).resolve().parent
    return [(_field(entry, "class_id", path, int),
             load_tensor(base / _field(entry, "mask", path, str)).astype(np.float64))
            for entry in _objects(_read_json(path), "targets", path)]


def _cost_weights(fields, source):
    """CostWeights from the JSON object ``fields``; unknown keys and values
    of another type than their field's are named."""
    if not isinstance(fields, dict):
        raise ValueError(f"{source}: weights must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(CostWeights)}
    unknown = sorted(set(fields) - set(types))
    if unknown:
        raise ValueError(f"{source}: unknown weight keys {unknown}")
    for name, value in fields.items():    # a bool field takes a bool, others a number
        if (not isinstance(value, (int, float))
                or isinstance(value, bool) != (types[name] is bool)):
            raise ValueError(f"{source}: weight {name!r} must be a "
                             f"{types[name].__name__}, got {value!r}")
    return CostWeights(**fields)


def _joint_from_file(path, seen_count):
    """The (rows, C) bank in ``path``; its first ``seen_count`` rows (all if
    None) are seen."""
    matrix = load_tensor(path)
    if matrix.ndim != 2:
        raise ValueError(f"embeddings {path} must be a (rows, C) matrix, got shape "
                         f"{matrix.shape}")
    seen_count = len(matrix) if seen_count is None else seen_count
    if seen_count < 0:
        raise ValueError(f"seen count {seen_count} is negative")
    if seen_count > len(matrix):
        raise ValueError(f"seen count {seen_count} exceeds the {len(matrix)} "
                         f"embedding rows of {path}")
    return JointEmbedding(matrix=matrix, seen_count=seen_count)


def _cmd_cluster(args, cfg):
    result = cluster(load_tensor(args.features), cfg.windows, cfg.kmeans_iters,
                     cfg.kmeans_tol)
    save_tensor(result.assignments.astype(np.float32), args.out_assign)
    save_tensor(result.centroids, args.out_centroids)
    print(json.dumps({"clusters": int(result.centroids.shape[0]),
                      "iterations": len(result.objective_trace),
                      "objective": result.objective_trace[-1]}))


def _cmd_fuse(args, cfg):
    ids, centroids = load_tensor(args.assign), load_tensor(args.centroids)
    bad = ids[ids != np.floor(ids)]
    if bad.size:
        raise ValueError(f"cluster id {bad[0]} is not a whole number")
    bad = ids[(ids < 0) | (ids >= len(centroids))]
    if bad.size:
        raise ValueError(f"cluster id {int(bad[0])} is no row of the {len(centroids)} "
                         "centroids")
    clusters = ClusterResult(assignments=ids.astype(np.int32), centroids=centroids,
                             objective_trace=[])
    region = unannotated_region(load_tensor(args.seen_labels), cfg.ignore_id,
                                cfg.seen_ids + cfg.unseen_ids)
    cents, labels = fuse_masks(clusters, tau=cfg.tau)
    cand = restrict_candidates(cents, labels, region, min_area=cfg.min_area)
    if cand.count:
        save_tensor(cand.masks, args.out_masks)
        save_tensor(cand.centroids, args.out_centroids)
    print(json.dumps({"fused": len(cents), "candidates": cand.count,
                      "masks_written": bool(cand.count)}))


def _cmd_embed(args):
    masks = load_tensor(args.masks) if args.masks else None
    rows = embed(load_tensor(args.features), masks, args.external)
    if len(rows):
        save_tensor(rows, args.out)
    print(json.dumps({"rows": len(rows), "width": int(rows.shape[1]),
                      "written": bool(len(rows))}))


def _cmd_match(args, cfg):
    v = load_tensor(args.pred_class)
    assignment, payload = match(v, load_tensor(args.pred_masks),
                                seen_query_count(cfg.ksplit, len(v)),
                                _load_targets(args.targets),
                                _joint_from_file(args.embeds, args.seen_count),
                                cfg.weights)
    _write_json(args.out, payload)
    print(json.dumps({"pairs": len(assignment.pairs),
                      "total_cost": assignment.total_cost}))


def _cmd_loss(args):
    source = args.assignment
    raw = _read_json(source)
    seen_count = _field(raw, "seen_count", source, int)
    if "weights" not in raw:
        raise ValueError("assignment JSON lacks the weights of its costs; rerun match")
    pairs = [Pair(_field(p, "q", source, int), _field(p, "t", source, int),
                  p.get("cost"), _field(p, "group", source, str))
             for p in _objects(raw, "pairs", source)]
    unmatched = [_typed(q, int, f"{source}: each of 'unmatched'")
                 for q in _field(raw, "unmatched", source, list, [])]
    assignment = Assignment(pairs, unmatched).validate()
    targets = _load_targets(args.targets)
    joint = _joint_from_file(args.embeds, seen_count)
    weights = _cost_weights(raw["weights"], source)
    payload = loss(load_tensor(args.pred_class), load_tensor(args.pred_masks),
                   _field(raw, "k_seen", source, int), targets, assignment, joint,
                   weights)
    _write_json(args.out, payload)
    print(json.dumps(payload))


def _cmd_mfe(args, cfg):
    fused = mfe(load_tensor(args.features), cfg.mfe_groups, cfg.mfe_seed)
    save_tensor(fused, args.out)
    print(json.dumps({"shape": list(fused.shape)}))


def _cmd_gradcheck(args):
    err = grad_check(args.op, seed=args.seed, step=args.step)
    if not err < GRADCHECK_BOUND:
        raise ValueError(f"gradcheck {args.op}: relative error {err} is not below "
                         f"{GRADCHECK_BOUND}")
    print(json.dumps({"op": args.op, "seed": args.seed, "step": args.step,
                      "max_rel_err": err}))


def _cmd_infer(args, cfg):
    embeds = _joint_from_file(args.embeds, None).matrix
    queries, labels = infer(load_tensor(args.queries),
                            load_tensor(args.features),
                            decoder_params(args.decoder, cfg.layers), embeds,
                            args.class_ids or tuple(range(len(embeds))),
                            cfg.random_queries, cfg.rq_seed, cfg.rq_sigma)
    save_tensor(labels, args.out)
    print(json.dumps({"queries": len(queries), "classes": len(embeds)}))


def _cmd_eval(args, cfg):
    if cfg.num_classes <= 0 or not cfg.seen_ids:    # no banks to derive them from
        raise ValueError("eval needs [eval] num_classes > 0 and seen_ids in its "
                         f"--config, got {cfg.num_classes} and {cfg.seen_ids}")
    ecfg = EvalConfig(num_classes=cfg.num_classes, seen_ids=cfg.seen_ids,
                      unseen_ids=cfg.unseen_ids, ignore_id=cfg.ignore_id)
    report = evaluate(load_tensor(args.pred), load_tensor(args.gt), ecfg,
                      percent=cfg.percent)
    _write_json(args.out, report.to_dict())
    print(json.dumps({"sIoU": report.siou, "uIoU": report.uiou,
                      "hIoU": report.hiou}))


def _cmd_gen_synth(args):
    fix = gen_synth(**{name: getattr(args, name) for name in SYNTH_FLAGS})
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

    def command(name, func, help, *required, config=False):
        """A subcommand running ``func``, with the ``required`` path flags. With
        ``config`` it runs ``func(args, cfg)`` on the PipelineConfig of the
        optional ``--config`` file, or on the defaults without it."""
        p = sub.add_parser(name, help=help)
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", default="")
            p.set_defaults(func=lambda args: func(args, (
                PipelineConfig.from_file(args.config) if args.config else PipelineConfig())))
        return p

    command("cluster", _cmd_cluster, "multi-window seeded k-means over features",
            "--features", "--out-assign", "--out-centroids", config=True)

    command("fuse", _cmd_fuse, "merge similar clusters, restrict to the pixels "
            "whose seen label is the ignore id", "--assign", "--centroids",
            "--seen-labels", "--out-masks", "--out-centroids", config=True)

    p = command("embed", _cmd_embed, "candidate region embeddings",
                "--features", "--out")
    p.add_argument("--masks", default="")
    p.add_argument("--external", default="")

    p = command("match", _cmd_match, "group-decoupled assignment", "--pred-class",
                "--pred-masks", "--embeds", "--targets", "--out", config=True)
    p.add_argument("--seen-count", type=int, default=None)

    command("loss", _cmd_loss, "losses for a stored assignment", "--pred-class",
            "--pred-masks", "--embeds", "--targets", "--assignment", "--out")

    command("mfe", _cmd_mfe, "multi-scale fusion block over a feature map",
            "--features", "--out", config=True)

    p = command("gradcheck", _cmd_gradcheck, "finite-difference gradient verification")
    p.add_argument("--op", required=True, choices=GRADCHECK_OPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)

    p = command("infer", _cmd_infer, "decode with random queries, emit label map",
                "--features", "--queries", "--decoder", "--embeds", "--out", config=True)
    p.add_argument("--class-ids", type=_ints, default=())

    command("eval", _cmd_eval, "confusion-matrix metrics", "--pred", "--gt", "--out",
            config=True)

    p = command("gen-synth", _cmd_gen_synth, "write a deterministic blob fixture",
                "--out-dir")
    synth_params = inspect.signature(gen_synth).parameters
    for name in SYNTH_FLAGS:
        default = synth_params[name].default
        p.add_argument(f"--{name}", type=type(default), default=default)

    command("pipeline", _cmd_pipeline, "run every stage from a config file", "--config")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, PipelineStageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
