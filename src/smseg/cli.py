"""smseg command line: every pipeline stage as a subcommand.

Arrays travel as SMTF files, structured results as JSON. Target lists for
``match``/``loss`` are JSON of the form
``{"targets": [{"class_id": 3, "mask": "mask3.smtf"}, ...]}`` with mask
paths resolved against the JSON file's directory.
"""

import argparse
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from .clustering import ClusterResult
from .embeddings import JointEmbedding, unannotated_region
from .losses import CostWeights
from .matcher import Assignment, Pair
from .metrics import EvalConfig, evaluate
from .mfe import DenseBlockParams, FeaturePyramid, MfeParams, grad_check, \
    mfe_forward, GRADCHECK_OPS
from .pipeline import (PipelineConfig, PipelineStageError, _ints, cluster,
                       decoder_params, embed, fuse, infer, loss, match,
                       run_pipeline, seen_query_count)
from .synth import gen_synth, write_fixture
from .tensor_store import load_tensor, save_tensor

DEFAULTS = PipelineConfig()
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


def _weights_from_json(path):
    if not path:
        return CostWeights()
    return _cost_weights(json.loads(Path(path).read_text()), path)


def _joint_from_file(path, seen_count):
    """The bank in ``path``; its first ``seen_count`` rows (all if None) are seen."""
    matrix = load_tensor(path)
    seen_count = len(matrix) if seen_count is None else seen_count
    if seen_count > len(matrix):
        raise ValueError(f"seen count {seen_count} exceeds the {len(matrix)} "
                         f"embedding rows of {path}")
    return JointEmbedding(matrix=matrix, seen_count=seen_count)


def _cmd_cluster(args):
    result = cluster(load_tensor(args.features), args.windows, args.iters, args.tol)
    save_tensor(result.assignments.astype(np.float32), args.out_assign)
    save_tensor(result.centroids, args.out_centroids)
    print(json.dumps({"clusters": int(result.centroids.shape[0]),
                      "iterations": len(result.objective_trace),
                      "objective": result.objective_trace[-1]}))


def _cmd_fuse(args):
    clusters = ClusterResult(assignments=load_tensor(args.assign).astype(np.int32),
                             centroids=load_tensor(args.centroids), objective_trace=[])
    region = unannotated_region(load_tensor(args.seen_labels), args.ignore, ())
    fused, cand = fuse(clusters, region, args.tau, args.min_area)
    if cand.count:
        save_tensor(cand.masks, args.out_masks)
        save_tensor(cand.centroids, args.out_centroids)
    print(json.dumps({"fused": fused, "candidates": cand.count,
                      "masks_written": bool(cand.count)}))


def _cmd_embed(args):
    masks = load_tensor(args.masks) if args.masks else None
    rows = embed(load_tensor(args.features), masks, args.external)
    if len(rows):
        save_tensor(rows, args.out)
    print(json.dumps({"rows": len(rows), "width": int(rows.shape[1]),
                      "written": bool(len(rows))}))


def _cmd_match(args):
    v = load_tensor(args.pred_class)
    cand_targets = _load_targets(args.cand_targets) if args.cand_targets else []
    seen_count = args.seen_count
    if seen_count is None:          # the first candidate id, or every row
        seen_count = min((cid for cid, _ in cand_targets), default=None)
    assignment, payload = match(v, load_tensor(args.pred_masks),
                                seen_query_count(args.ksplit, len(v)),
                                _load_targets(args.seen_targets), cand_targets,
                                _joint_from_file(args.embeds, seen_count),
                                _weights_from_json(args.weights))
    _write_json(args.out, payload)
    print(json.dumps({"pairs": len(assignment.pairs),
                      "total_cost": assignment.total_cost}))


def _cmd_loss(args):
    source = args.assignment
    raw = _read_json(source)
    seen_count = raw.get("seen_count", args.seen_count)
    if seen_count is None:
        raise ValueError("assignment JSON lacks seen_count; pass --seen-count")
    _typed(seen_count, int, f"{source}: 'seen_count'")
    if "weights" not in raw:
        raise ValueError("assignment JSON lacks the weights of its costs; rerun match")
    pairs = [Pair(_field(p, "q", source, int), _field(p, "t", source, int),
                  p.get("cost"), p.get("group", "seen"))
             for p in _objects(raw, "pairs", source)]
    unmatched = [_typed(q, int, f"{source}: each of 'unmatched'")
                 for q in _field(raw, "unmatched", source, list, [])]
    assignment = Assignment(pairs, unmatched)
    payload = loss(load_tensor(args.pred_class), load_tensor(args.pred_masks),
                   _load_targets(args.targets), assignment,
                   _joint_from_file(args.embeds, seen_count),
                   _cost_weights(raw["weights"], args.assignment))
    _write_json(args.out, payload)
    print(json.dumps(payload))


def _cmd_mfe(args):
    pyr = FeaturePyramid(f0=load_tensor(args.f0), f1=load_tensor(args.f1),
                         f2=load_tensor(args.f2))
    packed = load_tensor(args.params)
    channels = pyr.f2.shape[0]
    per_block = channels * channels * 9 + 3 * channels
    if packed.shape != (3, per_block):
        raise ValueError(f"params must be (3, {per_block}) for {channels} channels")
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
    embeds = load_tensor(args.embeds)
    queries, labels = infer(load_tensor(args.queries),
                            load_tensor(args.features),
                            decoder_params(args.decoder, args.layers), embeds,
                            args.class_ids or tuple(range(len(embeds))),
                            args.random_queries, args.seed, args.sigma)
    save_tensor(labels, args.out)
    print(json.dumps({"queries": len(queries), "classes": len(embeds)}))


def _cmd_eval(args):
    cfg = EvalConfig(num_classes=args.classes, seen_ids=args.seen,
                     unseen_ids=args.unseen, ignore_id=args.ignore)
    report = evaluate(load_tensor(args.pred), load_tensor(args.gt), cfg,
                      percent=not args.fraction)
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

    def command(name, func, help, *required):
        """A subcommand running ``func``, with the ``required`` path flags."""
        p = sub.add_parser(name, help=help)
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    p = command("cluster", _cmd_cluster, "multi-window seeded k-means over features",
                "--features", "--out-assign", "--out-centroids")
    p.add_argument("--windows", type=_ints, default=DEFAULTS.windows)
    p.add_argument("--iters", type=int, default=DEFAULTS.kmeans_iters)
    p.add_argument("--tol", type=float, default=DEFAULTS.kmeans_tol)

    p = command("fuse", _cmd_fuse, "merge similar clusters, restrict to the pixels "
                "whose seen label is the ignore id", "--assign", "--centroids",
                "--seen-labels", "--out-masks", "--out-centroids")
    p.add_argument("--ignore", type=int, default=DEFAULTS.ignore_id)
    p.add_argument("--tau", type=float, default=DEFAULTS.tau)
    p.add_argument("--min-area", type=int, default=DEFAULTS.min_area)

    p = command("embed", _cmd_embed, "candidate region embeddings",
                "--features", "--out")
    p.add_argument("--masks", default="")
    p.add_argument("--external", default="")

    p = command("match", _cmd_match, "group-decoupled assignment", "--pred-class",
                "--pred-masks", "--embeds", "--seen-targets", "--out")
    p.add_argument("--cand-targets", default="")
    p.add_argument("--ksplit", type=_ints, default=())
    p.add_argument("--seen-count", type=int, default=None)
    p.add_argument("--weights", default="")

    p = command("loss", _cmd_loss, "losses for a stored assignment", "--pred-class",
                "--pred-masks", "--embeds", "--targets", "--assignment", "--out")
    p.add_argument("--seen-count", type=int, default=None)

    p = command("mfe", _cmd_mfe, "multi-scale fusion forward pass",
                "--f0", "--f1", "--f2", "--params", "--out")
    p.add_argument("--groups", type=int, default=DEFAULTS.mfe_groups)
    p.add_argument("--eps", type=float, default=1e-5)

    p = command("gradcheck", _cmd_gradcheck, "finite-difference gradient verification")
    p.add_argument("--op", required=True, choices=GRADCHECK_OPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)

    p = command("infer", _cmd_infer, "decode with random queries, emit label map",
                "--features", "--queries", "--decoder", "--embeds", "--out")
    p.add_argument("--class-ids", type=_ints, default=())
    p.add_argument("--layers", type=int, default=DEFAULTS.layers)
    p.add_argument("--random-queries", type=int, default=DEFAULTS.random_queries)
    p.add_argument("--seed", type=int, default=DEFAULTS.rq_seed)
    p.add_argument("--sigma", type=float, default=DEFAULTS.rq_sigma)

    p = command("eval", _cmd_eval, "confusion-matrix metrics", "--pred", "--gt", "--out")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--seen", type=_ints, required=True)
    p.add_argument("--unseen", type=_ints, default=())
    p.add_argument("--ignore", type=int, default=DEFAULTS.ignore_id)
    p.add_argument("--fraction", action="store_true")

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
