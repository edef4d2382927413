#!/usr/bin/env python3
"""smseg benchmark: four seeded workloads through the library's public calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # all four, traced too
    python3 perfbench/run.py --record [--workload NAME]   # references

One run sets up its inputs from the seed, times whole passes over them
for about ``--seconds`` (BENCHMARK.json's ``run_seconds`` by default),
checks every op's output against ``reference.json`` outside the timed
region and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Earlier lines carry the run's provenance and a summary for people.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import ctypes
import functools
import hashlib
import importlib
import inspect
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3        # set-up passes per run
IMPORT_REPEATS = 7       # fresh-interpreter imports of smseg per run
GRAD_TOL = 1e-4
P90_MIN_OPS = 100        # p90 needs ten samples beyond it
# The host's speed swings by up to 1.5x for spells of seconds to minutes
# (other tenants share its cores). Timings are therefore reported at a
# reference speed: raw seconds x REF_PROBE_S / the probe's time around them
# (REF_LOOP_S for the loop timed inside the import's own interpreter).
REF_PROBE_S = 2.0e-3
REF_LOOP_S = 3.5e-3
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4      # glibc's mallopt parameters

# pool: inputs set up per run, drawn from `universe` recorded references
# (consecutive grad_check seeds on gradcheck), sized so that one pass over
# them takes about run_seconds
WORKLOADS = {
    "pipeline-large": {"kind": "pipeline", "size": 192, "dim": 32, "blobs": 4,
                       "seen": 2, "mfe": False, "pool": 6, "universe": 32},
    "pipeline-small": {"kind": "pipeline", "size": 64, "dim": 16, "blobs": 9,
                       "seen": 5, "mfe": True, "pool": 64, "universe": 256},
    "match-tied": {"kind": "match", "queries": 100, "targets": 50,
                   "pool": 64, "universe": 256},
    "gradcheck": {"kind": "gradcheck", "pool": 10},
}

# per-layer counts that must repeat exactly when an op is traced twice
EXACT_COUNTS = ("clustering.kmeans_iters", "clustering.seed_count",
                "clustering.fuse_clusters_in", "clustering.fuse_groups_out",
                "clustering.candidates", "matcher.hungarian_calls", "mfe.conv_calls")

# ``import smseg`` in a fresh interpreter, between two runs of a fixed
# pure-Python loop that measure the speed of the CPU that interpreter got
IMPORT_PROBE = """
import sys, time
def loop():
    t0, acc = time.perf_counter(), 0
    for i in range(50000):
        acc += i * i
    return time.perf_counter() - t0
before = loop()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import smseg
print(time.perf_counter() - t0, before, loop())
"""

for _var in THREAD_VARS:            # before numpy loads its BLAS
    os.environ[_var] = str(NPROC)


def keep_freed_memory():
    """Make glibc keep freed memory in the process instead of returning it
    to the kernel: no allocation is served by mmap and the heap is never
    trimmed. Each K-means iteration of ``pipeline-large`` allocates and
    frees a matrix of about 840 MB; with glibc's defaults every one is a
    fresh mmap whose pages the kernel must find (compacting memory for huge
    pages when its page cache is full) and zero, and that cost follows the
    host's memory state, not the program (see README.md). Returns whether
    glibc accepted both settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:           # not glibc
        return False
    return bool(mallopt(M_MMAP_MAX, 0)) and bool(mallopt(M_TRIM_THRESHOLD, 2 ** 31 - 1))


def load_library():
    """Import smseg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    mods = {name: importlib.import_module(f"smseg.{name}")
            for name in ("pipeline", "matcher", "mfe", "synth")}
    if not Path(mods["pipeline"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"smseg was imported from {mods['pipeline'].__file__}, "
                         f"not from {ROOT / 'src'}")
    return mods


def import_seconds():
    """Time of ``import smseg`` (numpy included) in a fresh interpreter:
    (raw seconds, seconds at reference speed)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    dt, before, after = map(float, proc.stdout.split())
    return dt, dt * REF_LOOP_S * 2 / (before + after)


# ---------------------------------------------------------------- inputs

def pick(name, seed, universe, k):
    return random.Random(f"{name}/{seed}").sample(range(universe), k)


def tied_costs(spec, u):
    """Cost matrix ``u``: uniform [0, 1] draws rounded to the quarter grid."""
    import numpy as np
    k, t = spec["queries"], spec["targets"]
    raw = random.Random(f"match-tied/{u}").randbytes(k * t)
    return np.rint(np.frombuffer(raw, dtype=np.uint8) * (4 / 255)).reshape(k, t) / 4


def write_fixture(lib, spec, u, out):
    """Synthetic fixture ``u`` written as SMTF; returns its run.cfg path."""
    fix = lib["synth"].gen_synth(seed=u, blobs=spec["blobs"], seen=spec["seen"],
                                 size=spec["size"], dim=spec["dim"])
    cfg = Path(lib["synth"].write_fixture(fix, out)["config"])
    if spec["mfe"]:
        with cfg.open("a") as fh:
            fh.write("[mfe]\nenabled = true\n")
    return str(cfg)


def builders(lib, name, seed, work, span):
    """One set-up pass as (key, build) pairs: ``build()`` makes the input
    that the timed loop runs under ``key``."""
    spec = WORKLOADS[name]
    if spec["kind"] == "pipeline":
        def fixture(u):
            with span("synth.fixture"):
                return write_fixture(lib, spec, u, work / f"fx{u}")
        return [(u, functools.partial(fixture, u))
                for u in pick(name, seed, spec["universe"], spec["pool"])]
    if spec["kind"] == "match":
        return [(u, functools.partial(tied_costs, spec, u))
                for u in pick(name, seed, spec["universe"], spec["pool"])]
    base = random.Random(f"{name}/{seed}").randrange(10 ** 6)
    return [(s, lambda: None) for s in range(base, base + spec["pool"])]


def probe_seconds():
    """Time of a fixed interpreter-and-numpy kernel that does not touch
    smseg: the host's current speed for the kind of work smseg does."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    a = np.arange(256.0)
    for _ in range(60):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def at_ref_speed(seconds, probe_before, probe_after):
    return seconds * REF_PROBE_S * 2 / (probe_before + probe_after)


def set_up(lib, name, seed, work, span):
    """The median of IMPORT_REPEATS imports of smseg in fresh interpreters
    plus the median of SETUP_REPEATS set-up passes, each input of a pass
    scaled by the probe around it. Returns (items, raw seconds, seconds at
    reference speed)."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    passes = []
    for _ in range(SETUP_REPEATS):
        items, raw, ref, probes = [], 0.0, 0.0, [probe_seconds()]
        for key, build in builders(lib, name, seed, work, span):
            t0 = time.perf_counter()
            items.append((key, build()))
            dt = time.perf_counter() - t0
            probes.append(probe_seconds())
            raw += dt
            ref += at_ref_speed(dt, probes[-2], probes[-1])
        passes.append((raw, ref))
    raw, ref = (statistics.median(i[col] for i in imports) +
                statistics.median(p[col] for p in passes) for col in (0, 1))
    return items, raw, ref


# ------------------------------------------------------------- ops, checks

def op_steps(lib, kind, item):
    """An op as (span name, call) steps. A ``gradcheck`` op is a pass of 14
    steps, one ``grad_check`` per op at seed ``key``; the others are one
    step, spanned by the tracer's own wrappers."""
    key, payload = item
    if kind == "pipeline":
        return [(None, lambda: lib["pipeline"].run_pipeline(payload))]
    if kind == "match":
        return [(None, lambda: lib["matcher"].hungarian(payload))]
    return [(f"mfe.grad_check.{op}", lambda op=op: lib["mfe"].grad_check(op, seed=key))
            for op in lib["mfe"].GRADCHECK_OPS]


def smtf_digest(result):
    """SHA-256 over (name, SHA-256 of bytes) of every *.smtf the run wrote."""
    h = hashlib.sha256()
    for name in sorted(n for n in result.artifacts if n.endswith(".smtf")):
        h.update(name.encode())
        h.update(hashlib.sha256(Path(result.artifacts[name]).read_bytes()).digest())
    return h.hexdigest()


def observed(kind, out):
    """The part of an op's output that the reference pins."""
    if kind == "pipeline":
        return {"smtf_sha256": smtf_digest(out), "hiou": out.report.hiou}
    return [p.query for p in sorted(out.validate().pairs, key=lambda p: p.target)]


def check_op(kind, ref, item, out):
    if kind == "gradcheck":
        return max(out) < GRAD_TOL
    return ref.get(str(item[0])) == observed(kind, out[0])


def one_op(lib, kind, ref, item, tracer=None, op_id=None, probes=None):
    """Time one op step by step, traced as op ``op_id`` when a tracer is
    given, then check its output after the clocks have stopped. With a
    ``probes`` list (holding the probe time before the op), the probe is
    timed after each step. Returns (seconds, seconds at reference speed or
    None, step outputs or the exception, passed)."""
    span = lambda _name: nullcontext()
    if tracer:
        install_spans(lib, tracer)
        tracer.op, span = op_id, tracer.span
    outs, dt, dt_ref = [], 0.0, 0.0
    try:
        for name, call in op_steps(lib, kind, item):
            t0 = time.perf_counter()
            with span(name) if name else nullcontext():
                outs.append(call())
            step = time.perf_counter() - t0
            dt += step
            if probes is not None:
                probes.append(probe_seconds())
                dt_ref += at_ref_speed(step, probes[-2], probes[-1])
    except Exception as exc:                 # a failed op is counted, not fatal
        outs = exc
    if tracer:
        tracer.op = None
        tracer.restore()
    try:
        ok = not isinstance(outs, Exception) and check_op(kind, ref, item, outs)
    except Exception as exc:
        ok, outs = False, exc
    if not ok:
        print(f"op on input {item[0]} failed: {outs!r}", file=sys.stderr)
    return dt, dt_ref if probes is not None else None, outs, ok


def whole_passes(items, seconds, run_item):
    """Call ``run_item`` on every item, pass after pass, and stop at the
    pass boundary nearest to ``seconds`` of the op time it returns (after
    one pass at least). Every input is then run equally often, however fast
    the host or the code is."""
    spent, passes = 0.0, 0
    while not passes or spent + spent / passes / 2 < seconds:
        for item in items:
            spent += run_item(item)
        passes += 1


def timed_loop(lib, name, items, seconds):
    """Untraced ops in whole passes over ``items``, after one warm-up op
    that grows the heap and fills caches, with the probe timed between
    steps. Returns (raw latencies, latencies at reference speed, probe
    times, failed, mean hIoU or None)."""
    spec, ref = WORKLOADS[name], load_reference().get(name, {})
    lat, ref_lat, failed, hiou = [], [], 0, []
    one_op(lib, spec["kind"], ref, items[0])   # warm-up: neither timed nor counted
    probes = [probe_seconds()]

    def run_item(item):
        nonlocal failed
        dt, dt_ref, outs, ok = one_op(lib, spec["kind"], ref, item, probes=probes)
        lat.append(dt)
        ref_lat.append(dt_ref)
        failed += not ok
        if ok and spec["kind"] == "pipeline":
            hiou.append(outs[0].report.hiou)
        return dt_ref     # a spell of the host changes the run's length, not its ops

    whole_passes(items, seconds, run_item)
    return lat, ref_lat, probes, failed, statistics.fmean(hiou) if hiou else None


def traced_loop(lib, name, items, seconds, tracer):
    """Each input of the first half of ``items`` once untraced, then once
    traced as op i, in whole passes, so a run takes about as long as an
    untraced one; then input 0 traced again as op n. Returns (untraced
    latencies, traced latencies, failed)."""
    kind, ref = WORKLOADS[name]["kind"], load_reference().get(name, {})
    items = items[:max(1, len(items) // 2)]
    plain, traced, failed = [], [], 0

    def run_item(item):
        nonlocal failed
        spent = 0.0
        for lat, tr in ((plain, None), (traced, tracer)):
            dt, _, _, ok = one_op(lib, kind, ref, item, tr, op_id=len(traced))
            lat.append(dt)
            failed += not ok
            spent += dt
        return spent

    whole_passes(items, seconds, run_item)
    failed += not one_op(lib, kind, ref, items[0], tracer, op_id=len(traced))[3]
    return plain, traced, failed


# ----------------------------------------------------------------- tracing

def install_spans(lib, tracer):
    """Wrap every smseg function the pipeline looks up, plus the matcher's
    solver and cost matrix and the fusion block's convolutions."""
    pipe = lib["pipeline"]
    measures = {
        "kmeans": lambda a, k, r: {
            "iters": len(r.objective_trace), "seeds": len(a[1]),
            "sim_bytes": a[0].shape[1] * a[0].shape[2] * len(a[1]) * 8},
        "fuse_masks": lambda a, k, r: {"clusters_in": len(a[0].centroids),
                                       "groups_out": len(r[0])},
        "restrict_candidates": lambda a, k, r: {"candidates": r.count},
        "save_tensor": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    }
    for attr, fn in sorted(vars(pipe).items()):
        if inspect.isfunction(fn) and fn.__module__.startswith("smseg."):
            tracer.wrap(pipe, attr, measure=measures.get(attr), memory=attr == "kmeans")
    for attr in ("hungarian", "match_cost_matrix", "class_similarity"):
        tracer.wrap(lib["matcher"], attr)
    for attr in ("conv2d_3x3", "conv2d_3x3_vjp"):
        tracer.wrap(lib["mfe"], attr)


def layer_metrics(times, counts, ops, grad_ops):
    """Per-layer metrics as per-op means over ``ops`` (see README.md);
    ``times`` and ``counts`` are ``Tracer.per_op`` output covering them."""
    n = len(ops)

    def span_sum(*names, col=0):
        return sum(times[op][nm][col] for op in ops for nm in names
                   if nm in times[op]) / n

    def count(name):
        return sum(counts[op].get(name, 0) for op in ops) / n

    out = {
        "clustering.kmeans_s": span_sum("clustering.kmeans"),
        "clustering.kmeans_iters": count("clustering.kmeans.iters"),
        "clustering.seed_count": count("clustering.kmeans.seeds"),
        "clustering.kmeans_peak_mb": count("clustering.kmeans.peak_bytes") / 2 ** 20,
        "clustering.kmeans_sim_bytes": count("clustering.kmeans.sim_bytes"),
        "clustering.fuse_s": span_sum("clustering.fuse_masks"),
        "clustering.fuse_clusters_in": count("clustering.fuse_masks.clusters_in"),
        "clustering.fuse_groups_out": count("clustering.fuse_masks.groups_out"),
        "clustering.seeds_s": span_sum("clustering.multi_scale_seeds"),
        "clustering.restrict_s": span_sum("clustering.restrict_candidates"),
        "clustering.candidates": count("clustering.restrict_candidates.candidates"),
        "embeddings.pool_s": span_sum("embeddings.pool_region_embeddings"),
        "decoder.decode_s": span_sum("decoder.decode"),
        "decoder.assemble_s": span_sum("decoder.assemble_semantic_map"),
        "metrics.evaluate_s": span_sum("metrics.evaluate"),
        "losses.cost_matrix_s": span_sum("losses.match_cost_matrix"),
        "losses.matched_loss_s": span_sum("losses.matched_loss"),
        "losses.map_losses_s": span_sum("losses.cross_entropy_map", "losses.focal_map"),
        "mfe.forward_s": span_sum("mfe.mfe_forward"),
        "tensor_store.save_s": span_sum("tensor_store.save_tensor"),
        "tensor_store.load_s": span_sum("tensor_store.load_tensor"),
        "tensor_store.bytes": count("tensor_store.save_tensor.bytes"),
        "pipeline.self_s": span_sum("pipeline.run_pipeline", col=1),
        "matcher.split_match_s": span_sum("matcher.split_match", col=1),
        "matcher.hungarian_s": span_sum("matcher.hungarian"),
        "matcher.hungarian_calls": span_sum("matcher.hungarian", col=2),
        "mfe.conv_s": span_sum("mfe.conv2d_3x3"),
        "mfe.conv_vjp_s": span_sum("mfe.conv2d_3x3_vjp"),
        "mfe.conv_calls": span_sum("mfe.conv2d_3x3", col=2),
    }
    for op in grad_ops:                    # mean seconds per call of that op
        name = f"mfe.grad_check.{op}"
        calls = span_sum(name, col=2)
        out[f"{name}_s"] = span_sum(name) / calls if calls else 0.0
    return out


# ----------------------------------------------------------------- results

def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance():
    """Code and host facts recorded next to every result."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "nproc": NPROC, "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(name, seed, seconds, trace):
    kept = keep_freed_memory()
    lib = load_library()
    spec = load_spec()
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        items, setup_raw, setup_s = set_up(
            lib, name, seed, work, tracer.span if tracer else lambda _name: nullcontext())
        print("provenance " + json.dumps({**provenance(), "keep_freed_memory": kept,
                                          "workload": name, "seed": seed,
                                          "input_keys": [k for k, _ in items]}))
        if not trace:
            lat, ref_lat, probes, failed, hiou = timed_loop(lib, name, items, seconds)
            attempted = len(lat)
            values = {
                "setup_s": setup_s,
                "ops_per_s": attempted / sum(ref_lat),
                "op_s.p50": statistics.median(ref_lat),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            summary = {"ops": attempted, "passes": attempted // len(items),
                       "op_s.p50": values["op_s.p50"],
                       "fail_frac": failed / attempted, "hiou": hiou,
                       "probe_s.p50": statistics.median(probes),
                       "raw": {"setup_s": setup_raw, "ops_per_s": attempted / sum(lat),
                               "op_s.p50": statistics.median(lat)}}
            if attempted >= P90_MIN_OPS:
                summary["op_s.p90"] = statistics.quantiles(ref_lat, n=10)[-1]
                summary["raw"]["op_s.p90"] = statistics.quantiles(lat, n=10)[-1]
            metrics, correct = spec["end_to_end"], failed == 0
        else:
            plain, traced, failed = traced_loop(lib, name, items, seconds, tracer)
            n = len(traced)
            attempted = 2 * n + 1
            grad_ops = lib["mfe"].GRADCHECK_OPS
            times, counts = tracer.per_op(range(n + 1))
            first, again = ({key: value for key, value in
                             layer_metrics(times, counts, [op], grad_ops).items()
                             if key in EXACT_COUNTS} for op in (0, n))
            if first != again:
                print(f"counts differ between two traced runs: {first} != {again}",
                      file=sys.stderr)
            values = layer_metrics(times, counts, range(n), grad_ops)
            values["synth.fixture_s"] = sum(
                end - start for nm, start, end, _, op in tracer.spans
                if nm == "synth.fixture") / SETUP_REPEATS
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            summary = {"ops": n, "op_s.p50_untraced": statistics.median(plain),
                       "op_s.p50_traced": statistics.median(traced),
                       "exact_counts": first, "exact_counts_repeat": first == again}
            (RUN_DIR / f"{name}-seed{seed}.trace.json").write_text(json.dumps({
                "spans": tracer.spans, "counts": tracer.counts}))
            metrics, correct = spec["per_layer"], failed == 0 and first == again
        print("summary " + json.dumps(summary))
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record(names):
    """Run every input of each universe once and store what it produced."""
    lib = load_library()
    work = RUN_DIR / f"record-{os.getpid()}"
    ref = load_reference() if (HERE / "reference.json").exists() else {}
    try:
        for name in names:
            spec = WORKLOADS[name]
            if spec["kind"] == "gradcheck":
                continue
            ref[name] = {}
            for u in range(spec["universe"]):
                if spec["kind"] == "pipeline":
                    out = lib["pipeline"].run_pipeline(
                        write_fixture(lib, spec, u, work / f"{name}-{u}"))
                else:
                    out = lib["matcher"].hungarian(tied_costs(spec, u))
                ref[name][str(u)] = observed(spec["kind"], out)
                print(name, u, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref["provenance"] = provenance()
    lines = [f" {json.dumps(key)}: {json.dumps(val)}" if key == "provenance" else
             f" {json.dumps(key)}: {{\n" + ",\n".join(
                 f"  {json.dumps(u)}: {json.dumps(v)}" for u, v in val.items()) + "\n }"
             for key, val in ref.items()]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def run_all(seed, seconds):
    """Each workload in its own process, untraced once and traced twice
    under different string-hash seeds; prints a table with units. Fails when
    the exact counts of the two traced runs differ."""
    rows, ok = [], True
    for name in WORKLOADS:
        counts = []
        for trace, hash_seed in ((0, "0"), (1, "1"), (1, "2")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
                env={**os.environ, "PYTHONHASHSEED": hash_seed})
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            summary = json.loads(next(ln[8:] for ln in lines if ln.startswith("summary ")))
            ok = ok and result["correct"]
            if trace:
                counts.append(summary["exact_counts"])
                if len(counts) == 2:
                    summary["counts_repeat_across"] = counts[0] == counts[1]
                    ok = ok and counts[0] == counts[1]
                    rows.append((name, trace, result, summary))
            else:
                rows.append((name, trace, result, summary))
    print(f"{'workload':<16}{'setup_s [s]':>12}{'ops_per_s [1/s]':>17}"
          f"{'op_s.p50 [s] (n)':>22}{'op_s.p90 [s]':>14}{'peak_rss_mb [MB]':>18}"
          f"{'fail_frac':>11}{'hiou [%]':>10}")
    for name, trace, result, summary in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            print(f"{name:<16}traced: overhead {m['trace.overhead_s']:+.4f} s per op "
                  f"(p50 traced minus untraced, {summary['ops']} pairs); exact counts "
                  f"repeat in one process: {summary['exact_counts_repeat']}, "
                  f"across two: {summary['counts_repeat_across']}")
            continue
        p90 = "n/a" if "op_s.p90" not in summary else f"{summary['op_s.p90']:.4f}"
        hiou = "n/a" if summary["hiou"] is None else f"{summary['hiou']:.2f}"
        print(f"{name:<16}{m['setup_s']:>12.3f}{m['ops_per_s']:>17.3f}"
              f"{m['op_s.p50']:>15.4f} ({summary['ops']:>4})"
              f"{p90:>14}{m['peak_rss_mb']:>18.1f}{summary['fail_frac']:>11.3f}{hiou:>10}")
    print(json.dumps({"correct": ok, "workloads": [
        {"workload": n, "trace": t, **r} for n, t, r, _ in rows]}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json from the current code "
                         "(only for --workload when given)")
    args = ap.parse_args(argv)
    if args.record:
        record([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
