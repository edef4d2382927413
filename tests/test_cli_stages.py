"""The CLI subcommands run the pipeline's own stage functions: chained by
hand they reproduce run_pipeline's files, and their input errors exit 1."""

import json
from pathlib import Path

import numpy as np
import pytest

from smseg import ClassEmbeddings, gen_synth, load_tensor, save_tensor, write_fixture
from smseg.cli import main
from smseg.decoder import DecoderParams
from smseg.pipeline import PipelineConfig, run_pipeline


def _run(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def _write_targets(path, targets):
    """Save each (joint id, mask) as SMTF next to a targets JSON at ``path``."""
    entries = []
    for cid, mask in targets:
        name = f"{path.stem}_{cid}.smtf"
        save_tensor(mask.astype(np.uint8), path.parent / name)
        entries.append({"class_id": cid, "mask": name})
    path.write_text(json.dumps({"targets": entries}))


def _chain_equals_pipeline(tmp_path, capsys, edit=lambda text: text, decoder="",
                           mfe="", wv=0.0):
    """Chain the subcommands by hand, each stage subcommand reading the run's
    own run.cfg, and check that they write run_pipeline's files byte for
    byte. ``edit`` rewrites the fixture's run.cfg before the chain starts;
    ``decoder`` and ``mfe`` are extra lines of the [decoder] and [mfe]
    sections appended once the candidates, and so the queries, are known.
    The decoder's Wv is ``wv`` in every entry, Wq and Wk zero."""
    fix = gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16)
    paths = write_fixture(fix, tmp_path)
    run_cfg = Path(paths["config"])
    run_cfg.write_text(edit(run_cfg.read_text()))
    pipe, cli = tmp_path / "out", tmp_path / "cli"
    cli.mkdir()

    _run(capsys, "cluster", "--config", run_cfg, "--features", paths["features"],
         "--out-assign", cli / "cluster_assign.smtf",
         "--out-centroids", cli / "cluster_centroids.smtf")
    _run(capsys, "fuse", "--config", run_cfg, "--assign", cli / "cluster_assign.smtf",
         "--centroids", cli / "cluster_centroids.smtf",
         "--seen-labels", paths["seen_labels"],
         "--out-masks", cli / "Yu.smtf", "--out-centroids", cli / "Cu_raw.smtf")
    _run(capsys, "embed", "--features", paths["features"],
         "--masks", cli / "Yu.smtf", "--out", cli / "Cu.smtf")

    seen = ClassEmbeddings.from_matrix(fix.seen_embeddings.matrix, fix.seen_ids)
    joint = np.concatenate([seen.matrix, load_tensor(cli / "Cu.smtf")])
    save_tensor(joint, cli / "E.smtf")
    seen_targets = [(j, fix.seen_labels == cid) for j, cid in enumerate(fix.seen_ids)
                    if (fix.seen_labels == cid).any()]
    cand_targets = [(seen.count + u, mask)
                    for u, mask in enumerate(load_tensor(cli / "Yu.smtf"))]
    assert len(cand_targets) >= 2
    _write_targets(cli / "all.json", seen_targets + cand_targets)
    # the oracle queries as a file, so [decoder] ksplit applies
    save_tensor(4.0 * joint, cli / "Q.smtf")
    dec = DecoderParams.zeros(joint.shape[1])
    save_tensor(np.stack([dec.wq, dec.wk, dec.wv + np.float32(wv)]), cli / "dec.smtf")
    with open(run_cfg, "a") as fh:
        fh.write(f"[decoder]\nqueries = cli/Q.smtf\nparams = cli/dec.smtf\n"
                 f"ksplit = {seen.count},{len(cand_targets)}\n{decoder}"
                 f"[mfe]\nenabled = true\n{mfe}")
    result = run_pipeline(run_cfg)
    assert result.candidate_count == len(cand_targets) and "Fd.smtf" in result.artifacts

    _run(capsys, "match", "--config", run_cfg, "--pred-class", pipe / "V.smtf",
         "--pred-masks", pipe / "M.smtf", "--embeds", cli / "E.smtf",
         "--targets", cli / "all.json", "--seen-count", seen.count,
         "--out", cli / "assign.json")
    _run(capsys, "loss", "--pred-class", pipe / "V.smtf", "--pred-masks", pipe / "M.smtf",
         "--embeds", cli / "E.smtf", "--targets", cli / "all.json",
         "--assignment", cli / "assign.json", "--out", cli / "loss.json")
    _run(capsys, "mfe", "--config", run_cfg, "--features", paths["features"],
         "--out", cli / "Fd.smtf")
    save_tensor(np.concatenate([seen.matrix, fix.unseen_embeddings.matrix]),
                cli / "E_full.smtf")
    out = _run(capsys, "infer", "--config", run_cfg, "--features", paths["features"],
               "--queries", cli / "Q.smtf", "--decoder", cli / "dec.smtf",
               "--embeds", cli / "E_full.smtf", "--class-ids", "0,1,2,3,4",
               "--out", cli / "labels.smtf")
    assert json.loads(out)["queries"] == len(load_tensor(pipe / "queries.smtf"))
    _run(capsys, "eval", "--config", run_cfg, "--pred", cli / "labels.smtf",
         "--gt", paths["gt"], "--out", cli / "report.json")

    for name in ("cluster_assign.smtf", "cluster_centroids.smtf", "Yu.smtf", "Cu.smtf",
                 "E.smtf", "Fd.smtf", "labels.smtf", "assign.json", "report.json"):
        assert (cli / name).read_bytes() == (pipe / name).read_bytes(), name
    # the pipeline's loss.json adds the fusion-block terms and the total
    cli_loss = json.loads((cli / "loss.json").read_text())
    pipe_loss = json.loads((pipe / "loss.json").read_text())
    assert set(cli_loss) == {"matched", "cosine", "sm"}
    assert cli_loss == {key: pipe_loss[key] for key in cli_loss}
    return PipelineConfig.from_file(run_cfg)


def test_cli_chain_equals_pipeline(tmp_path, capsys):
    cfg = _chain_equals_pipeline(tmp_path, capsys)
    assert cfg.mfe_enabled and cfg.ksplit and cfg.percent


def _non_default(text):
    """run.cfg with [eval] percent off and sections it lacks appended."""
    assert text.count("\npercent = true\n") == 1 and "[fusion]" not in text
    return (text.replace("\npercent = true\n", "\npercent = false\n")
            + "[clustering]\nwindows = 4,8,16\n"
            + "[fusion]\ntau = 0.99\nmin_area = 8\n"
            + "[matching]\nw_cls = 2.5\n"
            + "[inference]\nrandom_queries = 7\nseed = 3\nsigma = 0.5\n")


def test_cli_chain_equals_pipeline_with_non_default_config(tmp_path, capsys):
    # every stage subcommand takes a value it would not take without --config
    cfg = _chain_equals_pipeline(tmp_path, capsys, _non_default,
                                 decoder="layers = 2\n", mfe="groups = 4\nseed = 5\n",
                                 wv=0.05)
    default = PipelineConfig()
    for name in ("windows", "tau", "min_area", "w_cls", "layers", "mfe_groups",
                 "mfe_seed", "random_queries", "rq_seed", "rq_sigma", "percent"):
        assert getattr(cfg, name) != getattr(default, name), name


@pytest.fixture()
def bank(tmp_path):
    """Two seen classes, one query and one target mask per class."""
    width = 4
    e = np.eye(2, width, dtype=np.float32)
    save_tensor(e, tmp_path / "E.smtf")
    save_tensor(8.0 * (2.0 * e - e.sum(0)), tmp_path / "V.smtf")
    masks = np.zeros((2, 4, 4), dtype=np.float32)
    masks[0, 0] = masks[1, 1] = 1.0
    save_tensor(20.0 * (2 * masks - 1), tmp_path / "M.smtf")
    _write_targets(tmp_path / "seen.json", [(0, masks[0]), (1, masks[1])])
    return tmp_path


def test_match_without_candidate_targets(bank, capsys):
    # no --seen-count: every embedding row is seen, and so is every target
    out = _run(capsys, "match", "--pred-class", bank / "V.smtf",
               "--pred-masks", bank / "M.smtf", "--embeds", bank / "E.smtf",
               "--targets", bank / "seen.json", "--out", bank / "assign.json",
               *_config(bank, "[decoder]\nksplit = 2,0\n"))
    assert json.loads(out)["pairs"] == 2
    raw = json.loads((bank / "assign.json").read_text())
    assert raw["seen_count"] == 2 and raw["k_seen"] == 2
    assert {(p["q"], p["t"], p["group"]) for p in raw["pairs"]} == {
        (0, 0, "seen"), (1, 1, "seen")}
    # no --config either, so no [decoder] ksplit: every query row is seen,
    # the same assignment
    _run(capsys, "match", "--pred-class", bank / "V.smtf",
         "--pred-masks", bank / "M.smtf", "--embeds", bank / "E.smtf",
         "--targets", bank / "seen.json", "--out", bank / "assign_all.json")
    assert (bank / "assign_all.json").read_bytes() == (bank / "assign.json").read_bytes()
    out = _run(capsys, "loss", "--pred-class", bank / "V.smtf",
               "--pred-masks", bank / "M.smtf", "--embeds", bank / "E.smtf",
               "--targets", bank / "seen.json", "--assignment", bank / "assign.json",
               "--out", bank / "loss.json")
    losses = json.loads(out)
    assert losses["cosine"] == 0.0 and losses["sm"] == losses["matched"] < 0.1


def _mfe(d, size, *extra):
    """mfe of a ``size`` x ``size`` fixture's 8-channel features."""
    save_tensor(gen_synth(seed=0, size=size, dim=8).features, d / "O.smtf")
    return ["mfe", "--features", d / "O.smtf", "--out", d / "Fd.smtf", *extra]


def _features(d, feats):
    """mfe of the hand-made feature tensor ``feats``."""
    save_tensor(feats, d / "O.smtf")
    return ["mfe", "--features", d / "O.smtf", "--out", d / "Fd.smtf"]


def _loss_of(d, assignment, targets="seen.json", embeds="E.smtf", pred_class="V.smtf"):
    """loss of a hand-written assign.json against the bank's seen targets."""
    (d / "assign.json").write_text(json.dumps(assignment))
    return ["loss", "--pred-class", d / pred_class, "--pred-masks", d / "M.smtf",
            "--embeds", d / embeds, "--targets", d / targets,
            "--assignment", d / "assign.json", "--out", d / "loss.json"]


def _pairs(*pairs):
    """An assign.json of the bank's two queries holding ``pairs``."""
    return {"pairs": list(pairs), "seen_count": 2, "weights": {}}


SEEN_PAIR = {"q": 0, "t": 0, "cost": 0.0, "group": "seen"}


def _target_without_mask(d):
    (d / "bad.json").write_text(json.dumps({"targets": [{"class_id": 0}]}))
    return _loss_of(d, {"pairs": [], "unmatched": [0, 1], "seen_count": 2,
                        "weights": {}}, targets="bad.json")


def _config(d, text):
    """``--config`` of a run.cfg in ``d`` holding ``text``."""
    (d / "run.cfg").write_text(text)
    return ["--config", d / "run.cfg"]


def _loss_weights(d, weights):
    """loss of an assign.json without pairs whose cost weights are ``weights``."""
    return _loss_of(d, {"pairs": [], "unmatched": [0, 1], "seen_count": 2,
                        "weights": weights})


def _match(d, *extra, embeds="E.smtf", pred_class="V.smtf"):
    return ["match", "--pred-class", d / pred_class, "--pred-masks", d / "M.smtf",
            "--embeds", d / embeds, "--targets", d / "seen.json",
            "--out", d / "assign.json", *extra]


def _fuse(d, eval_section, assign=0):
    """fuse of one cluster over a 4 x 4 map, its seen labels uint8, every
    pixel's cluster id ``assign``, under a config whose [eval] section holds
    ``eval_section``."""
    save_tensor(np.full((4, 4), assign, dtype=np.float32), d / "assign.smtf")
    save_tensor(np.ones((1, 4), dtype=np.float32), d / "cent.smtf")
    save_tensor(np.zeros((4, 4), dtype=np.uint8), d / "Ys.smtf")
    return ["fuse", "--assign", d / "assign.smtf", "--centroids", d / "cent.smtf",
            "--seen-labels", d / "Ys.smtf", *_config(d, f"[eval]\n{eval_section}"),
            "--out-masks", d / "Yu.smtf", "--out-centroids", d / "Cu.smtf"]


def _infer(d, queries, decoder, embeds="E.smtf"):
    """infer on 4-channel features with the given queries and decoder tensors."""
    save_tensor(np.ones((4, 3, 3), dtype=np.float32), d / "F.smtf")
    save_tensor(queries, d / "Q.smtf")
    save_tensor(decoder, d / "dec.smtf")
    return ["infer", "--features", d / "F.smtf", "--queries", d / "Q.smtf",
            "--decoder", d / "dec.smtf", "--embeds", d / embeds,
            "--out", d / "labels.smtf"]


def _three_queries(d):
    """The name of a 3-row ``--pred-class`` written into ``d``, one row more
    than the bank's 2 mask rows."""
    save_tensor(np.ones((3, 4), dtype=np.float32), d / "V3.smtf")
    return "V3.smtf"


def _flat_bank(d):
    """The name of a rank-1 embedding bank written into ``d``."""
    save_tensor(np.ones(4, dtype=np.float32), d / "E1.smtf")
    return "E1.smtf"


@pytest.mark.parametrize("argv, message", [
    (lambda d: ["embed", "--features", d / "V.smtf", "--out", d / "Cu.smtf"],
     "needs masks"),
    (lambda d: _match(d, *_config(d, "[decoder]\nksplit = 1,2\n")), "does not cover"),
    (lambda d: _match(d, "--seen-count", "3"), "exceeds"),
    (lambda d: _match(d, "--seen-count", "-1"), "seen count -1 is negative"),
    (lambda d: _loss_of(d, {"pairs": [], "unmatched": [0, 1]}),
     "'seen_count' must be an integer, got None"),
    (lambda d: _loss_of(d, {"pairs": [], "unmatched": [0, 1], "seen_count": 2}),
     "lacks the weights"),
    (lambda d: _loss_weights(d, {"w_cls": 2.0, "bogus": 1.0}),
     "unknown weight keys ['bogus']"),
    (lambda d: _loss_of(d, {"pairs": [{"q": 1, "t": 1, "group": "seen"}],
                            "seen_count": 2, "k_seen": 2, "weights": {}}),
     "pair (1, 1) has cost None, not a finite number"),
    (lambda d: _loss_of(d, {"pairs": [{"q": 0, "t": 0, "cost": float("nan"),
                                       "group": "seen"}],
                            "seen_count": 2, "k_seen": 2, "weights": {}}),
     "pair (0, 0) has cost nan"),
    (lambda d: _loss_of(d, _pairs({"q": 0, "t": 0, "cost": 1.0})),
     "'group' must be a string, got None"),
    (lambda d: _mfe(d, 66), "finest 66x66 not divisible by 4"),
    (lambda d: _mfe(d, 32, *_config(d, "[mfe]\ngroups = 0\n")),
     "channels 8 not divisible by groups 0"),
    (lambda d: _features(d, np.ones((8, 8), dtype=np.float32)),
     "features must be (C, H, W) with H and W positive multiples of 4, got shape (8, 8)"),
    (lambda d: _features(d, np.ones((8, 2, 2), dtype=np.float32)),
     "features must be (C, H, W) with H and W positive multiples of 4, got shape (8, 2, 2)"),
    (lambda d: _infer(d, np.ones(4, dtype=np.float32), np.zeros((3, 4, 4), np.float32)),
     "queries must be"),
    (lambda d: _infer(d, np.ones((2, 4), dtype=np.float32),
                      np.zeros((2, 4, 4), np.float32)), "decoder params must be"),
    (lambda d: _infer(d, np.ones((2, 4), dtype=np.float32),
                      np.zeros((3, 5, 5), np.float32)),
     "decoder width 5 != 4 feature channels"),
    (lambda d: _loss_of(d, {"seen_count": 2, "weights": {}}),
     "'pairs' must be a list, got None"),
    (lambda d: _loss_of(d, _pairs({"t": 0, "cost": 1.0})),
     "'q' must be an integer, got None"),
    (lambda d: _loss_of(d, _pairs({"q": "0", "t": 0, "cost": 1.0})),
     "'q' must be an integer, got '0'"),
    (lambda d: _loss_of(d, _pairs({"q": 0.5, "t": 0, "cost": 1.0})),
     "'q' must be an integer, got 0.5"),
    (lambda d: _loss_of(d, [_pairs()]), "must be a JSON object, got [{"),
    (lambda d: _loss_of(d, {**_pairs(), "k_seen": 2, "unmatched": [0, 7]}),
     "unmatched queries [0, 7] outside [0, 2)"),
    (_target_without_mask, "'mask' must be a string, got None"),
    (lambda d: _loss_weights(d, {"w_cls": "a"}), "weight 'w_cls' must be a float, got 'a'"),
    (lambda d: ["eval", "--pred", d, "--gt", d / "V.smtf", "--out", d / "report.json",
                *_config(d, "[eval]\nnum_classes = 2\nseen_ids = 0,1\n")],
     "Is a directory"),
    (lambda d: _fuse(d, "ignore_id = 256\n"),
     "ignore id 256 does not fit the uint8 seen labels"),
    (lambda d: _fuse(d, "ignore_id = -1\n"),
     "ignore id -1 does not fit the uint8 seen labels"),
    (lambda d: _loss_of(d, _pairs(SEEN_PAIR, SEEN_PAIR)),
     "duplicate query index in assignment"),
    (lambda d: _loss_of(d, _pairs(SEEN_PAIR, {**SEEN_PAIR, "q": 1})),
     "duplicate target index in assignment"),
    (lambda d: _loss_of(d, {**_pairs(SEEN_PAIR), "unmatched": [0, 1]}),
     "query listed as both matched and unmatched"),
    (lambda d: ["pipeline", "--config", d / "missing.cfg"], "missing.cfg"),
    (lambda d: _loss_weights(d, [1.0]), "weights must be a JSON object"),
    (lambda d: _loss_of(d, _pairs(SEEN_PAIR)), "'k_seen' must be an integer, got None"),
    (lambda d: _loss_of(d, {**_pairs(SEEN_PAIR), "k_seen": 3}),
     "k_seen 3 outside [0, 2] queries"),
    (lambda d: _fuse(d, "seen_ids = 0,1,2\nignore_id = 1\n"),
     "ignore id 1 is one of the class ids"),
    (lambda d: _fuse(d, "", assign=1), "cluster id 1 is no row of the 1 centroids"),
    (lambda d: _fuse(d, "", assign=-1), "cluster id -1 is no row of the 1 centroids"),
    (lambda d: ["eval", "--pred", d / "V.smtf", "--gt", d / "V.smtf",
                "--out", d / "report.json"],
     "eval needs [eval] num_classes > 0 and seen_ids in its --config, got 0 and ()"),
    (lambda d: ["eval", "--pred", d / "V.smtf", "--gt", d / "V.smtf",
                "--out", d / "report.json", *_config(d, "[eval]\nnum_classes = 5\n")],
     "eval needs [eval] num_classes > 0 and seen_ids in its --config, got 5 and ()"),
    (lambda d: _match(d, embeds=_flat_bank(d)),
     "E1.smtf must be a (rows, C) matrix, got shape (4,)"),
    (lambda d: _loss_of(d, _pairs(), embeds=_flat_bank(d)),
     "E1.smtf must be a (rows, C) matrix, got shape (4,)"),
    (lambda d: _infer(d, np.ones((2, 4), dtype=np.float32),
                      np.zeros((3, 4, 4), np.float32), _flat_bank(d)),
     "E1.smtf must be a (rows, C) matrix, got shape (4,)"),
    (lambda d: _mfe(d, 32, *_config(d, "[mfe]\nbogus = 1\n")),
     "unknown config key 'bogus' in [mfe]"),
    (lambda d: _match(d, pred_class=_three_queries(d)),
     "V (3, 4) and M (2, 4, 4) hold different numbers of queries"),
    (lambda d: _loss_of(d, {**_pairs({**SEEN_PAIR, "q": 2, "t": 1}), "k_seen": 3},
                        pred_class=_three_queries(d)),
     "V (3, 4) and M (2, 4, 4) hold different numbers of queries"),
    (lambda d: _fuse(d, "", assign=0.5), "cluster id 0.5 is not a whole number"),
    (lambda d: _features(d, np.ones((8, 4, 4), dtype=np.uint8)),
     "features must be float32, got uint8"),
], ids=["embed-no-masks", "match-ksplit", "match-seen-count", "match-seen-count-negative",
        "loss-seen-count",
        "loss-weights", "loss-weights-key", "loss-cost-missing", "loss-cost-nan",
        "loss-pair-no-group",
        "mfe-features-size", "mfe-groups-zero", "mfe-features-rank", "mfe-features-2x2",
        "infer-queries-rank", "infer-decoder-shape",
        "infer-decoder-width", "loss-no-pairs", "loss-pair-no-q", "loss-q-string",
        "loss-q-fraction", "loss-json-list", "loss-unmatched-range",
        "loss-target-no-mask", "loss-weights-type", "eval-pred-directory",
        "fuse-ignore-above-u8", "fuse-ignore-negative", "loss-pair-twice",
        "loss-target-twice", "loss-query-matched-and-unmatched", "pipeline-no-config",
        "loss-weights-list", "loss-no-k-seen", "loss-k-seen-range", "fuse-ignore-seen",
        "fuse-cluster-id-above", "fuse-cluster-id-negative", "eval-no-num-classes",
        "eval-no-seen-ids",
        "match-embeds-rank", "loss-embeds-rank", "infer-embeds-rank",
        "mfe-config-unknown-key", "match-query-rows", "loss-query-rows",
        "fuse-cluster-id-fraction", "mfe-features-dtype"])
def test_input_errors_exit_1(bank, capsys, argv, message):
    assert main([str(a) for a in argv(bank)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.fixture()
def run_cfg(tmp_path):
    """The run.cfg of a 32 x 32 fixture: seen ids 0..2, unseen 3 and 4."""
    return Path(write_fixture(gen_synth(seed=0, size=32, dim=8), tmp_path)["config"])


def _pipeline_error(capsys, cfg):
    """stderr of ``smseg pipeline`` on ``cfg``, which must exit 1 printing nothing."""
    assert main(["pipeline", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    return captured.err


@pytest.mark.parametrize("section, message", [
    ("[clustering]\nwindows = 0\n", "window sizes must be positive"),
    ("[clustering]\niters = 0\n", "kmeans_iters must be >= 1"),
    ("[clustering]\ntol = 0\n", "kmeans_tol must be > 0"),
    ("[matching]\nw_bce = -1\n", "cost weights must be >= 0"),
    ("[matching]\nfocal_alpha = 1\n", "focal_alpha must lie in (0, 1)"),
    ("[matching]\nfocal_gamma = -0.5\n", "focal_gamma must be >= 0"),
    ("[decoder]\nlayers = 0\n", "layers must be >= 1"),
    ("[inference]\nrandom_queries = -1\n", "k_r must be >= 0"),
    ("[mfe]\nenabled = true\ngroups = 3\n", "channels 8 not divisible by groups 3"),
], ids=["windows", "iters", "tol", "w_bce", "focal_alpha", "focal_gamma", "layers",
        "random_queries", "mfe-groups"])
def test_pipeline_config_value_errors_exit_1(run_cfg, capsys, section, message):
    run_cfg.write_text(run_cfg.read_text() + section)
    assert message in _pipeline_error(capsys, run_cfg)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "[eval]\npercent = true\n", "section 'eval' already exists"),
    (lambda text: text + "[fusion]\ntau = 1\ntau = 0.5\n",
     "option 'tau' in section 'fusion' already exists"),
    (lambda text: "tau = 0.5\n" + text, "File contains no section headers"),
], ids=["section-twice", "key-twice", "no-section-header"])
def test_unreadable_config_exits_1(run_cfg, capsys, edit, message):
    run_cfg.write_text(edit(run_cfg.read_text()))
    err = _pipeline_error(capsys, run_cfg)
    assert message in err and str(run_cfg) in err


@pytest.mark.parametrize("gt", ["gt.smtf", ""], ids=["gt", "no-gt"])
@pytest.mark.parametrize("ignore_id, message", [
    (1, "ignore id 1 is one of the class ids"),         # a seen class
    (4, "ignore id 4 is one of the class ids"),         # an unseen class
    (300, "ignore id 300 does not fit the uint8 seen labels"),
])
def test_pipeline_rejects_the_ignore_id_in_load_inputs(run_cfg, capsys, gt, ignore_id,
                                                       message):
    text = run_cfg.read_text()
    for key, value in (("ignore_id", 255), ("gt_labels", "gt.smtf")):
        assert text.count(f"\n{key} = {value}\n") == 1
    run_cfg.write_text(text.replace("\nignore_id = 255\n", f"\nignore_id = {ignore_id}\n")
                       .replace("\ngt_labels = gt.smtf\n", f"\ngt_labels = {gt}\n"))
    err = _pipeline_error(capsys, run_cfg)
    assert "stage 'load-inputs' failed" in err and message in err
    assert not any((run_cfg.parent / "out").iterdir())          # no stage wrote
