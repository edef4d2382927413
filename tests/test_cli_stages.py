"""The CLI subcommands run the pipeline's own stage functions: chained by
hand they reproduce run_pipeline's files, and their input errors exit 1."""

import json
from pathlib import Path

import numpy as np
import pytest

from smseg import ClassEmbeddings, gen_synth, load_tensor, save_tensor, write_fixture
from smseg.cli import main
from smseg.decoder import DecoderParams
from smseg.pipeline import run_pipeline


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


def test_cli_chain_equals_pipeline(tmp_path, capsys):
    fix = gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16)
    paths = write_fixture(fix, tmp_path)
    with open(paths["config"], "a") as fh:
        fh.write("[mfe]\nenabled = true\n")
    result = run_pipeline(paths["config"])
    assert result.candidate_count >= 2 and "Fd.smtf" in result.artifacts
    pipe, cli = tmp_path / "out", tmp_path / "cli"
    cli.mkdir()

    _run(capsys, "cluster", "--features", paths["features"],
         "--out-assign", cli / "cluster_assign.smtf",
         "--out-centroids", cli / "cluster_centroids.smtf")
    _run(capsys, "fuse", "--assign", cli / "cluster_assign.smtf",
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
    _write_targets(cli / "all.json", seen_targets + cand_targets)
    _run(capsys, "match", "--pred-class", pipe / "V.smtf", "--pred-masks", pipe / "M.smtf",
         "--embeds", cli / "E.smtf", "--targets", cli / "all.json",
         "--seen-count", seen.count,
         "--ksplit", f"{seen.count},{len(cand_targets)}", "--out", cli / "assign.json")
    _run(capsys, "loss", "--pred-class", pipe / "V.smtf", "--pred-masks", pipe / "M.smtf",
         "--embeds", cli / "E.smtf", "--targets", cli / "all.json",
         "--assignment", cli / "assign.json", "--out", cli / "loss.json")
    _run(capsys, "mfe", "--features", paths["features"], "--out", cli / "Fd.smtf")

    save_tensor(4.0 * joint, cli / "Q.smtf")                # oracle queries
    dec = DecoderParams.zeros(joint.shape[1])
    save_tensor(np.stack([dec.wq, dec.wk, dec.wv]), cli / "dec.smtf")
    save_tensor(np.concatenate([seen.matrix, fix.unseen_embeddings.matrix]),
                cli / "E_full.smtf")
    _run(capsys, "infer", "--features", paths["features"], "--queries", cli / "Q.smtf",
         "--decoder", cli / "dec.smtf", "--embeds", cli / "E_full.smtf",
         "--class-ids", "0,1,2,3,4", "--out", cli / "labels.smtf")
    _run(capsys, "eval", "--pred", cli / "labels.smtf", "--gt", paths["gt"],
         "--classes", "5", "--seen", "0,1,2", "--unseen", "3,4",
         "--out", cli / "report.json")

    for name in ("cluster_assign.smtf", "cluster_centroids.smtf", "Yu.smtf", "Cu.smtf",
                 "E.smtf", "Fd.smtf", "labels.smtf", "assign.json", "report.json"):
        assert (cli / name).read_bytes() == (pipe / name).read_bytes(), name
    # the pipeline's loss.json adds the fusion-block terms and the total
    cli_loss = json.loads((cli / "loss.json").read_text())
    pipe_loss = json.loads((pipe / "loss.json").read_text())
    assert set(cli_loss) == {"matched", "cosine", "sm"}
    assert cli_loss == {key: pipe_loss[key] for key in cli_loss}


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
               "--targets", bank / "seen.json", "--ksplit", "2,0",
               "--out", bank / "assign.json")
    assert json.loads(out)["pairs"] == 2
    raw = json.loads((bank / "assign.json").read_text())
    assert raw["seen_count"] == 2 and raw["k_seen"] == 2
    assert {(p["q"], p["t"], p["group"]) for p in raw["pairs"]} == {
        (0, 0, "seen"), (1, 1, "seen")}
    # no --ksplit either: every query row is seen, the same assignment
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


def _loss_of(d, assignment, targets="seen.json"):
    """loss of a hand-written assign.json against the bank's seen targets."""
    (d / "assign.json").write_text(json.dumps(assignment))
    return ["loss", "--pred-class", d / "V.smtf", "--pred-masks", d / "M.smtf",
            "--embeds", d / "E.smtf", "--targets", d / targets,
            "--assignment", d / "assign.json", "--out", d / "loss.json"]


def _pairs(*pairs):
    """An assign.json of the bank's two queries holding ``pairs``."""
    return {"pairs": list(pairs), "seen_count": 2, "weights": {}}


SEEN_PAIR = {"q": 0, "t": 0, "cost": 0.0, "group": "seen"}


def _target_without_mask(d):
    (d / "bad.json").write_text(json.dumps({"targets": [{"class_id": 0}]}))
    return _loss_of(d, {"pairs": [], "unmatched": [0, 1], "seen_count": 2,
                        "weights": {}}, targets="bad.json")


def _weights_file(d, weights):
    (d / "weights.json").write_text(json.dumps(weights))
    return d / "weights.json"


def _match(d, *extra):
    return ["match", "--pred-class", d / "V.smtf", "--pred-masks", d / "M.smtf",
            "--embeds", d / "E.smtf", "--targets", d / "seen.json",
            "--out", d / "assign.json", *extra]


def _fuse(d, ignore):
    """fuse of one cluster over a 4 x 4 map, its seen labels uint8, with
    ``--ignore ignore``."""
    save_tensor(np.zeros((4, 4), dtype=np.float32), d / "assign.smtf")
    save_tensor(np.ones((1, 4), dtype=np.float32), d / "cent.smtf")
    save_tensor(np.zeros((4, 4), dtype=np.uint8), d / "Ys.smtf")
    return ["fuse", "--assign", d / "assign.smtf", "--centroids", d / "cent.smtf",
            "--seen-labels", d / "Ys.smtf", "--ignore", ignore,
            "--out-masks", d / "Yu.smtf", "--out-centroids", d / "Cu.smtf"]


def _infer(d, queries, decoder):
    """infer on 4-channel features with the given queries and decoder tensors."""
    save_tensor(np.ones((4, 3, 3), dtype=np.float32), d / "F.smtf")
    save_tensor(queries, d / "Q.smtf")
    save_tensor(decoder, d / "dec.smtf")
    return ["infer", "--features", d / "F.smtf", "--queries", d / "Q.smtf",
            "--decoder", d / "dec.smtf", "--embeds", d / "E.smtf",
            "--out", d / "labels.smtf"]


@pytest.mark.parametrize("argv, message", [
    (lambda d: ["embed", "--features", d / "V.smtf", "--out", d / "Cu.smtf"],
     "needs masks"),
    (lambda d: _match(d, "--ksplit", "1,2"), "does not cover"),
    (lambda d: _match(d, "--ksplit", "2,0", "--seen-count", "3"), "exceeds"),
    (lambda d: _match(d, "--ksplit", "2,0", "--seen-count", "-1"),
     "seen count -1 is negative"),
    (lambda d: _loss_of(d, {"pairs": [], "unmatched": [0, 1]}),
     "'seen_count' must be an integer, got None"),
    (lambda d: _loss_of(d, {"pairs": [], "unmatched": [0, 1], "seen_count": 2}),
     "lacks the weights"),
    (lambda d: _loss_of(d, {"pairs": [], "unmatched": [0, 1], "seen_count": 2,
                            "weights": {"w_cls": 2.0, "bogus": 1.0}}),
     "unknown weight keys ['bogus']"),
    (lambda d: _match(d, "--ksplit", "2,0", "--weights",
                      _weights_file(d, {"w_cls": 2.0, "bogus": 1.0})),
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
    (lambda d: _mfe(d, 32, "--groups", "0"), "channels 8 not divisible by groups 0"),
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
    (lambda d: _match(d, "--ksplit", "2,0", "--weights", _weights_file(d, {"w_cls": "a"})),
     "weight 'w_cls' must be a float, got 'a'"),
    (lambda d: ["eval", "--pred", d, "--gt", d / "V.smtf", "--classes", "2",
                "--seen", "0,1", "--out", d / "report.json"], "Is a directory"),
    (lambda d: _fuse(d, 256), "ignore id 256 does not fit the uint8 seen labels"),
    (lambda d: _fuse(d, -1), "ignore id -1 does not fit the uint8 seen labels"),
    (lambda d: _loss_of(d, _pairs(SEEN_PAIR, SEEN_PAIR)),
     "duplicate query index in assignment"),
    (lambda d: _loss_of(d, _pairs(SEEN_PAIR, {**SEEN_PAIR, "q": 1})),
     "duplicate target index in assignment"),
    (lambda d: _loss_of(d, {**_pairs(SEEN_PAIR), "unmatched": [0, 1]}),
     "query listed as both matched and unmatched"),
    (lambda d: ["pipeline", "--config", d / "missing.cfg"], "missing.cfg"),
    (lambda d: _match(d, "--weights", _weights_file(d, [1.0])),
     "weights must be a JSON object"),
    (lambda d: _loss_of(d, _pairs(SEEN_PAIR)), "'k_seen' must be an integer, got None"),
    (lambda d: _loss_of(d, {**_pairs(SEEN_PAIR), "k_seen": 3}),
     "k_seen 3 outside [0, 2] queries"),
], ids=["embed-no-masks", "match-ksplit", "match-seen-count", "match-seen-count-negative",
        "loss-seen-count",
        "loss-weights", "loss-weights-key", "match-weights-key", "loss-cost-missing", "loss-cost-nan",
        "loss-pair-no-group",
        "mfe-features-size", "mfe-groups-zero", "mfe-features-rank", "mfe-features-2x2",
        "infer-queries-rank", "infer-decoder-shape",
        "infer-decoder-width", "loss-no-pairs", "loss-pair-no-q", "loss-q-string",
        "loss-q-fraction", "loss-json-list", "loss-unmatched-range",
        "loss-target-no-mask", "match-weights-type", "eval-pred-directory",
        "fuse-ignore-above-u8", "fuse-ignore-negative", "loss-pair-twice",
        "loss-target-twice", "loss-query-matched-and-unmatched", "pipeline-no-config",
        "match-weights-list", "loss-no-k-seen", "loss-k-seen-range"])
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
