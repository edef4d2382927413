import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from smseg import gen_synth, load_tensor, save_tensor, write_fixture
from smseg.cli import build_parser, main
from smseg.decoder import DecoderParams
from smseg.mfe import (GRADCHECK_BOUND, FeaturePyramid, bilinear_resize, conv2d_3x3_vjp,
                       init_mfe_params, mfe_forward)


@pytest.fixture()
def fixture_dir(tmp_path):
    fix = gen_synth(seed=0, blobs=4, seen=2, size=32, dim=8)
    write_fixture(fix, tmp_path)
    return tmp_path, fix


def _run(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def test_cluster_fuse_embed_chain(fixture_dir, capsys):
    d, fix = fixture_dir
    out = _run(capsys, "cluster", "--features", d / "O.smtf",
               "--windows", "4,8,16", "--iters", "10", "--tol", "1e-4",
               "--out-assign", d / "assign.smtf",
               "--out-centroids", d / "cent.smtf")
    info = json.loads(out)
    assert info["clusters"] >= 4
    out = _run(capsys, "fuse", "--assign", d / "assign.smtf",
               "--centroids", d / "cent.smtf", "--tau", "0.9",
               "--seen-labels", d / "Ys.smtf", "--min-area", "16",
               "--out-masks", d / "Yu.smtf", "--out-centroids", d / "Cu_raw.smtf")
    info = json.loads(out)
    assert info["candidates"] >= 2 and info["masks_written"]
    masks = load_tensor(d / "Yu.smtf")
    assert masks.ndim == 3 and masks.dtype == np.uint8
    out = _run(capsys, "embed", "--features", d / "O.smtf",
               "--masks", d / "Yu.smtf", "--out", d / "Cu.smtf")
    info = json.loads(out)
    assert info["rows"] == masks.shape[0]
    rows = load_tensor(d / "Cu.smtf")
    assert np.allclose(np.linalg.norm(rows.astype(np.float64), axis=1), 1.0,
                       atol=1e-5)


def test_embed_external_path(fixture_dir, capsys):
    d, fix = fixture_dir
    ext = np.eye(2, 8, dtype=np.float32) * 3.0
    save_tensor(ext, d / "ext.smtf")
    out = _run(capsys, "embed", "--features", d / "O.smtf",
               "--external", d / "ext.smtf", "--out", d / "Cu.smtf")
    rows = load_tensor(d / "Cu.smtf")
    assert np.allclose(rows, np.eye(2, 8), atol=1e-6)    # renormalized


def _write_targets(path, entries):
    payload = {"targets": [{"class_id": cid, "mask": name}
                           for cid, name in entries]}
    path.write_text(json.dumps(payload))


def _three_class_bank(d):
    """Classes 0 and 1 seen and 2 a candidate, one query and one mask each."""
    width = 4
    e = np.eye(3, width, dtype=np.float32)
    save_tensor(e, d / "E.smtf")
    v = 8.0 * (2.0 * np.eye(3, width, dtype=np.float32) - e.sum(0))
    save_tensor(v, d / "V.smtf")
    masks = np.zeros((3, 4, 4), dtype=np.float32)
    for i in range(3):
        masks[i, i] = 1.0
    save_tensor(20.0 * (2 * masks - 1), d / "M.smtf")
    for i in range(3):
        save_tensor(masks[i].astype(np.uint8), d / f"m{i}.smtf")
    _write_targets(d / "all.json", [(0, "m0.smtf"), (1, "m1.smtf"), (2, "m2.smtf")])


def test_match_then_loss(tmp_path, capsys):
    _three_class_bank(tmp_path)

    out = _run(capsys, "match", "--pred-class", tmp_path / "V.smtf",
               "--pred-masks", tmp_path / "M.smtf",
               "--embeds", tmp_path / "E.smtf",
               "--targets", tmp_path / "all.json", "--seen-count", "2",
               "--ksplit", "2,1", "--out", tmp_path / "assign.json")
    assert json.loads(out)["pairs"] == 3
    raw = json.loads((tmp_path / "assign.json").read_text())
    assert raw["seen_count"] == 2
    assert {(p["q"], p["t"]) for p in raw["pairs"]} == {(0, 0), (1, 1), (2, 2)}
    assert all((p["q"] < 2) == (p["group"] == "seen") for p in raw["pairs"])

    out = _run(capsys, "loss", "--pred-class", tmp_path / "V.smtf",
               "--pred-masks", tmp_path / "M.smtf",
               "--embeds", tmp_path / "E.smtf",
               "--targets", tmp_path / "all.json",
               "--assignment", tmp_path / "assign.json",
               "--out", tmp_path / "loss.json")
    payload = json.loads((tmp_path / "loss.json").read_text())
    assert payload["sm"] == pytest.approx(payload["matched"] + payload["cosine"])
    assert payload["matched"] < 0.1                      # near-perfect fixture


@pytest.mark.parametrize("pair, message", [
    ({"q": 2, "t": 2, "group": "seen"}, "seen pair (2, 2) has candidate class id 2"),
    ({"q": 0, "t": 0, "group": "candidate"}, "candidate pair (0, 0) has seen class id 0"),
    ({"q": 0, "t": 2, "group": "candidate"}, "candidate pair (0, 2) has a seen query (k_seen 2)"),
    ({"q": 2, "t": 0, "group": "seen"}, "seen pair (2, 0) has a candidate query (k_seen 2)"),
])
def test_loss_rejects_a_pair_outside_its_target_group(tmp_path, capsys, pair, message):
    # A hand-edited assign.json whose pair group disagrees with its target's
    # class id, or whose query lies on the other side of k_seen, exits 1, in
    # either direction, rather than drop or add a candidate cosine term.
    _three_class_bank(tmp_path)
    (tmp_path / "assign.json").write_text(json.dumps(
        {"pairs": [{**pair, "cost": 0.0}], "unmatched": [], "seen_count": 2,
         "k_seen": 2, "weights": {}}))
    assert main(["loss", "--pred-class", str(tmp_path / "V.smtf"),
                 "--pred-masks", str(tmp_path / "M.smtf"),
                 "--embeds", str(tmp_path / "E.smtf"),
                 "--targets", str(tmp_path / "all.json"),
                 "--assignment", str(tmp_path / "assign.json"),
                 "--out", str(tmp_path / "loss.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not (tmp_path / "loss.json").exists()


def test_mfe_and_gradcheck(fixture_dir, capsys):
    # smseg mfe fuses the features at 1/4, 1/2 and full size under the
    # seeded fusion-block parameters that --groups and --seed select
    d, fix = fixture_dir
    out = _run(capsys, "mfe", "--features", d / "O.smtf", "--groups", "2",
               "--seed", "1", "--out", d / "Fd.smtf")
    assert json.loads(out)["shape"] == [8, 32, 32]
    pyr = FeaturePyramid(f0=bilinear_resize(fix.features, 8, 8),
                         f1=bilinear_resize(fix.features, 16, 16), f2=fix.features)
    want = mfe_forward(pyr, init_mfe_params(8, groups=2, seed=1))
    got = load_tensor(d / "Fd.smtf")
    assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)

    out = _run(capsys, "gradcheck", "--op", "mfe", "--seed", "7", "--step", "1e-3")
    info = json.loads(out)
    assert info["op"] == "mfe" and info["max_rel_err"] < 1e-4


@pytest.mark.parametrize("step", ["0", "nan", "inf", "-1e-3"])
def test_gradcheck_rejects_bad_step(capsys, step):
    assert main(["gradcheck", "--op", "relu", f"--step={step}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "step must be finite and > 0" in captured.err


def test_gradcheck_non_finite_error_exits_1(capsys, monkeypatch):
    def nan_grad(x, y):
        return 0.0, np.full_like(x, np.nan)
    monkeypatch.setattr("smseg.mfe.bce_mask_grad", nan_grad)
    assert main(["gradcheck", "--op", "bce"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bce" in captured.err and "nan" in captured.err


def test_gradcheck_error_not_below_bound_exits_1(capsys, monkeypatch):
    def doubled_weight_grad(x, w, dout):
        dx, dw, db = conv2d_3x3_vjp(x, w, dout)
        return dx, 2.0 * dw, db

    monkeypatch.setattr("smseg.mfe.conv2d_3x3_vjp", doubled_weight_grad)
    assert main(["gradcheck", "--op", "conv", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: gradcheck conv:")
    assert f"is not below {GRADCHECK_BOUND}" in captured.err


def test_infer_and_eval(fixture_dir, capsys):
    d, fix = fixture_dir
    q = 4.0 * np.concatenate([fix.seen_embeddings.matrix,
                              fix.unseen_embeddings.matrix])
    save_tensor(q.astype(np.float32), d / "Q.smtf")
    params = DecoderParams.zeros(8)
    save_tensor(np.stack([params.wq, params.wk, params.wv]), d / "dec.smtf")
    e_full = np.concatenate([fix.seen_embeddings.matrix,
                             fix.unseen_embeddings.matrix])
    save_tensor(e_full, d / "Efull.smtf")
    _run(capsys, "infer", "--features", d / "O.smtf", "--queries", d / "Q.smtf",
         "--decoder", d / "dec.smtf", "--embeds", d / "Efull.smtf",
         "--random-queries", "10", "--seed", "0", "--out", d / "labels.smtf")
    labels = load_tensor(d / "labels.smtf")
    assert labels.shape == fix.gt.shape

    out = _run(capsys, "eval", "--pred", d / "labels.smtf", "--gt", d / "gt.smtf",
               "--classes", "5", "--seen", "0,1,2", "--unseen", "3,4",
               "--ignore", "255", "--out", d / "report.json")
    report = json.loads(out)
    assert report["uIoU"] >= 90.0
    assert report["hIoU"] >= 90.0


def test_gen_synth_and_pipeline_commands(tmp_path, capsys):
    out = _run(capsys, "gen-synth", "--seed", "0", "--blobs", "4", "--seen", "2",
               "--size", "32", "--dim", "8", "--out-dir", tmp_path / "fx")
    paths = json.loads(out)
    assert (tmp_path / "fx" / "run.cfg").exists()
    out = _run(capsys, "pipeline", "--config", paths["config"])
    summary = json.loads(out)
    assert summary["candidates"] >= 2
    assert summary["report"]["uIoU"] >= 90.0


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["cluster", "--features", str(tmp_path / "missing.smtf"),
                 "--out-assign", str(tmp_path / "a"),
                 "--out-centroids", str(tmp_path / "c")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cluster_non_finite_features_exit_1(fixture_dir, capsys, bad):
    d, _ = fixture_dir
    blob = (d / "O.smtf").read_bytes()
    (d / "bad.smtf").write_bytes(blob[:-4] + np.array(bad, dtype="<f4").tobytes())
    assert main(["cluster", "--features", str(d / "bad.smtf"),
                 "--out-assign", str(d / "a.smtf"),
                 "--out-centroids", str(d / "c.smtf")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "NaN or Inf" in captured.err
    assert not (d / "a.smtf").exists()


@pytest.mark.parametrize("min_area", ["0", "-2"])
def test_fuse_rejects_min_area_below_one(fixture_dir, capsys, min_area):
    d, _ = fixture_dir
    _run(capsys, "cluster", "--features", d / "O.smtf",
         "--out-assign", d / "assign.smtf", "--out-centroids", d / "cent.smtf")
    assert main([str(a) for a in (
        "fuse", "--assign", d / "assign.smtf", "--centroids", d / "cent.smtf",
        "--seen-labels", d / "Ys.smtf", "--min-area", min_area,
        "--out-masks", d / "Yu.smtf", "--out-centroids", d / "Cu_raw.smtf")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "min_area must be >= 1" in captured.err
    assert not (d / "Yu.smtf").exists()


def _readme_command_lines():
    """The ``smseg`` lines of README's "Command line" bash block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("smseg ")]


def test_readme_command_lines_match_the_parser(capsys):
    # Each documented command parses: no unknown or abbreviated flag, and
    # every required flag present.
    lines = _readme_command_lines()
    assert len(lines) == 12
    for argv in lines:
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit:
            pytest.fail(f"smseg {' '.join(argv)}: {capsys.readouterr().err}")
        for flag in (a for a in argv if a.startswith("--")):
            assert flag[2:].replace("-", "_") in args, (argv[0], flag)
