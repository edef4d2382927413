"""The config declaration: PipelineConfig fields carry their [section] key
and parser, and from_file, the README and the CLI follow it."""

import argparse
import configparser
import inspect
from pathlib import Path

import pytest

from smseg import cli, gen_synth, write_fixture
from smseg.decoder import inject_random_queries
from smseg.mfe import mfe_logits
from smseg.pipeline import PipelineConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_readme_config_block_lists_every_declared_key(tmp_path):
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    listed = {(section, key) for section in parser.sections()
              for key in parser[section]}
    assert listed == set(PipelineConfig.declared())
    cfg, default = PipelineConfig.from_file(_config(tmp_path, block)), PipelineConfig()
    examples = {"num_classes", "seen_ids", "unseen_ids"}
    for (section, key), (name, _) in PipelineConfig.declared().items():
        if section != "inputs" and key not in examples:
            assert getattr(cfg, name) == getattr(default, name), (section, key)


@pytest.mark.parametrize("text, name", [
    ("[clustering]\nwindow = 4,8\n", "window"),
    ("[clustering]\niters = 5\n[fusoin]\ntau = 0.5\n", "fusoin"),
    ("[inputs]\nfeatures = O.smtf\nfeature = O.smtf\n", "feature"),
    ("[clustering]\nmetric = cosine\n", "metric"),
    ("[inputs]\nignore_mask = ignore.smtf\n", "ignore_mask"),
    ("[decoder]\nmode = oracle\n", "mode"),
])
def test_unknown_section_or_key_is_named(tmp_path, text, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        PipelineConfig.from_file(_config(tmp_path, text))


@pytest.mark.parametrize("section, key, field", [
    ("matching", "use_iou", "use_iou_in_loss"),
    ("mfe", "enabled", "mfe_enabled"),
    ("eval", "percent", "percent"),
])
def test_boolean_keys_take_configparser_states(tmp_path, section, key, field):
    for text, state in [("1", True), ("yes", True), ("True", True), ("on", True),
                        ("0", False), ("no", False), ("false", False), ("OFF", False)]:
        cfg = PipelineConfig.from_file(_config(tmp_path, f"[{section}]\n{key} = {text}\n"))
        assert getattr(cfg, field) is state, text
    for text in ("2", "maybe", "enabled", "t"):
        with pytest.raises(ValueError, match=rf"\[{section}\] {key}: not a boolean"):
            PipelineConfig.from_file(_config(tmp_path, f"[{section}]\n{key} = {text}\n"))


def test_bad_value_names_its_key(tmp_path):
    with pytest.raises(ValueError, match=r"\[clustering\] iters"):
        PipelineConfig.from_file(_config(tmp_path, "[clustering]\niters = ten\n"))


def test_values_parse_and_empty_values_keep_defaults(tmp_path):
    cfg = PipelineConfig.from_file(_config(tmp_path, (
        "[clustering]\nwindows = 4, 8\niters =\n"
        "[matching]\nfocal_gamma = 1.5\n"
        "[decoder]\nksplit = 3,2\n"
        "[inputs]\ncandidate_embeddings =      ; none\n")))
    default = PipelineConfig()
    assert cfg.windows == (4, 8) and cfg.kmeans_iters == default.kmeans_iters
    assert cfg.weights.focal_gamma == 1.5 and cfg.weights.w_cls == default.w_cls
    assert cfg.ksplit == (3, 2) and cfg.candidate_embeddings == ""
    assert cfg.base_dir == str(tmp_path.resolve())


def test_fixture_config_takes_an_appended_mfe_section(tmp_path):
    # benchmark and test fixtures enable the fusion-block branch by appending
    # an [mfe] section, so write_fixture's run.cfg must not hold one
    paths = write_fixture(gen_synth(seed=0, size=32, dim=8), tmp_path)
    text = Path(paths["config"]).read_text()
    assert "[mfe]" not in text
    cfg = PipelineConfig.from_file(_config(tmp_path, text + "[mfe]\nenabled = true\n"))
    assert cfg.mfe_enabled and cfg.seen_ids == (0, 1, 2) and cfg.unseen_ids == (3, 4)


STAGES = ("cluster", "fuse", "match", "mfe", "infer", "eval")


def _subparsers(parser):
    """{name: subparser} of ``parser``'s subcommands."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_defaults_are_the_config_defaults(monkeypatch):
    # without --config each stage subcommand runs on PipelineConfig()
    ran = {}
    for name in STAGES:
        monkeypatch.setattr(cli, f"_cmd_{name}",
                            lambda args, cfg, name=name: ran.setdefault(name, cfg))
    parser = cli.build_parser()
    for name in STAGES:
        argv = [name] + [x for a in _subparsers(parser)[name]._actions if a.required
                         for x in (a.option_strings[0], "x")]
        args = parser.parse_args(argv)
        assert args.config == ""
        args.func(args)
    assert ran == dict.fromkeys(STAGES, PipelineConfig())


def test_stage_flags_restate_no_config_key():
    # gen-synth and gradcheck aside, the optional flags name files, or hold
    # what no config key does: the seen rows of a bank and infer's class ids
    optional = {a.option_strings[0] for name, p in _subparsers(cli.build_parser()).items()
                if name not in ("gen-synth", "gradcheck") for a in p._actions
                if a.option_strings and not a.required
                and not isinstance(a, argparse._HelpAction)}
    assert optional == {"--config", "--masks", "--external", "--seen-count",
                        "--class-ids"}


def test_inference_defaults_are_the_library_defaults():
    default = PipelineConfig()
    inject = inspect.signature(inject_random_queries).parameters
    logits = inspect.signature(mfe_logits).parameters
    assert default.random_queries == inject["k_r"].default
    assert default.rq_sigma == inject["sigma"].default
    assert default.temperature == logits["temperature"].default


@pytest.mark.parametrize("synth_args, ids, unseen_file", [
    ({"seed": 0, "size": 32, "dim": 8}, ((0, 1, 2), (3, 4)), "Au.smtf"),
    ({"seed": 1, "seen": 4, "size": 32, "dim": 8}, ((0, 1, 2, 3, 4), ()), ""),
])
def test_fixture_config_loads_as_the_hand_written_one(tmp_path, synth_args, ids,
                                                      unseen_file):
    # the values the hand-written run.cfg loaded as, [mfe] appended
    path = Path(write_fixture(gen_synth(**synth_args), tmp_path)["config"])
    path.write_text(path.read_text() + "[mfe]\nenabled = true\n")
    assert PipelineConfig.from_file(path) == PipelineConfig(
        features="O.smtf", seen_labels="Ys.smtf", seen_embeddings="As.smtf",
        unseen_embeddings=unseen_file, gt_labels="gt.smtf",
        num_classes=5, seen_ids=ids[0], unseen_ids=ids[1], ignore_id=255,
        out_dir="out", mfe_enabled=True, base_dir=str(tmp_path.resolve()))


def test_to_text_round_trips_every_key(tmp_path):
    cfg = PipelineConfig(
        features="f.smtf", windows=(4, 8), kmeans_iters=3, kmeans_tol=2.5e-7,
        use_iou_in_loss=False, ksplit=(3, 2), rq_sigma=0.125,
        mfe_enabled=True, temperature=1 / 3, seen_ids=(0, 7), percent=False,
        out_dir="out%1", base_dir=str(tmp_path.resolve()))
    sections = dict.fromkeys(section for section, _ in PipelineConfig.declared())
    assert PipelineConfig.from_file(_config(tmp_path, cfg.to_text(sections))) == cfg
