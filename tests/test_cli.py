"""End-to-end CLI subcommand tests on a miniature run configuration."""

import argparse
import contextlib
import dataclasses
import functools
import inspect
import io
import json
import operator
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sidforge import alignment, pipeline, scorer, tokenizer
from sidforge.cli import build_parser, main
from sidforge.corpus import (
    Item,
    ItemCorpus,
    generate_interactions,
    load_interactions,
    load_items,
    save_items,
    write_json,
)
from sidforge.quantizer import load_sids
from sidforge.scorer import load_checkpoint, save_checkpoint

from helpers import f8le, stored, to_nested_lists

MINI_CONFIG = {
    "seed": 5,
    "corpus": {
        "n_items": 60, "d_emb": 6, "n_clusters_true": 4,
        "n_requests": 80, "events_per_request": 3, "seed": 5,
    },
    "quantizer": {"n_layers": 2, "k": 4, "tau": 1.2},
    "tokenizer": {"attr_chain": ["l2", "l3"], "d_hash": 4},
    "scorer": {"d_model": 8, "max_behavior_len": 8},
    "train": {"epochs": 1, "batch_size": 16},
    "align": {"epochs": 1, "batch_size": 16, "pairs_per_request": 2},
    "decode": {"beam_width": 8, "top_k": 4},
    "eval": {"ks": [1, 5], "beam_width": 8},
}


def with_leaf(key, value):
    """MINI_CONFIG with the leaf ``key`` ("seed" or "<section>.<field>") set to ``value``."""
    section, _, name = key.rpartition(".")
    if not section:
        return {**MINI_CONFIG, name: value}
    return {**MINI_CONFIG, section: {**MINI_CONFIG[section], name: value}}


LEAF_KEYS = ["seed"] + [f"{section}.{name}" for section, fields
                        in pipeline.config_to_dict(pipeline.RunConfig()).items()
                        if isinstance(fields, dict) for name in fields]

# JSON values of the wrong type, or small or non-finite numbers: an integer
# key accepts only the few small integers in its range, so every run stays small
wrong_values = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
                | st.text(max_size=5)
                | st.lists(st.integers(-3, 3) | st.text(max_size=3), max_size=3)
                | st.dictionaries(st.text(max_size=5), st.integers(-3, 3), max_size=2))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return str(path)


def run(args):
    return main(args)


class TestPipelineSmoke:
    def test_full_subcommand_chain(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        assert run(["gen-data", "--config", config_path, "--out", out]) == 0
        assert run(["quantize", "--config", config_path, "--out", out]) == 0
        assert run(["analyze", "--config", config_path, "--out", out]) == 0
        assert run(["build-seqs", "--config", config_path, "--out", out]) == 0
        assert run(["train", "--config", config_path, "--out", out]) == 0
        trained = os.path.join(out, "checkpoint.json")
        aligned = os.path.join(out, "aligned_checkpoint.json")
        # before align, decode falls back to the trained checkpoint and says so
        capsys.readouterr()
        assert run(["decode", "--config", config_path, "--out", out]) == 0
        assert capsys.readouterr().out.startswith(f"decoded {trained}: wrote ")
        # align.epochs 0 saves the trained model unchanged and says alignment was skipped
        off_path, off = tmp_path / "off.json", str(tmp_path / "off")
        off_path.write_text(json.dumps(with_leaf("align.epochs", 0)))
        assert run(["align", "--config", str(off_path), "--data-dir", out, "--out", off]) == 0
        assert capsys.readouterr().out == (
            "alignment skipped (align.epochs is 0); saved the trained model unchanged\n")
        unchanged = load_checkpoint(os.path.join(off, "aligned_checkpoint.json"))
        assert unchanged.tensors.keys() == load_checkpoint(trained).tensors.keys()
        for name, arr in load_checkpoint(trained).tensors.items():
            assert unchanged.tensors[name].tobytes() == arr.tobytes(), name
        assert run(["align", "--config", config_path, "--out", out]) == 0
        capsys.readouterr()
        assert run(["decode", "--config", config_path, "--out", out,
                    "--task", "click:main_feed"]) == 0
        assert capsys.readouterr().out.startswith(f"decoded {aligned}: wrote ")
        assert run(["eval", "--config", config_path, "--out", out]) == 0
        assert capsys.readouterr().out.startswith(f"{aligned}: token HR@3 mean ")

        for name in ("items.jsonl", "interactions.jsonl", "codebook.json",
                     "sids.jsonl", "sequences.jsonl", "space.json",
                     "checkpoint.json", "aligned_checkpoint.json",
                     "candidates.jsonl", "report.json", "analysis.json"):
            assert os.path.exists(os.path.join(out, name)), name

        corp = load_items(os.path.join(out, "items.jsonl"))
        assert len(corp) == 60
        cb = json.loads((tmp_path / "run" / "codebook.json").read_text())
        assert cb["L"] == 2 and cb["K"] == 4
        sids = load_sids(os.path.join(out, "sids.jsonl"))
        assert len(sids) == 60

        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert set(report["hr_at"]) == {"1", "5"}
        assert 0.0 <= report["token_hr3_mean"] <= 1.0
        analysis = json.loads((tmp_path / "run" / "analysis.json").read_text())
        assert "exposure" in analysis and "entropy" in analysis

        # every artifact carries the config digest
        digest = pipeline.config_digest(pipeline.load_config(MINI_CONFIG))
        meta = json.loads((tmp_path / "run" / "items.jsonl.meta.json").read_text())
        assert meta["config_digest"] != ""
        assert meta["seed"] == 5
        assert json.loads((tmp_path / "run" / "report.json").read_text())[
            "metadata"]["config_digest"] == meta["config_digest"]

    def test_gen_data_rerun_is_byte_identical(self, tmp_path, config_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(["gen-data", "--config", config_path, "--out", out1])
        run(["gen-data", "--config", config_path, "--out", out2])
        for name in ("items.jsonl", "interactions.jsonl"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b


class TestQuantizeTauOne:
    def test_symmetric_four_items_load_exactly_at_cap(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        os.makedirs(out)
        pts = [[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]]
        items = [
            Item(i, np.asarray(p), 1,
                 {"l1": "a", "l2": "b", "l3": "c", "seller": "s", "brand": "r"}, 1.0)
            for i, p in enumerate(pts)
        ]
        save_items(ItemCorpus(items=items, d_emb=2), os.path.join(out, "items.jsonl"))
        (tmp_path / "run" / "interactions.jsonl").write_text("")
        cfg = dict(MINI_CONFIG)
        cfg["quantizer"] = {"n_layers": 1, "k": 2}
        cfg_path = tmp_path / "c2.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["quantize", "--config", str(cfg_path), "--out", out,
                    "--tau", "1.0", "--strict-capacity"]) == 0
        sids = load_sids(os.path.join(out, "sids.jsonl"))
        loads = {}
        for s in sids:
            loads[s.codes[0]] = loads.get(s.codes[0], 0) + 1
        assert sorted(loads.values()) == [2, 2]  # exactly C_cap each


class TestCliErrors:
    def test_missing_input_file(self, tmp_path, config_path, capsys):
        rc = run(["quantize", "--config", config_path, "--out", str(tmp_path / "nope")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "not_a_section": {}}))
        rc = run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "not_a_section" in capsys.readouterr().err

    def test_strict_capacity_infeasible_fails(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        os.makedirs(out)
        items = [
            Item(i, np.asarray([float(i), 0.0]), 1000 if i == 0 else 1,
                 {"l1": "a", "l2": "b", "l3": "c", "seller": "s", "brand": "r"}, 1.0)
            for i in range(6)
        ]
        save_items(ItemCorpus(items=items, d_emb=2), os.path.join(out, "items.jsonl"))
        (tmp_path / "run" / "interactions.jsonl").write_text("")
        rc = run(["quantize", "--config", config_path, "--out", out,
                  "--tau", "1.05", "--strict-capacity"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "layer 0:" in err and "overweight_item at item index 0" in err

    def test_checkpoint_without_tensors_key(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs", "train"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        ckpt = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        del doc["tensors"]
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["decode", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'tensors'" in err and "checkpoint.json" in err

    def test_space_without_space_key(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        (tmp_path / "run" / "space.json").write_text(json.dumps({"meta": {}}))
        capsys.readouterr()
        assert run(["train", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'space'" in err and "space.json" in err

    def test_json_document_that_is_not_an_object_exits_1(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs", "train"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        ckpt = tmp_path / "run" / "checkpoint.json"
        text = ckpt.read_text()
        for body, want in (("[1]", "checkpoint.json: expected a JSON object"),
                           (text[:len(text) // 2], "checkpoint.json: malformed JSON at line 1")):
            ckpt.write_text(body)
            for cmd in ("decode", "eval"):
                capsys.readouterr()
                assert run([cmd, "--config", config_path, "--out", out]) == 1
                assert want in capsys.readouterr().err
        space = tmp_path / "run" / "space.json"
        for body, want in (("[1]", "space.json: expected a JSON object"),
                           ('{"space": [1], "meta": {}}', "space.json: malformed space")):
            space.write_text(body)
            capsys.readouterr()
            assert run(["train", "--config", config_path, "--out", out]) == 1
            assert want in capsys.readouterr().err

    def test_sids_line_without_sid_key(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        (tmp_path / "run" / "sids.jsonl").write_text('{"item_id": 0}\n')
        capsys.readouterr()
        assert run(["build-seqs", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "sids.jsonl: line 1: missing sid field(s) ['sid']" in err

    def test_sequence_loader_names_the_missing_key(self, tmp_path):
        seqs = tmp_path / "sequences.jsonl"
        seqs.write_text('{"item_id": 3, "path": [0, 1]}\n{"item_id": 4}\n')
        with pytest.raises(ValueError, match=r"sequences.jsonl: line 2: "
                                             r"missing sequence field\(s\) \['path'\]"):
            pipeline.load_sequences(str(seqs))

    def test_malformed_sequences_line_names_file_and_line(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        seqs = tmp_path / "run" / "sequences.jsonl"
        first = seqs.read_text().splitlines()[0]
        seqs.write_text(first + "\n{not json\n")
        capsys.readouterr()
        assert run(["train", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "sequences.jsonl: line 2: malformed JSON" in err

    @pytest.mark.parametrize("artifact", ["sids.jsonl", "items.jsonl"])
    def test_malformed_jsonl_line_names_file_and_line(self, tmp_path, config_path, capsys,
                                                      artifact):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        path = tmp_path / "run" / artifact
        first = path.read_text().splitlines()[0]
        path.write_text(first + "\n{bad\n")
        capsys.readouterr()
        assert run(["build-seqs", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{artifact}: line 2: malformed JSON" in err

    def test_corpus_loaders_name_file_and_line(self, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text('{"item_id": 0, "color": 1}\n')
        with pytest.raises(ValueError, match="items.jsonl: line 1: unknown item field"):
            load_items(str(items))
        items.write_text('{"item_id": 0}\n')
        with pytest.raises(ValueError, match="items.jsonl: line 1: missing item field"):
            load_items(str(items))
        log = tmp_path / "interactions.jsonl"
        log.write_text(json.dumps({"request_id": 0, "user_id": 0, "scene": "s", "objective": "o",
                                   "reward_metrics": {}, "events": [{"item_id": 1}]}) + "\n")
        with pytest.raises(ValueError, match="interactions.jsonl: line 1: missing event field"):
            load_interactions(str(log))
        sids = tmp_path / "sids.jsonl"
        sids.write_text('{"item_id": 0, "sid": [1], "x": 2}\n')
        with pytest.raises(ValueError,
                           match=r"sids.jsonl: line 1: unknown sid field\(s\) \['x'\]"):
            load_sids(str(sids))

    @pytest.mark.parametrize("line", ["5", '["item_id", "sid", "path"]'])
    @pytest.mark.parametrize("artifact, load", [
        ("items.jsonl", load_items),
        ("interactions.jsonl", load_interactions),
        ("sids.jsonl", load_sids),
        ("sequences.jsonl", pipeline.load_sequences),
    ])
    def test_line_that_is_not_an_object_names_file_and_line(self, tmp_path, artifact, load,
                                                            line):
        path = tmp_path / artifact
        path.write_text("\n" + line + "\n")
        with pytest.raises(ValueError, match=f"{artifact}: line 2: expected a JSON object"):
            load(str(path))

    @pytest.mark.parametrize("artifact, load, line, message", [
        ("interactions.jsonl", load_interactions,
         {"request_id": 0, "user_id": 0, "scene": "s", "objective": "o",
          "reward_metrics": {}, "events": 3}, "events must be a list of objects"),
        ("interactions.jsonl", load_interactions,
         {"request_id": 0, "user_id": 0, "scene": "s", "objective": "o",
          "reward_metrics": {}, "events": [3]}, "events must be a list of objects"),
        ("sids.jsonl", load_sids, {"item_id": 0, "sid": 3}, "'int' object is not iterable"),
        ("sequences.jsonl", pipeline.load_sequences, {"item_id": 0, "path": 3},
         "'int' object is not iterable"),
    ], ids=["events-int", "events-of-ints", "sid-int", "path-int"])
    def test_field_of_the_wrong_shape_names_file_and_line(self, tmp_path, artifact, load, line,
                                                          message):
        path = tmp_path / artifact
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=f"{artifact}: line 1: {message}"):
            load(str(path))

    def test_non_object_items_line_exits_1(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        assert run(["gen-data", "--config", config_path, "--out", out]) == 0
        items = tmp_path / "run" / "items.jsonl"
        items.write_text(items.read_text().splitlines()[0] + "\n5\n")
        capsys.readouterr()
        assert run(["quantize", "--config", config_path, "--out", out]) == 1
        assert "items.jsonl: line 2: expected a JSON object" in capsys.readouterr().err

    def test_build_seqs_does_not_read_the_decode_task(self, tmp_path, config_path,
                                                      monkeypatch):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0, cmd

        def no_task_bos(*args):
            raise AssertionError("build-seqs asked for a task BOS")

        monkeypatch.setattr(tokenizer, "task_bos_token", no_task_bos)
        assert run(["build-seqs", "--config", config_path, "--out", out]) == 0

    def test_unknown_quantizer_method_is_a_config_error(self, tmp_path, capsys):
        bad = {**MINI_CONFIG, "quantizer": {"method": "kmeans"}}
        with pytest.raises(pipeline.ConfigError, match=r"quantizer\.method"):
            pipeline.load_config(bad)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(bad))
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "quantizer.method" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("lam", -0.1), ("lam", float("nan")),
                                            ("c_clip", 0.0), ("eps", 0.0)])
    def test_bad_align_value_is_a_config_error(self, key, value):
        with pytest.raises(pipeline.ConfigError, match=rf"align\.{key} must be"):
            pipeline.load_config({**MINI_CONFIG, "align": {key: value}})

    def test_bad_align_flag_exits_1_before_loading_data(self, tmp_path, config_path, capsys):
        assert run(["align", "--config", config_path, "--out", str(tmp_path / "none"),
                    "--c-clip", "0"]) == 1
        assert "align.c_clip must be > 0" in capsys.readouterr().err

    def test_bad_tau_flag_names_the_flag(self, tmp_path, config_path, capsys):
        argv = ["quantize", "--config", config_path, "--out", str(tmp_path / "none"), "--tau"]
        assert run(argv + ["inf"]) == 1  # --method baseline is the run with no cap
        assert "quantizer.tau must be a finite number, got inf" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(argv + ["abc"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "--tau: invalid float value: 'abc'" in err
        assert "Traceback" not in err

    def test_every_override_flag_sets_a_field_of_its_section(self):
        # the config overlay copies each given flag onto the field of its name, so a
        # flag without a field, or a field named like a common flag, would go unread
        subparsers, = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        sections = {}
        for name, sub in subparsers.choices.items():
            section = sections[name] = sub.get_default("section")
            if section is None:
                continue
            fields = {f.name for f in dataclasses.fields(getattr(pipeline.RunConfig(), section))}
            flags = [a.dest for a in sub._actions if a.default is argparse.SUPPRESS
                     and not isinstance(a, argparse._HelpAction)]
            dests = {d for flag in flags
                     for d in ({"objective", "scene"} if flag == "task" else {flag})}
            assert flags and dests <= fields, name
            assert not fields & set(vars(sub.parse_args([]))), name
        assert {name: s for name, s in sections.items() if s} == {
            "quantize": "quantizer", "align": "align", "decode": "decode"}

    @pytest.mark.parametrize("seed, message", [("-1", "seed must be >= 0, got -1"),
                                               ("6", "corpus.seed 5 is never read")])
    def test_seed_flag_is_checked_like_the_config_seed(self, tmp_path, config_path, capsys,
                                                       seed, message):
        assert run(["gen-data", "--config", config_path, "--out", str(tmp_path / "run"),
                    "--seed", seed]) == 1
        assert message in capsys.readouterr().err

    def test_threads_key_is_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**MINI_CONFIG, "threads": 2}))
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "unknown key(s) ['threads']" in capsys.readouterr().err

    def test_ablate_grid_must_name_each_arm_once(self, tmp_path, config_path, capsys,
                                                 monkeypatch):
        data = str(tmp_path / "data")
        assert run(["gen-data", "--config", config_path, "--out", data]) == 0
        quantized = []
        monkeypatch.setattr(pipeline, "run_quantizer", lambda *a, **k: quantized.append(a))
        for flag, value in (("--chains", "[]"), ("--chains", '[["l2"], ["l3"], ["l2"]]'),
                            ("--methods", "baseline,capacity,baseline")):
            capsys.readouterr()
            assert run(["ablate", "--config", config_path, "--data-dir", data,
                        "--out", str(tmp_path / "out"), flag, value]) == 1
            assert f"{flag} must name at least one arm and none twice" in \
                capsys.readouterr().err
        assert quantized == []
        assert not (tmp_path / "out").exists()


class TestConfig:
    def test_nested_lists_in_tuple_fields_become_tuples(self):
        cfg = pipeline.load_config({**MINI_CONFIG, "tokenizer": {"pairs": [[1, 2], [2, 3]]}})
        assert cfg.tokenizer.pairs == ((1, 2), (2, 3))
        assert cfg.eval.ks == (1, 5)
        assert isinstance(cfg.tokenizer.attr_chain, tuple)

    def test_nested_unknown_key_names_its_path(self):
        with pytest.raises(pipeline.ConfigError,
                           match=r"config\.align: unknown key\(s\) \['lr2'\]"):
            pipeline.load_config({**MINI_CONFIG, "align": {"lr2": 0.1}})
        with pytest.raises(pipeline.ConfigError, match=r"config\.corpus: expected an object"):
            pipeline.load_config({**MINI_CONFIG, "corpus": [1]})

    def test_valid_configs_keep_their_digest(self):
        assert pipeline.config_digest(pipeline.RunConfig()) == (
            "d1093d57ccd482cc33d9b135a6ad316d49e120deda4e7f06b96942c6e30fe5eb")
        assert pipeline.config_digest(pipeline.load_config(MINI_CONFIG)) == (
            "5cef30a35f714d2c54fcc889b3de528ce3ec3031e3209175bca085564162563b")

    @pytest.mark.parametrize("section, value, match", [
        ("align", {"dpo_target": "last_sid"},
         r"align\.dpo_target must be one of \['last-sid', 'all'\], got 'last_sid'"),
        ("eval", {"ks": [5, 64]}, r"eval\.ks must .* \[1, eval\.beam_width = 8\], got \[5, 64\]"),
        ("eval", {"ks": [5, 5, 3]}, r"eval\.ks must be non-empty, distinct .* got \[5, 5, 3\]"),
        ("eval", {"ks": [0, 5]}, r"eval\.ks must .* got \[0, 5\]"),
        ("eval", {"ks": []}, r"eval\.ks must be non-empty"),
        ("corpus", {"seed": 3}, r"corpus\.seed 3 is never read"),
        ("tokenizer", {"attr_chain": ["l2", "colour"]},
         r"tokenizer\.attr_chain\[1\] must be one of \['l1', .*\], got 'colour'"),
        ("scorer", {"d_model": 0}, r"scorer\.d_model must be >= 1, got 0"),
        ("tokenizer", {"d_hash": 0}, r"tokenizer\.d_hash must be >= 1, got 0"),
        ("tokenizer", {"m_hashes": 4}, r"tokenizer\.m_hashes must be >= 1 and <= 3, got 4"),
        ("quantizer", {"k": 0}, r"quantizer\.k must be >= 1, got 0"),
        ("train", {"epochs": 0}, r"train\.epochs must be >= 1, got 0"),
        ("train", {"batch_size": 0}, r"train\.batch_size must be >= 1, got 0"),
        ("align", {"batch_size": 0}, r"align\.batch_size must be >= 1, got 0"),
        ("quantizer", {"tau": 0.5}, r"quantizer\.tau must be >= 1, got 0\.5"),
        ("quantizer", {"tau": None}, r"quantizer\.tau must be a finite number, got None"),
        ("quantizer", {"n_layers": 0}, r"quantizer\.n_layers must be >= 1, got 0"),
        ("decode", {"top_k": 50},
         r"decode\.top_k must lie in \[1, decode\.beam_width = 8\], got 50"),
        ("decode", {"objective": "nope"}, r"decode\.objective must be one of .* got 'nope'"),
        ("decode", {"scene": "nope"}, r"decode\.scene must be one of .* got 'nope'"),
        ("quantizer", {"max_iter": 0}, r"quantizer\.max_iter must be >= 1, got 0"),
        ("scorer", {"max_behavior_len": 0}, r"scorer\.max_behavior_len must be >= 1, got 0"),
        ("scorer", {"prefix_window": -1}, r"scorer\.prefix_window must be >= 0, got -1"),
        ("align", {"pairs_per_request": 0}, r"align\.pairs_per_request must be >= 1, got 0"),
        ("align", {"epochs": -1}, r"align\.epochs must be >= 0, got -1"),
        (None, {"seed": -1}, r"^seed must be >= 0, got -1"),
        (None, {"seed": 1.5}, r"^seed must be an integer, got 1\.5"),
        ("align", {"lam": 0.5, "c_clip": 2},
         r"align\.lam \* align\.c_clip must be < 1, got align\.lam = 0\.5 and align\.c_clip = 2"),
    ], ids=["dpo-target", "ks-above-width", "ks-repeated", "ks-zero", "ks-empty", "corpus-seed",
            "attr-chain", "d-model", "d-hash", "m-hashes", "k", "epochs", "train-batch",
            "align-batch", "tau", "tau-null", "n-layers", "top-k", "objective", "scene",
            "max-iter", "max-behavior-len", "prefix-window", "pairs-per-request", "align-epochs",
            "seed-negative", "seed-float", "lam-times-c-clip"])
    def test_values_that_would_pass_silently_are_config_errors(self, section, value, match):
        """``section`` None sets a top-level key."""
        with pytest.raises(pipeline.ConfigError, match=match):
            pipeline.load_config({**MINI_CONFIG, **value} if section is None else
                                 {**MINI_CONFIG, section: {**MINI_CONFIG[section], **value}})

    @pytest.mark.parametrize("key, value", [
        ("quantizer.k", 3.5), ("quantizer.k", True), ("train.lr", "fast"), ("eval.ks", [1.5]),
        ("scorer.d_model", 2.0), ("corpus.n_users", 2.5), ("seed", 1.5), ("seed", -1),
        ("tokenizer.pairs", [[9, 9]]), ("align.reward_weights", {"nope": 1}), ("align.beta", 0),
        ("align.lr", -1), ("quantizer.eps_conv", -1), ("quantizer.strict", "no"),
        ("align.epochs", -1), ("train.lr", float("nan")), ("train.weight_decay", float("nan")),
        ("corpus.zipf_exponent", float("nan")), ("tokenizer.p1", 0), ("tokenizer.p2", 31),
        ("quantizer.tau", None),
    ])
    def test_wrong_type_or_range_exits_1_at_gen_data_naming_the_key(self, tmp_path, capsys,
                                                                     key, value):
        cfg = with_leaf(key, value)
        with pytest.raises(pipeline.ConfigError, match=re.escape(key)):
            pipeline.load_config(cfg)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(LEAF_KEYS), wrong_values)
    def test_any_one_wrong_leaf_is_a_config_error_or_runs_the_chain(self, key, value):
        """The config names the key it rejects; a config it accepts runs the CLI
        chain to exit 0, or to exit 1 with a diagnostic, never a traceback."""
        cfg = with_leaf(key, value)
        try:
            pipeline.load_config(cfg)
        except pipeline.ConfigError as exc:
            assert key in str(exc)
            return
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            for cmd in ("gen-data", "quantize", "build-seqs", "train", "align", "decode", "eval"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = run([cmd, "--config", cfg_path, "--out", os.path.join(tmp, "run")])
                assert rc in (0, 1), cmd
                if rc == 1:
                    assert err.getvalue().startswith("sidforge: error: "), (cmd, err.getvalue())
                    break

    def test_readme_minimal_config_loads(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("A minimal config", 1)[1]
        pipeline.load_config(json.loads(block.split("```json", 1)[1].split("```", 1)[0]))

    def test_corpus_seed_may_be_zero_or_the_run_seed(self):
        for seed in (0, MINI_CONFIG["seed"]):
            cfg = pipeline.load_config({**MINI_CONFIG, "corpus": {**MINI_CONFIG["corpus"],
                                                                  "seed": seed}})
            assert cfg.corpus.seed == seed

    @pytest.mark.parametrize("body, want", [('{"seed": ', "malformed JSON at line 1"),
                                            ("[1]", "expected a JSON object")])
    def test_malformed_config_file_names_the_file(self, tmp_path, capsys, body, want):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert f"bad.json: {want}" in capsys.readouterr().err


class TestRunPipeline:
    def test_one_shot_pipeline(self, tmp_path):
        cfg = pipeline.load_config(MINI_CONFIG)
        report = pipeline.run_pipeline(cfg, str(tmp_path / "run"))
        assert 0.0 <= report.token_hr3_mean <= 1.0
        for name in ("items.jsonl", "codebook.json", "checkpoint.json",
                     "report.json", "candidates.jsonl"):
            assert os.path.exists(os.path.join(str(tmp_path / "run"), name))

    def test_run_pipeline_writes_the_cli_chain_artifacts(self, tmp_path, config_path):
        cli_dir, pipe_dir = tmp_path / "cli", tmp_path / "pipe"
        for cmd in ("gen-data", "quantize", "analyze", "build-seqs", "train", "align",
                    "decode", "eval"):
            assert run([cmd, "--config", config_path, "--out", str(cli_dir)]) == 0
        pipeline.run_pipeline(pipeline.load_config(MINI_CONFIG), str(pipe_dir))
        written = sorted(os.listdir(pipe_dir))
        assert "report.json" in written and "candidates.jsonl.meta.json" in written
        for name in written:
            cli_name = "aligned_checkpoint.json" if name == "checkpoint.json" else name
            assert (pipe_dir / name).read_bytes() == (cli_dir / cli_name).read_bytes(), name

    def test_blas_thread_count_moves_only_the_last_bits_of_the_model(self, tmp_path):
        # the smallest config found whose checkpoint differs between one and
        # two OpenBLAS threads (by 2.8e-17 at most; pipeline-2k by 4.9e-17):
        # with K = 32 and d_model 32 the scorer's gemms are large enough to
        # run threaded.  The bounds below leave room for other BLAS kernels.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7, "corpus": {"n_items": 40, "n_requests": 40},
                                      "quantizer": {"k": 32, "n_layers": 2},
                                      "train": {"epochs": 1}}))
        script = ("import sys; from sidforge import pipeline; "
                  "pipeline.run_pipeline(pipeline.load_config(sys.argv[1]), sys.argv[2])")
        path = [os.path.dirname(os.path.dirname(pipeline.__file__)), os.environ.get("PYTHONPATH")]
        one, two = tmp_path / "1", tmp_path / "2"
        for threads, out in (("1", one), ("2", two)):
            # OpenBLAS reads the thread count when numpy loads it, hence a fresh process
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            subprocess.run([sys.executable, "-c", script, str(config), str(out)], env=env,
                           check=True)
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(two))
        for name in set(names) - {"checkpoint.json", "candidates.jsonl"}:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        cands = [[json.loads(line) for line in (out / "candidates.jsonl").open()]
                 for out in (one, two)]
        assert [(c["path"], c["item_ids"]) for c in cands[0]] == \
            [(c["path"], c["item_ids"]) for c in cands[1]]
        for c1, c2 in zip(*cands):
            assert abs(c1["logprob"] - c2["logprob"]) <= 1e-12
        m1, m2 = load_checkpoint(one / "checkpoint.json"), load_checkpoint(two / "checkpoint.json")
        assert m1.tensors.keys() == m2.tensors.keys()
        for name, arr in m1.tensors.items():
            assert np.abs(arr - m2.tensors[name]).max(initial=0.0) <= 1e-15, name


class TestHoldout:
    def test_alignment_pairs_come_from_training_requests_only(self, tmp_path, monkeypatch):
        cfg = pipeline.load_config(MINI_CONFIG)
        built, build = [], alignment.build_dpo_pairs

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(alignment, "build_dpo_pairs", recording_build)
        run_dir = str(tmp_path / "run")
        pipeline.run_pipeline(cfg, run_dir)
        log = load_interactions(os.path.join(run_dir, "interactions.jsonl"))
        _, held_out = pipeline.split_log(cfg, log)
        (pairs,) = built
        assert pairs and held_out
        assert not {p.request_id for p in pairs} & {r.request_id for r in held_out}

    def test_empty_holdout_is_an_error(self, tmp_path, capsys):
        cfg = pipeline.load_config({**MINI_CONFIG, "eval": {"holdout_frac": 0.0}})
        data = str(tmp_path / "data")
        corp, log = pipeline.gen_data(cfg, data)
        with pytest.raises(ValueError, match=r"eval\.holdout_frac=0\.0 of 80 requests"):
            pipeline.ablation_run(cfg, corp, log, [("l2", "l3")], ["capacity"])

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**MINI_CONFIG, "eval": {"holdout_frac": 0.0}}))
        assert run(["ablate", "--config", str(cfg_path), "--data-dir", data,
                    "--out", str(tmp_path / "out"), "--chains", '[["l2","l3"]]',
                    "--methods", "capacity"]) == 1
        assert "eval.holdout_frac" in capsys.readouterr().err

    def test_holdout_rounds_down_and_zero_holds_out_nothing(self, tmp_path):
        def held_out_ids(cfg, log):
            # the two sides are disjoint, give the whole log and each run in request_id order
            train, held_out = pipeline.split_log(cfg, log)
            assert [r.request_id for r in train + held_out] == sorted(r.request_id for r in log)
            assert sorted(map(id, train + held_out)) == sorted(map(id, log))
            return [r.request_id for r in held_out]

        cfg = pipeline.load_config(MINI_CONFIG)
        _, log = pipeline.gen_data(cfg, str(tmp_path / "data"))
        ids = sorted(r.request_id for r in log)
        assert held_out_ids(cfg, log) == ids[-8:]  # 0.10 of 80
        for frac, n_eval in ((0.0, 0), (0.01, 0), (0.05, 4)):
            cfg = pipeline.load_config({**MINI_CONFIG, "eval": {"holdout_frac": frac}})
            assert held_out_ids(cfg, log) == ids[len(ids) - n_eval:]
        # the fraction as written: the float products 0.29 * 100 and 0.7 * 90
        # fall just below 29 and 63
        for n, frac, n_eval in ((100, 0.29, 29), (100, 0.57, 57), (90, 0.7, 63), (90, 0.1, 9)):
            cfg = pipeline.load_config({**MINI_CONFIG, "eval": {"holdout_frac": frac}})
            log = [types.SimpleNamespace(request_id=f"r{i:03d}") for i in reversed(range(n))]
            assert held_out_ids(cfg, log) == [f"r{i:03d}" for i in range(n - n_eval, n)]

    @pytest.mark.parametrize("cmd", ["eval", "align"])
    def test_another_holdout_than_the_model_was_trained_with_exits_1(self, read_run, tmp_path,
                                                                     monkeypatch, capsys, cmd):
        # at 0.3 the eval split would hold requests the model was trained on
        _, data, out = read_run
        checkpoint = os.path.join(data, "checkpoint.json")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(with_leaf("eval.holdout_frac", 0.3)))

        def assemble_samples(*args):
            raise AssertionError(f"{cmd} split the log at 0.3")

        monkeypatch.setattr(pipeline, "assemble_samples", assemble_samples)
        assert run([cmd, "--config", str(cfg_path), "--data-dir", data, "--out", out]) == 1
        assert (f"sidforge: error: {checkpoint}: the model was trained with eval.holdout_frac "
                f"0.1, but the config gives 0.3" in capsys.readouterr().err)
        assert json.loads(pathlib.Path(checkpoint).read_text())["meta"]["holdout_frac"] == 0.1

    @pytest.mark.parametrize("cmd", ["eval", "align"])
    def test_another_behavior_length_than_the_model_was_trained_with_exits_1(
            self, read_run, tmp_path, monkeypatch, capsys, cmd):
        # at 1 every sample would be conditioned on a shorter history than in training
        _, data, out = read_run
        checkpoint = os.path.join(data, "checkpoint.json")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(with_leaf("scorer.max_behavior_len", 1)))

        def assemble_samples(*args):
            raise AssertionError(f"{cmd} assembled samples at max_behavior_len 1")

        monkeypatch.setattr(pipeline, "assemble_samples", assemble_samples)
        assert run([cmd, "--config", str(cfg_path), "--data-dir", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"sidforge: error: {checkpoint}: the model was trained with scorer.max_behavior_len "
            f"8, but the config gives 1, which truncates each request's behavior differently\n")
        assert json.loads(pathlib.Path(checkpoint).read_text())["meta"]["max_behavior_len"] == 8

    @pytest.mark.parametrize("cmd", ["eval", "align"])
    def test_checkpoint_without_the_trained_holdout_exits_1(self, read_run, capsys, cmd):
        config, data, out = read_run
        checkpoint = os.path.join(data, "checkpoint.json")

        def edit(lines):
            doc = json.loads(lines[0])
            doc["meta"].pop("holdout_frac", None)
            return [json.dumps(doc)]

        with rewritten(checkpoint, edit):
            assert run([cmd, "--config", config, "--data-dir", data, "--out", out]) == 1
        assert f"{checkpoint}: meta has no holdout_frac" in capsys.readouterr().err

    @pytest.mark.parametrize("frac", [-0.1, 1.0, 1.5, float("nan")])
    def test_holdout_frac_outside_unit_interval_is_rejected(self, tmp_path, frac, capsys):
        with pytest.raises(pipeline.ConfigError, match=r"eval\.holdout_frac"):
            pipeline.load_config({**MINI_CONFIG, "eval": {"holdout_frac": frac}})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**MINI_CONFIG, "eval": {"holdout_frac": frac}}))
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "eval.holdout_frac" in capsys.readouterr().err


def trained_inputs(cfg, out_dir):
    """(params after train_model, train_set, log, paths, space) for ``cfg``."""
    corp, log = pipeline.gen_data(cfg, out_dir)
    rq = pipeline.run_quantizer(cfg, corp)
    space, paths = pipeline.build_sequences(cfg, corp, rq.sids)
    train_set, _ = pipeline.assemble_samples(cfg, corp, log, space, paths)
    params, _ = pipeline.train_model(cfg, pipeline.init_model(cfg, corp, space), train_set)
    return params, train_set, log, paths, space


def test_samples_of_one_request_share_its_reward_metrics(tmp_path):
    cfg = pipeline.load_config(MINI_CONFIG)
    corp, log = pipeline.gen_data(cfg, str(tmp_path))
    space, paths = pipeline.build_sequences(cfg, corp, pipeline.run_quantizer(cfg, corp).sids)
    train_set, eval_set = pipeline.assemble_samples(cfg, corp, log, space, paths)
    samples = train_set + eval_set
    assert len({s.request_id for s in samples}) < len(samples)  # a request with several
    metrics = {r.request_id: r.reward_metrics for r in log}
    assert all(s.metrics is metrics[s.request_id] for s in samples)


class TestTrainingLoop:
    def test_align_batch_i_reads_the_wrapping_pair_cursor(self, tmp_path, monkeypatch):
        cfg = pipeline.load_config({**MINI_CONFIG, "align": {**MINI_CONFIG["align"],
                                                             "epochs": 3, "batch_size": 20}})
        params, train_set, log, paths, space = trained_inputs(cfg, str(tmp_path / "data"))
        built, build = [], alignment.build_dpo_pairs
        calls, joint = [], alignment.joint_loss

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def recording_joint(batch, pair_batch, *args, **kwargs):
            calls.append((batch, pair_batch))
            return joint(batch, pair_batch, *args, **kwargs)

        monkeypatch.setattr(alignment, "build_dpo_pairs", recording_build)
        monkeypatch.setattr(alignment, "joint_loss", recording_joint)
        _, trace = pipeline.align_model(cfg, params, train_set, log, paths, space)
        (pairs,) = built
        assert (len(train_set), len(pairs)) == (78, 144)
        assert len(calls) == len(trace) == 12  # 4 batches per epoch, 3 epochs
        for i, (batch, pair_batch) in enumerate(calls):
            want_batch = train_set[20 * (i % 4):][:20]
            want_pairs = pairs[(20 * i) % 144:][:20]
            assert len(batch) == len(want_batch) and all(
                a is b for a, b in zip(batch, want_batch)), i
            assert len(pair_batch) == len(want_pairs) and all(
                a is b for a, b in zip(pair_batch, want_pairs)), i
        assert [len(p) for _, p in calls][7] == 4  # pairs[140:160] is cut short by the wrap

    def test_only_train_reaches_ntp_through_the_train_epoch_default(self, tmp_path,
                                                                    monkeypatch):
        # the benchmark times scorer.ntp_loss_and_grad by wrapping this default
        cfg = pipeline.load_config(MINI_CONFIG)
        names = list(inspect.signature(scorer.train_epoch).parameters)
        defaults = scorer.train_epoch.__defaults__
        index = names.index("loss_and_grad") - (len(names) - len(defaults))
        sizes, ntp = [], defaults[index]

        def counting(batch, params):
            sizes.append(len(batch))
            return ntp(batch, params)

        monkeypatch.setattr(scorer.train_epoch, "__defaults__",
                            defaults[:index] + (counting,) + defaults[index + 1:])
        params, train_set, log, paths, space = trained_inputs(cfg, str(tmp_path / "data"))
        assert sizes == [16, 16, 16, 16, 14]  # 78 samples, batch_size 16, 1 epoch
        _, trace = pipeline.align_model(cfg, params, train_set, log, paths, space)
        assert len(trace) == 5
        assert len(sizes) == 5

    def test_align_refuses_an_empty_train_split_unless_it_is_off(self, tmp_path, monkeypatch):
        cfg = pipeline.load_config(MINI_CONFIG)
        params, train_set, log, paths, space = trained_inputs(cfg, str(tmp_path / "data"))
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            pipeline.align_model(cfg, params, [], log, paths, space)
        off = pipeline.load_config(with_leaf("align.epochs", 0))
        before = {n: a.tobytes() for n, a in params.tensors.items()}
        built, build = [], alignment.build_dpo_pairs

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(alignment, "build_dpo_pairs", recording_build)
        for split in ([], train_set):  # off, it does no alignment work at all
            aligned, trace = pipeline.align_model(off, params, split, log, paths, space)
            assert (built, trace) == ([], [])
            assert {n: a.tobytes() for n, a in aligned.tensors.items()} == before


    def test_align_with_dpo_and_no_preference_pair_exits_1(self, tmp_path, capsys):
        # one event per request gives no pair; without DPO, align runs on RFT alone
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(with_leaf("corpus.events_per_request", 1)))
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs", "train"):
            assert run([cmd, "--config", str(cfg_path), "--out", out]) == 0, cmd
        capsys.readouterr()
        assert run(["align", "--config", str(cfg_path), "--out", out]) == 1
        assert capsys.readouterr().err == (
            "sidforge: error: align.lambda_dpo is 0.15, but the training requests give no "
            "preference pair; set it to 0 to align without DPO\n")
        assert not os.path.exists(os.path.join(out, "aligned_checkpoint.json"))
        assert run(["align", "--config", str(cfg_path), "--out", out, "--lambda-dpo", "0"]) == 0

    def test_align_exits_1_when_the_loss_is_not_finite(self, read_run, capsys):
        config, data, out = read_run
        checkpoint = os.path.join(data, "checkpoint.json")

        def edit(lines):
            # every l2 target but index 0 gets the log-softmax -2e308 = -inf
            doc = json.loads(lines[0])
            bias = np.full_like(stored(doc, "head_b_1"), -1e308)
            bias[0] = 1e308
            doc["tensors"]["head_b_1"] = f8le(bias)
            return [json.dumps(doc)]

        with rewritten(checkpoint, edit), warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow to -inf must not print either
            assert run(["align", "--config", config, "--data-dir", data, "--out", out,
                        "--lambda-dpo", "0"]) == 1
        assert capsys.readouterr().err == "sidforge: error: non-finite loss at batch 0\n"

    @pytest.mark.parametrize("lr, cmd", [(1e300, "train"), (1e30, "align")])
    def test_a_diverging_step_ends_in_one_diagnostic_line(self, tmp_path, capsys, lr, cmd):
        # train.lr 1e300 overflows the first training step; a model trained at 1e30
        # overflows the first step of align
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(with_leaf("train.lr", lr)))
        out = str(tmp_path / "run")
        for step in ("gen-data", "quantize", "build-seqs", "train")[:4 if cmd == "align" else 3]:
            assert run([step, "--config", str(cfg_path), "--out", out]) == 0, step
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings must not print
            assert run([cmd, "--config", str(cfg_path), "--out", out]) == 1
        assert capsys.readouterr().err == (
            "sidforge: error: non-finite logits in tensor head_w_1 at step 1\n")


    def test_the_train_line_stays_short_when_the_loss_is_huge(self, tmp_path, capsys):
        # train.lr 1e30 ends at a finite loss near 1e217, which :.4f printed in full
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(with_leaf("train.lr", 1e30)))
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs", "train"):
            assert run([cmd, "--config", str(cfg_path), "--out", out]) == 0, cmd
        line = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"trained on \d+ samples; engagement-weighted loss "
                            r"\d+\.\d+ -> \d\.\d+e\+\d+", line), line
        assert len(line) < 100


class TestRunSpace:
    """align, eval and decode run a checkpoint only over the token space it was trained on."""

    def test_sequences_rebuilt_over_another_attr_chain_exit_1(self, tmp_path, capsys):
        trained, rebuilt = tmp_path / "trained.json", tmp_path / "rebuilt.json"
        trained.write_text(json.dumps(with_leaf("tokenizer.attr_chain", ["l3", "seller"])))
        rebuilt.write_text(json.dumps(with_leaf("tokenizer.attr_chain", ["seller", "l3"])))
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs", "train"):
            assert run([cmd, "--config", str(trained), "--out", out]) == 0, cmd
        assert run(["build-seqs", "--config", str(rebuilt), "--out", out]) == 0
        space, checkpoint = os.path.join(out, "space.json"), os.path.join(out, "checkpoint.json")
        # both fields hold 4 values, so every rebuilt token lies in the model's ranges
        assert (pipeline.load_space(space).step_vocab_sizes.tolist()
                == load_checkpoint(checkpoint).space.step_vocab_sizes.tolist() == [4, 4, 4, 4])
        for cmd in ("align", "eval", "decode"):
            capsys.readouterr()
            assert run([cmd, "--config", str(rebuilt), "--out", out]) == 1, cmd
            assert capsys.readouterr().err == (
                f"sidforge: error: {space}: attr_chain ('seller', 'l3') is not the "
                f"('l3', 'seller') that {checkpoint} was trained with\n"), cmd
        assert not os.path.exists(os.path.join(out, "aligned_checkpoint.json"))


class TestAblationHarness:
    def test_identical_arms_identical_reports(self, tmp_path):
        cfg = pipeline.load_config(MINI_CONFIG)
        corp, log = pipeline.gen_data(cfg, out_dir=str(tmp_path / "data"))
        r1 = pipeline.ablation_run(cfg, corp, log, [("l2", "l3")], ["capacity"])
        r2 = pipeline.ablation_run(cfg, corp, log, [("l2", "l3")], ["capacity"])
        (k1,), (k2,) = r1.keys(), r2.keys()
        assert k1 == k2
        assert r1[k1].as_dict() == r2[k2].as_dict()

    def test_arm_metadata_says_the_arm_is_unaligned(self, tmp_path, config_path):
        data = str(tmp_path / "data")
        assert run(["gen-data", "--config", config_path, "--out", data]) == 0
        out = tmp_path / "out"
        assert run(["ablate", "--config", config_path, "--data-dir", data, "--out", str(out),
                    "--chains", '[["l2","l3"]]', "--methods", "baseline"]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        assert doc["baseline:l2>l3"]["metadata"]["arm"] == "baseline:l2>l3"
        assert doc["baseline:l2>l3"]["metadata"]["aligned"] is False

    @pytest.mark.parametrize("chains", ["[1]", '"l2"', '[["l2", 3]]', '[["colour"]]', "[[",
                                        '{"l2": []}'])
    def test_chains_must_be_a_list_of_lists_of_attribute_names(self, tmp_path, config_path,
                                                               capsys, chains):
        data = str(tmp_path / "data")
        assert run(["gen-data", "--config", config_path, "--out", data]) == 0
        capsys.readouterr()
        assert run(["ablate", "--config", config_path, "--data-dir", data,
                    "--out", str(tmp_path / "out"), "--chains", chains]) == 1
        assert "--chains must be a JSON list of lists of attribute names" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInputOrder:
    """Reordering the lines of items.jsonl and interactions.jsonl changes no artifact."""

    def test_purchase_alphas_do_not_depend_on_the_order_of_the_items(self, tmp_path):
        cfg = pipeline.load_config(MINI_CONFIG)
        corp, log = pipeline.gen_data(cfg, str(tmp_path))
        space, paths = pipeline.build_sequences(cfg, corp, pipeline.run_quantizer(cfg, corp).sids)
        perm = np.random.default_rng(3).permutation(len(corp))
        shuffled = ItemCorpus(items=[corp.items[i] for i in perm], d_emb=corp.d_emb)
        assert shuffled == corp
        synth = dataclasses.replace(cfg.corpus, seed=cfg.seed)
        assert generate_interactions(shuffled, synth) == log
        want = pipeline.assemble_samples(cfg, corp, log, space, paths)
        got = pipeline.assemble_samples(cfg, shuffled, log, space, paths)
        assert any(s.alpha != 1.0 for s in want[0] + want[1])
        for split_want, split_got in zip(want, got):
            assert [s.alpha.hex() for s in split_got] == [s.alpha.hex() for s in split_want]

    def test_shuffled_input_lines_give_the_same_artifacts(self, tmp_path, config_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["gen-data", "--config", config_path, "--out", str(first)]) == 0
        shutil.copytree(first, second)
        rng = np.random.default_rng(3)
        for name in ("items.jsonl", "interactions.jsonl"):
            lines = (first / name).read_text().splitlines(keepends=True)
            (second / name).write_text("".join(lines[i] for i in rng.permutation(len(lines))))
            assert (second / name).read_text() != (first / name).read_text()
        before = set(os.listdir(first))
        for run_dir in (first, second):
            for cmd in ("quantize", "analyze", "build-seqs", "train", "align", "decode", "eval",
                        "ablate"):
                assert run([cmd, "--config", config_path, "--out", str(run_dir)]) == 0, cmd
        written = set(os.listdir(first)) - before
        assert set(os.listdir(second)) - before == written == {
            "codebook.json", "sids.jsonl", "sids.jsonl.meta.json", "analysis.json",
            "sequences.jsonl", "sequences.jsonl.meta.json", "space.json", "checkpoint.json",
            "aligned_checkpoint.json", "candidates.jsonl", "candidates.jsonl.meta.json",
            "report.json", "ablation.json"}
        for name in sorted(written):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


# the CLI command that reads each JSONL artifact, in a run directory that
# has every input of all four
READERS = {"items.jsonl": "quantize", "interactions.jsonl": "align",
           "sids.jsonl": "build-seqs", "sequences.jsonl": "train"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def read_run(tmp_path_factory):
    """(config path, data dir, out dir) of a MINI_CONFIG run through train."""
    base = tmp_path_factory.mktemp("read-run")
    config = base / "config.json"
    config.write_text(json.dumps(MINI_CONFIG))
    data = str(base / "data")
    for cmd in ("gen-data", "quantize", "build-seqs", "train"):
        assert run([cmd, "--config", str(config), "--out", data]) == 0
    return str(config), data, str(base / "out")


@contextlib.contextmanager
def rewritten(path, edit):
    """``path`` holds the lines ``edit(lines)`` inside the block, then its own again."""
    original = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        pathlib.Path(path).write_text("\n".join(edit(original.splitlines())) + "\n",
                                      encoding="utf-8")
        yield
    finally:
        pathlib.Path(path).write_text(original, encoding="utf-8")


def run_on_edited_line(read_run, artifact, line_no, edit, cmd=None):
    """Run ``cmd``, by default the reader of ``artifact``, with ``edit(obj)`` applied to
    line ``line_no`` (0-based); the file is restored afterwards.  Returns (exit status,
    stderr)."""
    config, data, out = read_run

    def edit_line(lines):
        obj = json.loads(lines[line_no])
        edit(obj)
        return lines[:line_no] + [json.dumps(obj)] + lines[line_no + 1:]

    err = io.StringIO()
    with (rewritten(os.path.join(data, artifact), edit_line), contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        rc = run([cmd or READERS[artifact], "--config", config, "--data-dir", data,
                  "--out", out])
    return rc, err.getvalue()


class TestJsonlReaders:
    @pytest.mark.parametrize("artifact, key, value, message", [
        ("sids.jsonl", "sid", ["a", 1, 2], "line 2: sid code must be an integer, got 'a'"),
        ("sids.jsonl", "item_id", "x", "line 2: item_id must be an integer, got 'x'"),
        ("sids.jsonl", "item_id", 99999, "item_id 99999 has a SID but is not in the corpus"),
        ("interactions.jsonl", "request_id", 5, "line 2: request_id must be a string, got 5"),
        ("interactions.jsonl", "reward_metrics", {"gmv": "x", "watch_time": 1.0},
         "line 2: reward metric 'gmv' must be a finite number, got 'x'"),
        ("interactions.jsonl", "reward_metrics", {"gmv": 1.0},
         "line 2: request r000001: reward_metrics must have the keys ['gmv', 'watch_time'], "
         "got ['gmv']"),
        ("interactions.jsonl", "scene", "nowhere", "line 2: request r000001: unknown task"),
        ("items.jsonl", "item_id", 0.5, "line 2: item_id must be an integer, got 0.5"),
        ("sequences.jsonl", "path", ["a", "b", 1, 2, 3],
         "line 2: path token must be an integer, got 'a'"),
        ("sequences.jsonl", "path", [0, 0, 0, 0, 0],
         "line 2: path has 5 tokens, space expects 4"),
        ("sequences.jsonl", "path", [0, 0, 9, 0], "line 2: token 9 out of range at step 3"),
        ("items.jsonl", "item_id", 100000,
         "item_id 100000 is outside 0..59; the ids must number the items"),
        ("interactions.jsonl", "request_id", "r000002", "line 3: repeated request_id r000002"),
        ("sequences.jsonl", "item_id", 99999,
         "item_id 99999 has a sequence but is not in the corpus"),
    ])
    def test_bad_field_exits_1_naming_the_file(self, read_run, artifact, key, value, message):
        rc, err = run_on_edited_line(read_run, artifact, 1, lambda obj: obj.update({key: value}))
        assert rc == 1
        assert f"{artifact}: {message}" in err

    def test_train_refuses_a_request_without_a_reward_metric(self, read_run, capsys):
        config, data, out = read_run
        path = os.path.join(data, "interactions.jsonl")

        def edit(lines):
            obj = json.loads(lines[1])
            del obj["reward_metrics"]["watch_time"]
            return lines[:1] + [json.dumps(obj)] + lines[2:]

        with rewritten(path, edit):
            assert run(["train", "--config", config, "--data-dir", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"sidforge: error: {path}: line 2: request r000001: reward_metrics must have the "
            f"keys ['gmv', 'watch_time'], got ['gmv']\n")

    def test_integer_too_long_to_parse_names_file_and_line(self, tmp_path):
        path = tmp_path / "sids.jsonl"
        path.write_text('{"item_id": 0, "sid": [1]}\n{"item_id": ' + "9" * 5000 + "}\n")
        with pytest.raises(ValueError, match="sids.jsonl: line 2: malformed JSON"):
            load_sids(str(path))

    def test_event_item_outside_the_corpus_names_the_request(self, read_run):
        def edit(obj):
            obj["events"][0]["item_id"] = 99999

        rc, err = run_on_edited_line(read_run, "interactions.jsonl", 1, edit)
        assert rc == 1
        assert "interactions.jsonl: request 'r000001': item_id 99999 is not in " in err
        assert err.rstrip().endswith("items.jsonl")

    @pytest.mark.parametrize("artifact", sorted(READERS))
    def test_any_one_replaced_field_exits_0_or_1_naming_the_file(self, read_run, artifact):
        with open(os.path.join(read_run[1], artifact), encoding="utf-8") as fh:
            n_lines = len(fh.read().splitlines())

        @settings(max_examples=100, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def replace_one_field(data):
            line_no = data.draw(st.integers(0, n_lines - 1))
            value = data.draw(json_values)

            def edit(obj):
                obj[data.draw(st.sampled_from(sorted(obj)))] = value

            rc, err = run_on_edited_line(read_run, artifact, line_no, edit)
            assert rc in (0, 1)
            if rc == 1:
                assert artifact in err

        replace_one_field()


def _event(index, **fields):
    """An edit that updates event ``index`` of a request with ``fields``."""
    return lambda obj: obj["events"][index].update(fields)


class TestRecordRefusals:
    """Records that the generator never writes are refused by the command that reads them."""

    @pytest.mark.parametrize("cmd, artifact, line_no, edit, message", [
        ("quantize", "items.jsonl", 1, lambda obj: obj["attrs"].update(l3="L3_1"),
         "items.jsonl: l3 'L3_1' maps to more than one l2"),
        ("quantize", "items.jsonl", 1, lambda obj: obj.update(embedding=obj["embedding"][:5]),
         "items.jsonl: item 1 embedding has shape (5,), expected (6,)"),
        ("train", "interactions.jsonl", 1, _event(1, exposure_rank=1),
         "interactions.jsonl: line 2: request r000001: duplicate exposure_ranks"),
        ("train", "interactions.jsonl", 1, _event(0, level=3),
         "interactions.jsonl: line 2: request r000001: bad level 3"),
        ("train", "interactions.jsonl", 1, _event(0, exposure_rank=0),
         "interactions.jsonl: line 2: request r000001: exposure_rank must be >= 1"),
    ], ids=["taxonomy", "embedding-width", "duplicate-rank", "level", "rank-below-1"])
    def test_edited_record_exits_1_naming_the_file(self, read_run, cmd, artifact, line_no,
                                                    edit, message):
        rc, err = run_on_edited_line(read_run, artifact, line_no, edit, cmd)
        assert rc == 1
        assert err == f"sidforge: error: {os.path.join(read_run[1], message)}\n"


class TestItemCoverage:
    """A stage that reads items.jsonl refuses SIDs or sequences for a subset of
    the items, instead of running on that subset."""

    def test_build_sequences_refuses_sids_for_part_of_the_corpus(self, tmp_path):
        cfg = pipeline.load_config(MINI_CONFIG)
        corp, _ = pipeline.gen_data(cfg, str(tmp_path))
        sids = pipeline.run_quantizer(cfg, corp).sids
        with pytest.raises(ValueError, match="^item_id 7 of the corpus has no SID$"):
            pipeline.build_sequences(cfg, corp, [s for s in sids if s.item_id != 7])

    @pytest.mark.parametrize("leaf, edit, message", [
        (None, lambda obj: obj.update(sid=[9] + obj["sid"][1:]),
         "sid code 9 out of range at layer 0"),
        ("quantizer.n_layers", None, "sid has 2 layers, space expects 3"),
    ], ids=["code-out-of-range", "layer-count"])
    def test_analyze_refuses_sids_that_do_not_fit_the_space(self, read_run, tmp_path, capsys,
                                                           leaf, edit, message):
        config, data, out = read_run
        if leaf:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(with_leaf(leaf, 3)))

        def edit_first(lines):
            obj = json.loads(lines[0])
            edit(obj)
            return [json.dumps(obj)] + lines[1:]

        path = os.path.join(data, "sids.jsonl")
        capsys.readouterr()
        with rewritten(path, edit_first if edit else list):
            assert run(["analyze", "--config", str(config), "--data-dir", data, "--out", out]) == 1
        assert capsys.readouterr().err == f"sidforge: error: {path}: {message}\n"

    def test_sids_must_give_every_item_a_sid(self, read_run, capsys):
        config, data, out = read_run
        path = os.path.join(data, "sids.jsonl")
        with rewritten(path, lambda lines: lines[:30]):
            for cmd in ("build-seqs", "analyze"):
                capsys.readouterr()
                assert run([cmd, "--config", config, "--data-dir", data, "--out", out]) == 1
                assert f"{path}: item_id 30 of the corpus has no SID" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:30], "item_id 30 of the corpus has no sequence"),
        (lambda lines: lines + [json.dumps({**json.loads(lines[0]), "item_id": 60})],
         "item_id 60 has a sequence but is not in the corpus"),
    ], ids=["missing", "extra"])
    def test_sequences_must_be_those_of_the_items(self, read_run, capsys, edit, message):
        config, data, out = read_run
        path = os.path.join(data, "sequences.jsonl")
        with rewritten(path, edit):
            for cmd in ("train", "align", "eval"):
                capsys.readouterr()
                assert run([cmd, "--config", config, "--data-dir", data, "--out", out]) == 1
                assert f"{path}: {message}" in capsys.readouterr().err, cmd


DOCUMENT_READERS = {"checkpoint.json": "decode", "space.json": "train"}


def run_on_edited_document(read_run, artifact, edit):
    """Read ``artifact`` of the read run after ``edit(doc)`` with its CLI reader.
    The file is restored afterwards.  Returns (exit status, stderr)."""
    config, data, out = read_run
    path = os.path.join(data, artifact)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    doc = json.loads(original)
    edit(doc)
    err = io.StringIO()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run([DOCUMENT_READERS[artifact], "--config", config, "--data-dir", data,
                      "--out", out])
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    return rc, err.getvalue()


def _set(path, value):
    """An edit that sets the field at the key ``path`` of a document to ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _renumber(attr, index, number):
    """An edit that numbers the ``attr`` value of index ``index`` as ``number``."""
    def edit(doc):
        vocab = doc["space"]["attr_vocabs"][attr]
        vocab.update({value: number for value, i in vocab.items() if i == index})
    return edit


def _negative_prefix_window(doc):
    """prefix_window -1, with each head cut to the input width that it gives."""
    config = doc["config"]
    width = (config["prefix_window"] + 1) * config["d_model"]
    config["prefix_window"] = -1
    for name in [n for n in doc["tensors"] if n.startswith("head_w_")]:
        doc["tensors"][name] = f8le(stored(doc, name)[:, :-width])


# the fields whose own fields (or, for a list, entries) the fuzz also replaces,
# each given by its key path
NESTED = {"checkpoint.json": (("config",), ("space",), ("hash_spec",), ("tensors",),
                              ("tensors", "attn_wq"), ("tensors", "attn_gamma")),
          "space.json": ()}


class TestJsonDocuments:
    def test_every_document_has_sorted_keys_and_loads_back(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "analyze", "build-seqs", "train", "align", "decode",
                    "eval", "ablate"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0, cmd
        pipeline.run_pipeline(pipeline.load_config(MINI_CONFIG), str(tmp_path / "pipeline"))
        found = set()
        for run_dir in (out, str(tmp_path / "pipeline")):
            for name in sorted(os.listdir(run_dir)):
                if not name.endswith(".json"):
                    continue
                found.add(name)
                path = os.path.join(run_dir, name)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                doc = json.loads(text)
                assert text == json.dumps(doc, sort_keys=True), name
                again = str(tmp_path / "again.json")
                if name.endswith("checkpoint.json"):
                    save_checkpoint(load_checkpoint(path), again, meta=doc["meta"])
                elif name == "space.json":
                    write_json(again, {"space": pipeline.load_space(path).as_dict(),
                                       "meta": doc["meta"]})
                else:
                    continue
                with open(again, encoding="utf-8") as fh:
                    assert fh.read() == text, name
        assert found >= {"codebook.json", "space.json", "checkpoint.json",
                         "aligned_checkpoint.json", "report.json", "analysis.json",
                         "ablation.json", "items.jsonl.meta.json", "sids.jsonl.meta.json",
                         "sequences.jsonl.meta.json", "candidates.jsonl.meta.json"}

    # the ids number the rows (path0, path1, ...): a new case goes at the end or in the
    # place of a removed one, so that the ids of the other rows stay
    @pytest.mark.parametrize("artifact, path, value, message", [
        ("space.json", (), lambda doc: doc.pop("meta"), "missing space field(s) ['meta']"),
        ("checkpoint.json", (), lambda doc: doc["tensors"].pop("head_w_2"),
         "missing tensor(s) ['head_w_2']"),
        ("checkpoint.json", ("tensors", "attn_wq", "shape"), [4, 16],
         "tensor 'attn_wq' has shape [4, 16], expected [8, 8]"),
        ("checkpoint.json", ("x",), 1, "unknown checkpoint field(s) ['x']"),
        ("checkpoint.json", ("config", "seed"), "x",
         "malformed checkpoint (config.seed must be an integer, got 'x')"),
        ("checkpoint.json", ("hash_spec", "pairs"), [[1, 9]],
         "malformed checkpoint (step 9 out of range 1..4)"),
        ("checkpoint.json", ("hash_spec", "p1"), 10**30,
         "malformed checkpoint (p1 and p2 must differ and lie in 1..2**31 - 1)"),
        ("checkpoint.json", ("tensors", "attn_wq"), f8le(np.full((8, 8), np.nan)),
         "malformed checkpoint (tensor 'attn_wq' must hold finite numbers)"),
        ("space.json", ("x",), 1, "unknown space field(s) ['x']"),
        ("space.json", ("space", "attr_vocabs", "l2"), {"a": 0, "b": 0},
         "malformed space (l2 vocabulary must number its values 0..1)"),
        ("space.json", ("space", "objectives"), ["click"], "malformed space (the task registry"),
        ("space.json", ("space", "sid_sizes"), [4, 20000],
         "sid_sizes (4, 20000) is not the (4, 4) that the config and items.jsonl give"),
        ("space.json", ("space", "attr_chain"), ["l3"], "attr_chain ('l3',) is not the"),
        ("checkpoint.json", ("frozen",), ["not", "a", "tensor"],
         "malformed checkpoint (frozen must be ['attn_wq', 'attn_wk', 'attn_wv', 'attn_gamma'], "
         "got ['not', 'a', 'tensor'])"),
        ("checkpoint.json", ("tensors", "attn_wq", "f8le"), "AAAA*AAAA",
         "malformed checkpoint (tensor 'attn_wq' f8le is not base64"),
        ("checkpoint.json", ("tensors", "attn_wq", "f8le"), f8le(0.0)["f8le"],
         "malformed checkpoint (tensor 'attn_wq' f8le holds 8 bytes, shape [8, 8] needs 512)"),
        ("checkpoint.json", (), lambda doc: doc.pop("format"), "no format field"),
        ("checkpoint.json", (), to_nested_lists,
         "no format field, as in the nested-list checkpoints of earlier versions"),
        ("space.json", ("space", "sid_sizes"), [4, 10**20],
         "malformed space (sid_sizes must be positive and all steps hold < 2**31 tokens"),
        ("checkpoint.json", ("space", "sid_sizes"), [4, 10**20],
         "malformed checkpoint (sid_sizes must be positive and all steps hold < 2**31 tokens"),
        ("space.json", (), _renumber("l2", 1, True),
         "malformed space (l2 vocabulary index must be an integer, got True)"),
        ("checkpoint.json", (), _renumber("l3", 2, 2.0),
         "malformed checkpoint (l3 vocabulary index must be an integer, got 2.0)"),
        ("checkpoint.json", (), _negative_prefix_window,
         "malformed checkpoint (config.prefix_window must be >= 0, got -1)"),
    ])
    def test_bad_field_exits_1_naming_the_file(self, read_run, artifact, path, value, message):
        """A callable ``value`` edits the whole document."""
        edit = value if callable(value) else _set(path, value)
        rc, err = run_on_edited_document(read_run, artifact, edit)
        assert rc == 1
        assert f"{artifact}: {message}" in err

    def test_integer_too_long_to_parse_names_the_file(self, read_run, tmp_path, capsys):
        config, data, out = read_run
        path = os.path.join(data, "checkpoint.json")
        with open(path, encoding="utf-8") as fh:
            original = fh.read()
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace('"seed": 5', '"seed": ' + "9" * 5000, 1))
            capsys.readouterr()
            assert run(["decode", "--config", config, "--data-dir", data, "--out", out]) == 1
            assert "checkpoint.json: malformed JSON (Exceeds the limit" in capsys.readouterr().err
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original)
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": ' + "9" * 5000 + "}")
        assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "bad.json: malformed JSON (Exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", ["sids.jsonl", "sequences.jsonl"])
    def test_repeated_item_id_names_file_and_line(self, read_run, artifact):
        rc, err = run_on_edited_line(read_run, artifact, 1, lambda obj: obj.update(item_id=0))
        assert rc == 1
        assert f"{artifact}: line 2: repeated item_id 0" in err

    def test_embedding_whose_distances_overflow_names_the_item(self, read_run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_on_edited_line(read_run, "items.jsonl", 1,
                                         lambda obj: obj.update(embedding=[1e308] * 6))
        assert rc == 1
        assert "items.jsonl: item_id 1: embedding values above " in err

    @pytest.mark.parametrize("artifact", sorted(NESTED))
    def test_any_one_replaced_field_exits_0_or_1_naming_the_file(self, read_run, artifact):
        with open(os.path.join(read_run[1], artifact), encoding="utf-8") as fh:
            doc = json.load(fh)
        paths = [(key,) for key in sorted(doc)]
        for keys in NESTED[artifact]:
            inner = functools.reduce(operator.getitem, keys, doc)
            paths += [(*keys, k) for k in (sorted(inner) if isinstance(inner, dict)
                                            else range(len(inner)))]

        @settings(max_examples=50, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.sampled_from(paths), json_values)
        def replace_one_field(path, value):
            rc, err = run_on_edited_document(read_run, artifact, _set(path, value))
            assert rc in (0, 1)
            if rc == 1:
                assert artifact in err

        replace_one_field()
