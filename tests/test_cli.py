"""End-to-end CLI subcommand tests on a miniature run configuration."""

import contextlib
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sidforge import alignment, pipeline
from sidforge.cli import main
from sidforge.corpus import (
    CorpusFormatError,
    Item,
    ItemCorpus,
    load_interactions,
    load_items,
    save_items,
    write_json,
)
from sidforge.quantizer import load_codebook, load_sids, save_codebook
from sidforge.scorer import load_checkpoint, save_checkpoint

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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return str(path)


def run(args):
    return main(args)


class TestPipelineSmoke:
    def test_full_subcommand_chain(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        assert run(["gen-data", "--config", config_path, "--out", out]) == 0
        assert run(["quantize", "--config", config_path, "--out", out]) == 0
        assert run(["analyze", "--config", config_path, "--out", out]) == 0
        assert run(["build-seqs", "--config", config_path, "--out", out]) == 0
        assert run(["train", "--config", config_path, "--out", out]) == 0
        assert run(["align", "--config", config_path, "--out", out]) == 0
        assert run(["decode", "--config", config_path, "--out", out,
                    "--task", "click:main_feed"]) == 0
        assert run(["eval", "--config", config_path, "--out", out]) == 0

        for name in ("items.jsonl", "interactions.jsonl", "codebook.json",
                     "sids.jsonl", "sequences.jsonl", "space.json",
                     "checkpoint.json", "aligned_checkpoint.json",
                     "candidates.jsonl", "report.json", "analysis.json"):
            assert os.path.exists(os.path.join(out, name)), name

        corp = load_items(os.path.join(out, "items.jsonl"))
        assert len(corp) == 60
        cb = load_codebook(os.path.join(out, "codebook.json"))
        assert cb.L == 2 and cb.K == 4
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
        assert "cap" in capsys.readouterr().err

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

    def test_codebook_that_is_not_an_object_names_the_file(self, tmp_path):
        codebook = tmp_path / "codebook.json"
        for body, want in (("[1]", "expected a JSON object"), ('{"K": ', "malformed JSON"),
                           ('{"K": 2, "L": 1, "tau": 1.0, "c_cap_per_layer": 3, "layers": [], '
                            '"meta": {}}', "malformed codebook")):
            codebook.write_text(body)
            with pytest.raises(ValueError, match=f"codebook.json: .*{want}"):
                load_codebook(str(codebook))

    def test_sids_line_without_sid_key(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize"):
            assert run([cmd, "--config", config_path, "--out", out]) == 0
        (tmp_path / "run" / "sids.jsonl").write_text('{"item_id": 0}\n')
        capsys.readouterr()
        assert run(["build-seqs", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "sids.jsonl: line 1: missing sid field(s) ['sid']" in err

    def test_sequence_and_codebook_loaders_name_the_missing_key(self, tmp_path):
        seqs = tmp_path / "sequences.jsonl"
        seqs.write_text('{"item_id": 3, "path": [0, 1]}\n{"item_id": 4}\n')
        with pytest.raises(ValueError, match=r"sequences.jsonl: line 2: "
                                             r"missing sequence field\(s\) \['path'\]"):
            pipeline.load_sequences(str(seqs))
        codebook = tmp_path / "codebook.json"
        codebook.write_text('{"layers": []}')
        with pytest.raises(ValueError, match=r"codebook.json: missing codebook field\(s\) \['K'"):
            load_codebook(str(codebook))

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

    def test_build_seqs_does_not_read_the_decode_task(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**MINI_CONFIG, "decode": {"objective": "nope"}}))
        out = str(tmp_path / "run")
        for cmd in ("gen-data", "quantize", "build-seqs"):
            assert run([cmd, "--config", str(config), "--out", out]) == 0, cmd

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

    def test_threads_key_is_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**MINI_CONFIG, "threads": 2}))
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "unknown key(s) ['threads']" in capsys.readouterr().err


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
        ("align", {"dpo_target": "last_sid"}, r"align\.dpo_target must be 'last-sid' or 'all'"),
        ("eval", {"ks": [5, 64]}, r"eval\.ks must .* \[1, eval\.beam_width = 8\], got \[5, 64\]"),
        ("eval", {"ks": [0, 5]}, r"eval\.ks must .* got \[0, 5\]"),
        ("eval", {"ks": []}, r"eval\.ks must be non-empty"),
        ("corpus", {"seed": 3}, r"corpus\.seed 3 is never read"),
        ("tokenizer", {"attr_chain": ["l2", "colour"]},
         r"tokenizer\.attr_chain: unknown attribute\(s\) \['colour'\]"),
    ], ids=["dpo-target", "ks-above-width", "ks-zero", "ks-empty", "corpus-seed", "attr-chain"])
    def test_values_that_would_pass_silently_are_config_errors(self, section, value, match):
        with pytest.raises(pipeline.ConfigError, match=match):
            pipeline.load_config({**MINI_CONFIG, section: {**MINI_CONFIG[section], **value}})

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
        held_out = pipeline.eval_request_ids(cfg, log)
        (pairs,) = built
        assert pairs and held_out
        assert not {p.request_id for p in pairs} & held_out

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
        cfg = pipeline.load_config(MINI_CONFIG)
        _, log = pipeline.gen_data(cfg, str(tmp_path / "data"))
        ids = sorted(r.request_id for r in log)
        assert pipeline.eval_request_ids(cfg, log) == set(ids[-8:])  # 0.10 of 80
        for frac, n_eval in ((0.0, 0), (0.01, 0), (0.05, 4)):
            cfg = pipeline.load_config({**MINI_CONFIG, "eval": {"holdout_frac": frac}})
            assert pipeline.eval_request_ids(cfg, log) == set(ids[len(ids) - n_eval:])

    @pytest.mark.parametrize("frac", [-0.1, 1.0, 1.5, float("nan")])
    def test_holdout_frac_outside_unit_interval_is_rejected(self, tmp_path, frac, capsys):
        with pytest.raises(pipeline.ConfigError, match=r"eval\.holdout_frac"):
            pipeline.load_config({**MINI_CONFIG, "eval": {"holdout_frac": frac}})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**MINI_CONFIG, "eval": {"holdout_frac": frac}}))
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "eval.holdout_frac" in capsys.readouterr().err


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


def run_on_edited_line(read_run, artifact, line_no, edit):
    """Run the reader of ``artifact`` with ``edit(obj)`` applied to line ``line_no``
    (0-based); the file is restored afterwards.  Returns (exit status, stderr)."""
    config, data, out = read_run
    path = os.path.join(data, artifact)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    lines = original.splitlines()
    obj = json.loads(lines[line_no])
    edit(obj)
    lines[line_no] = json.dumps(obj)
    err = io.StringIO()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run([READERS[artifact], "--config", config, "--data-dir", data, "--out", out])
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
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
         "request 'r000001': missing reward metric 'watch_time'"),
        ("interactions.jsonl", "scene", "nowhere", "line 2: request r000001: unknown task"),
        ("items.jsonl", "item_id", 0.5, "line 2: item_id must be an integer, got 0.5"),
        ("sequences.jsonl", "path", ["a", "b", 1, 2, 3],
         "line 2: path token must be an integer, got 'a'"),
        ("sequences.jsonl", "path", [0, 0, 0, 0, 0],
         "line 2: path has 5 tokens, space expects 4"),
        ("sequences.jsonl", "path", [0, 0, 9, 0], "line 2: token 9 out of range at step 3"),
        ("items.jsonl", "item_id", 100000,
         "item_id 100000 is outside 0..59; the ids must number the items"),
    ])
    def test_bad_field_exits_1_naming_the_file(self, read_run, artifact, key, value, message):
        rc, err = run_on_edited_line(read_run, artifact, 1, lambda obj: obj.update({key: value}))
        assert rc == 1
        assert f"{artifact}: {message}" in err

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


DOCUMENT_READERS = {"checkpoint.json": "decode", "space.json": "train"}


def run_on_edited_document(read_run, artifact, edit):
    """Read ``artifact`` of the read run after ``edit(doc)``: with its CLI reader,
    or with ``load_codebook`` for the codebook, which no command reads (exit 1
    for a ``CorpusFormatError``).  The file is restored afterwards.  Returns
    (exit status, stderr)."""
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
        if artifact == "codebook.json":
            try:
                load_codebook(path)
                rc = 0
            except CorpusFormatError as exc:
                rc = 1
                err.write(str(exc))
        else:
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


# the fields whose own fields (or, for a list, entries) the fuzz also replaces
NESTED = {"checkpoint.json": ("config", "space", "hash_spec", "tensors"),
          "codebook.json": ("layers",), "space.json": ()}


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
                elif name == "codebook.json":
                    save_codebook(load_codebook(path), again, meta=doc["meta"])
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

    @pytest.mark.parametrize("artifact, path, value, message", [
        ("codebook.json", ("tau",), 0.5, "malformed codebook (tau must be >= 1)"),
        ("codebook.json", ("layers",), [[[0.0, 0.0]] * 4, [[0.0]] * 4],
         "malformed codebook (layers must be a rectangular array of finite numbers)"),
        ("codebook.json", ("c_cap_per_layer",), "ab",
         "malformed codebook (c_cap_per_layer must be a rectangular array of finite numbers)"),
        ("checkpoint.json", ("x",), 1, "unknown checkpoint field(s) ['x']"),
        ("checkpoint.json", ("config", "seed"), "x",
         "malformed checkpoint (config.seed must be an integer, got 'x')"),
        ("checkpoint.json", ("hash_spec", "pairs"), [[1, 9]],
         "malformed checkpoint (step 9 out of range 1..4)"),
        ("checkpoint.json", ("hash_spec", "p1"), 10**30,
         "malformed checkpoint (p1 and p2 must differ and lie in 1..2**31 - 1)"),
        ("checkpoint.json", ("tensors", "attn_wq"), [[1.0, None]],
         "malformed checkpoint (tensor 'attn_wq' must be a rectangular array of finite numbers)"),
        ("space.json", ("x",), 1, "unknown space field(s) ['x']"),
        ("space.json", ("space", "attr_vocabs", "l2"), {"a": 0, "b": 0},
         "malformed space (l2 vocabulary must number its values 0..1)"),
        ("space.json", ("space", "objectives"), ["click"], "malformed space (the task registry"),
        ("space.json", ("space", "sid_sizes"), [4, 20000],
         "sid_sizes (4, 20000) is not the (4, 4) that the config and items.jsonl give"),
        ("space.json", ("space", "attr_chain"), ["l3"], "attr_chain ('l3',) is not the"),
    ])
    def test_bad_field_exits_1_naming_the_file(self, read_run, artifact, path, value, message):
        rc, err = run_on_edited_document(read_run, artifact, _set(path, value))
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
        for key in NESTED[artifact]:
            inner = doc[key]
            paths += [(key, k) for k in (sorted(inner) if isinstance(inner, dict)
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
