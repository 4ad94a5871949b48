import csv
import io
import json
import math

import pytest

from aglkit.cli import EXIT_ESTIMATION_FAILURE, EXIT_INPUT_ERROR, EXIT_OK, main


def _synth(tmp_path, name="data", seed=3, extra_cfg=""):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_models = 3\n"
                   "n_examples_id = 200\n"
                   "n_examples_ood = 200\n" + extra_cfg)
    out = tmp_path / name
    code = main(["synth", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_synth_writes_expected_tree(tmp_path):
    out = _synth(tmp_path)
    assert (out / "manifest.json").is_file()
    assert (out / "truth.json").is_file()
    assert (out / "id" / "m00.jsonl").is_file()
    assert (out / "ood" / "m02.jsonl").is_file()


def test_synth_rerun_byte_identical(tmp_path):
    a = _synth(tmp_path, "a")
    b = _synth(tmp_path, "b")
    for rel in ("manifest.json", "truth.json", "id/m01.jsonl"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_synth_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_synth_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("diversity = 7\n")
    code = main(["synth", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT_ERROR


def test_validate_ok_and_corrupted(tmp_path, capsys):
    out = _synth(tmp_path)
    manifest = out / "manifest.json"
    assert main(["validate", "--manifest", str(manifest)]) == EXIT_OK
    assert "ok:" in capsys.readouterr().out
    # flip one stored prediction so it disagrees with its logits
    target = out / "id" / "m00.jsonl"
    lines = target.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["predicted"] = (rec["predicted"] + 1) % 4
    lines[1] = json.dumps(rec, sort_keys=True)
    target.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--manifest", str(manifest)]) == EXIT_INPUT_ERROR


def test_validate_missing_manifest(tmp_path):
    assert main(["validate", "--manifest", str(tmp_path / "nope.json")]) \
        == EXIT_INPUT_ERROR


def test_validate_empty_manifest(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": "1", "task": "classification",
                                "metric": "accuracy", "entries": []}))
    assert main(["validate", "--manifest", str(path)]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("entries", [
    [{"split_id": "id", "path": "m.jsonl"}],
    [{"model_id": "m0", "path": "m.jsonl"}],
    [{"model_id": "m0", "split_id": "id"}],
    ["m.jsonl"],
    5,
    [{"model_id": "m0", "split_id": "id", "path": 5}],
    [{"model_id": 0, "split_id": "id", "path": "m.jsonl"}],
    [{"model_id": "m0", "split_id": ["id"], "path": "m.jsonl"}],
])
def test_validate_malformed_manifest_entries(tmp_path, capsys, entries):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": "1", "task": "classification",
                                "metric": "accuracy", "entries": entries}))
    assert main(["validate", "--manifest", str(path)]) == EXIT_INPUT_ERROR
    assert "malformed record" in capsys.readouterr().err


@pytest.mark.parametrize("value, shift", [(math.nan, 0), (math.inf, 0), (-math.inf, 1)])
def test_validate_rejects_non_finite_logits(tmp_path, capsys, value, shift):
    """NaN or +inf at the predicted class (argmax unchanged) and -inf at
    another class are rejected, not passed on to the estimators."""
    out = _synth(tmp_path)
    target = out / "ood" / "m01.jsonl"
    lines = target.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["logits"][(rec["predicted"] + shift) % len(rec["logits"])] = value
    lines[3] = json.dumps(rec, sort_keys=True)
    target.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--manifest", str(out / "manifest.json")]) == EXIT_INPUT_ERROR
    assert "example 2: non-finite logit" in capsys.readouterr().err


def test_estimate_happy_path(tmp_path):
    out = _synth(tmp_path)
    manifest = str(out / "manifest.json")
    report_dir = tmp_path / "report"
    code = main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(report_dir), "--eval", "--scatter"])
    assert code == EXIT_OK
    doc = json.loads((report_dir / "report.json").read_text())
    assert len(doc["per_model"]) == 3
    assert doc["metadata"]["evaluation_mode"] is True
    assert (report_dir / "scatter.csv").is_file()


def test_estimate_scatter_reuses_report_agreement_matrices(tmp_path, monkeypatch):
    """--scatter reads the two matrices the report built instead of rebuilding them."""
    import aglkit.report
    from aglkit.datamodel import load_manifest
    calls = []
    original = aglkit.report.agreement_matrix

    def counted(logs, metric):
        calls.append(metric)
        return original(logs, metric)

    monkeypatch.setattr(aglkit.report, "agreement_matrix", counted)
    manifest = str(_synth(tmp_path) / "manifest.json")
    out = tmp_path / "report"
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(out), "--eval", "--scatter"]) == EXIT_OK
    assert len(calls) == 2
    pair = load_manifest(manifest)
    rows = [r for r in csv.DictReader(io.StringIO((out / "scatter.csv").read_text()))
            if r["kind"] == "agreement"]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for logs, column in ((pair.id_logs, "x_raw"), (pair.ood_logs, "y_raw")):
        values = original(logs, pair.metric).values
        assert [float(r[column]) for r in rows] == [values[i, j] for i, j in pairs]


def test_estimate_deterministic_reports(tmp_path):
    out = _synth(tmp_path)
    manifest = str(out / "manifest.json")
    for name in ("r1", "r2"):
        assert main(["estimate", "--id-manifest", manifest,
                     "--ood-manifest", manifest, "--out", str(tmp_path / name),
                     "--eval"]) == EXIT_OK
    assert (tmp_path / "r1" / "report.json").read_bytes() == \
        (tmp_path / "r2" / "report.json").read_bytes()


def test_estimate_subset_of_methods(tmp_path):
    out = _synth(tmp_path)
    manifest = str(out / "manifest.json")
    report_dir = tmp_path / "subset"
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--methods", "aline-s,naive", "--out", str(report_dir)]) == EXIT_OK
    doc = json.loads((report_dir / "report.json").read_text())
    assert set(doc["per_model"][0]["estimates"]) == {"aline_s", "naive_agreement"}


def test_estimate_unknown_method(tmp_path):
    out = _synth(tmp_path)
    manifest = str(out / "manifest.json")
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--methods", "psychic", "--out", str(tmp_path / "x")]) \
        == EXIT_INPUT_ERROR


def test_estimate_missing_manifest(tmp_path):
    assert main(["estimate", "--id-manifest", str(tmp_path / "no.json"),
                 "--ood-manifest", str(tmp_path / "no.json"),
                 "--out", str(tmp_path / "x")]) == EXIT_INPUT_ERROR


def test_estimate_total_failure_exit_code(tmp_path):
    out = _synth(tmp_path, extra_cfg="", seed=9)
    # rewrite the tree with only 2 models so ALine-D cannot run
    cfg = tmp_path / "two.cfg"
    cfg.write_text("n_models = 2\nn_examples_id = 100\nn_examples_ood = 100\n")
    two = tmp_path / "two"
    assert main(["synth", "--config", str(cfg), "--seed", "1",
                 "--out", str(two)]) == EXIT_OK
    manifest = str(two / "manifest.json")
    code = main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--methods", "aline-d", "--out", str(tmp_path / "fail")])
    assert code == EXIT_ESTIMATION_FAILURE


def test_estimate_does_not_mutate_inputs(tmp_path):
    out = _synth(tmp_path)
    manifest = str(out / "manifest.json")
    before = {p: (out / p).read_bytes()
              for p in ("manifest.json", "id/m00.jsonl", "ood/m02.jsonl")}
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(tmp_path / "rep"), "--eval"]) == EXIT_OK
    for p, blob in before.items():
        assert (out / p).read_bytes() == blob


@pytest.mark.parametrize("config", [b"n_models = \xff\n", b"n_models = abc\n",
                                    b"n_examples_id = 2.5\n", b"diversity = x\n"])
def test_synth_undecodable_or_unparsable_config(tmp_path, capsys, config):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(config)
    assert main(["synth", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("target", ["id/m01.jsonl", "manifest.json"])
def test_validate_input_not_utf8(tmp_path, capsys, target):
    out = _synth(tmp_path)
    path = out / target
    path.write_bytes(path.read_bytes().replace(b'"', b'\xff"', 1))
    assert main(["validate", "--manifest", str(out / "manifest.json")]) == EXIT_INPUT_ERROR
    assert "malformed record" in capsys.readouterr().err


def test_estimate_out_is_an_existing_file(tmp_path, capsys):
    manifest = str(_synth(tmp_path) / "manifest.json")
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("flag, value", [
    ("--clamp-eps", "nan"), ("--clamp-eps", "0.7"), ("--clamp-eps", "0.5"),
    ("--clamp-eps", "0"), ("--clamp-eps", "-0.0001"),
    ("--gate-threshold", "nan"), ("--gate-threshold", "1.5"), ("--gate-threshold", "-0.1"),
])
def test_estimate_rejects_bad_report_options_up_front(tmp_path, capsys, flag, value):
    manifest = str(_synth(tmp_path) / "manifest.json")
    out = tmp_path / "report"
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(out), "--eval", flag, value]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
