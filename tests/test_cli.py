import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import aglkit
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


def test_no_command_or_module_import_loads_scipy_integrate(tmp_path):
    """No aglkit module needs scipy.integrate: importing every module, and
    validating, estimating and synthesizing in a fresh process, leave it
    unloaded."""
    manifest = _synth(tmp_path) / "manifest.json"
    script = (
        "import importlib, pkgutil, sys\n"
        "import aglkit\n"
        "from aglkit.cli import main\n"
        "assert 'scipy.integrate' not in sys.modules, 'import'\n"
        "for mod in pkgutil.iter_modules(aglkit.__path__):\n"
        "    importlib.import_module('aglkit.' + mod.name)\n"
        "    assert 'scipy.integrate' not in sys.modules, mod.name\n"
        f"assert main(['validate', '--manifest', {str(manifest)!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'validate'\n"
        f"assert main(['estimate', '--id-manifest', {str(manifest)!r}, '--ood-manifest',"
        f" {str(manifest)!r}, '--out', {str(tmp_path / 'report')!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'estimate'\n"
        f"assert main(['synth', '--config', {str(tmp_path / 'synth.cfg')!r}, '--seed', '1',"
        f" '--out', {str(tmp_path / 'synth')!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'synth'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(aglkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    from aglkit.datamodel import load_split_pair
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
    pair = load_split_pair(manifest, manifest)
    rows = [r for r in csv.DictReader(io.StringIO((out / "scatter.csv").read_text()))
            if r["kind"] == "agreement"]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for logs, column in ((pair.id_logs, "x_raw"), (pair.ood_logs, "y_raw")):
        values = original(logs, pair.metric)
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


def _sub_manifest(out, name, keep):
    """A copy of ``out``'s manifest holding the entries ``keep`` accepts."""
    doc = json.loads((out / "manifest.json").read_text())
    doc["entries"] = [e for e in doc["entries"] if keep(e)]
    (out / name).write_text(json.dumps(doc))
    return str(out / name)


@pytest.mark.parametrize("id_keep, ood_keep, error", [
    pytest.param(lambda e: True, lambda e: True, "duplicate manifest entry", id="combined-and-its-copy"),
    pytest.param(lambda e: e["split_id"] == "synth_id", lambda e: e["split_id"] == "synth_id",
                 "duplicate manifest entry", id="id-only-and-its-copy"),
    pytest.param(lambda e: e["split_id"] == "synth_id" and e["model_id"] != "m02",
                 lambda e: e["split_id"] == "synth_ood", "shape mismatch for model 'm02'", id="model-only-in-ood"),
])
def test_estimate_rejects_manifests_that_are_not_one_ensemble(tmp_path, capsys, id_keep,
                                                              ood_keep, error):
    out = _synth(tmp_path)
    id_manifest = _sub_manifest(out, "id.json", id_keep)
    ood_manifest = _sub_manifest(out, "ood.json", ood_keep)
    report_dir = tmp_path / "report"
    assert main(["estimate", "--id-manifest", id_manifest, "--ood-manifest", ood_manifest,
                 "--out", str(report_dir), "--eval"]) == EXIT_INPUT_ERROR
    assert not (report_dir / "report.json").exists()
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_two_manifest_estimate_matches_one_manifest(tmp_path):
    out = _synth(tmp_path)
    manifest = str(out / "manifest.json")
    id_manifest = _sub_manifest(out, "id.json", lambda e: e["split_id"] == "synth_id")
    ood_manifest = _sub_manifest(out, "ood.json", lambda e: e["split_id"] == "synth_ood")
    for name, pair in (("one", (manifest, manifest)), ("two", (id_manifest, ood_manifest))):
        assert main(["estimate", "--id-manifest", pair[0], "--ood-manifest", pair[1],
                     "--out", str(tmp_path / name), "--eval"]) == EXIT_OK
    assert (tmp_path / "one" / "report.json").read_bytes() == \
        (tmp_path / "two" / "report.json").read_bytes()


def test_validate_checks_log_header_against_entry(tmp_path, capsys):
    """validate rejects an entry whose log header names another model, as estimate does."""
    out = _synth(tmp_path)
    doc = json.loads((out / "manifest.json").read_text())
    entry = {(e["model_id"], e["split_id"]): e for e in doc["entries"]}
    entry["m00", "synth_id"]["path"] = entry["m01", "synth_id"]["path"]
    (out / "manifest.json").write_text(json.dumps(doc))
    manifest = str(out / "manifest.json")
    assert main(["validate", "--manifest", manifest]) == EXIT_INPUT_ERROR
    assert "does not match manifest entry" in capsys.readouterr().err
    assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(tmp_path / "report")]) == EXIT_INPUT_ERROR
    assert not (tmp_path / "report" / "report.json").exists()


@pytest.mark.parametrize("version", [2, "2"], ids=["int", "str"])
def test_manifest_of_another_version_exits_2(tmp_path, capsys, version):
    out = _synth(tmp_path)
    doc = json.loads((out / "manifest.json").read_text())
    doc["version"] = version
    manifest = out / "manifest-v2.json"
    manifest.write_text(json.dumps(doc))
    assert main(["validate", "--manifest", str(manifest)]) == EXIT_INPUT_ERROR
    assert "unsupported version" in capsys.readouterr().err
    assert main(["estimate", "--id-manifest", str(manifest), "--ood-manifest", str(manifest),
                 "--out", str(tmp_path / "report")]) == EXIT_INPUT_ERROR
    assert not (tmp_path / "report" / "report.json").exists()


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


def _rewrite_records(path, edit):
    """Apply ``edit`` to every example record (not the header) of a log."""
    header, *records = path.read_text().splitlines()
    path.write_text("\n".join([header] + [json.dumps(edit(json.loads(line)), sort_keys=True)
                                          for line in records]) + "\n")


@pytest.mark.parametrize("flags", [["--methods", "ac,ac"], ["--methods", "atc,doc-feat,atc"]])
def test_estimate_repeated_methods_still_exit_3(tmp_path, capsys, flags):
    """Each method runs once, so failing every requested method exits 3."""
    out = _synth(tmp_path)
    for log in out.glob("*/*.jsonl"):
        _rewrite_records(log, lambda rec: {k: v for k, v in rec.items() if k != "logits"})
    manifest = str(out / "manifest.json")
    code = main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                 "--out", str(tmp_path / "rep"), *flags])
    assert code == EXIT_ESTIMATION_FAILURE
    assert capsys.readouterr().err.count("failed: MissingLogits") == len(set(flags[1].split(",")))


def test_estimate_eval_with_a_zero_ood_score_writes_null_mape(tmp_path):
    """One model wrong on every OOD example: MAPE is undefined, the report is still written."""
    out = _synth(tmp_path)
    n_classes = json.loads((out / "ood" / "m01.jsonl").read_text().splitlines()[0])["n_classes"]
    _rewrite_records(out / "ood" / "m01.jsonl",
                     lambda rec: {**rec, "gold": (rec["predicted"] + 1) % n_classes})
    manifest = str(out / "manifest.json")
    for name, flags in (("blind", []), ("eval", ["--eval"])):
        assert main(["estimate", "--id-manifest", manifest, "--ood-manifest", manifest,
                     "--out", str(tmp_path / name), *flags]) == EXIT_OK
    blind, scored = (json.loads((tmp_path / name / "report.json").read_text())
                     for name in ("blind", "eval"))
    assert scored["per_model"][1]["true_ood_perf"] == 0.0
    assert scored["mape"] == dict.fromkeys(scored["per_model"][0]["estimates"])
    assert len(scored["mape"]) == 9
    assert [row["estimates"] for row in scored["per_model"]] == \
        [row["estimates"] for row in blind["per_model"]]


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


@pytest.mark.parametrize("key", ["skill_min", "skill_max"])
def test_synth_rejects_non_finite_skill(tmp_path, capsys, key):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"{key} = nan\n")
    out = tmp_path / "x"
    assert main(["synth", "--config", str(cfg), "--seed", "1",
                 "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "truth.json").exists()


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
