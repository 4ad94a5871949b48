"""Synthetic ensembles with a controllable ID/OOD line and diversity knob.

Each model i has a probit-space skill s_i; its ID correctness threshold is
s_i and its OOD threshold a*s_i + b, so the true accuracies sit exactly on
the configured probit line. Per example, a shared effect w and a
per-model effect v combine into a standard-normal latent
z = sqrt(r)*w + sqrt(1-r)*v, with r = 1 - rho**DIVERSITY_SHARPNESS the
correlation between any two models' latents; the model is correct iff
z <= threshold. Wrong predictions copy a shared per-example label draw
with the same probability r. rho = 0 gives fully shared errors (models
are clones, agreement stays on the diagonal under shift), rho = 1 fully
independent errors. The sharpened mapping keeps rho near 0 in the
clone-like regime long enough for the near-diagonal agreement trend to
survive moderate rho, while large rho still decorrelates errors enough
for the agreement line to track the accuracy line.
``SynthConfig.threshold`` alone states the thresholds, for the sampler,
``truth_for`` and ``aglkit.closed_form``. Confidences and ``truth_for``'s
accuracies use ``aglkit.probit``'s stdlib Phi, so sampling loads no scipy
module; the closed forms live in ``aglkit.closed_form``, which imports it.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    FORMAT_VERSION,
    METRIC_ACCURACY,
    TASK_CLASSIFICATION,
    ClassificationLog,
    Manifest,
    ManifestEntry,
    _read_text,
    save_log,
    save_manifest,
)
from .errors import InvalidConfig
from .probit import normal_cdf

_CONF_FLOOR_MARGIN = 1e-6
_CONF_CEIL = 1.0 - 1e-12

# Exponent of the diversity -> latent-correlation map r = 1 - rho**gamma.
DIVERSITY_SHARPNESS = 2.5


def latent_correlation(diversity: float) -> float:
    return 1.0 - diversity ** DIVERSITY_SHARPNESS


@dataclass
class SynthConfig:
    n_models: int = 8
    n_examples_id: int = 5000
    n_examples_ood: int = 5000
    n_classes: int = 4
    skill_min: float = 0.3
    skill_max: float = 1.5
    line_slope: float = 0.7
    line_bias: float = -0.3
    diversity: float = 0.9
    distractor_coherence: float = 0.5
    seed: int = 0

    def validate(self):
        for name in ("n_models", "n_examples_id", "n_examples_ood", "n_classes"):
            if getattr(self, name) > 2**63 - 1:  # the bound load_log puts on labels
                raise InvalidConfig(f"{name} {getattr(self, name)} > 2**63 - 1")
        if self.n_models < 2:
            raise InvalidConfig(f"n_models {self.n_models} < 2")
        if self.n_examples_id < 1 or self.n_examples_ood < 1:
            raise InvalidConfig("example counts must be >= 1")
        if self.n_classes < 2:
            raise InvalidConfig(f"n_classes {self.n_classes} < 2")
        # generate's largest arrays: (n_models,) skills, (n_examples, n_classes) per split
        limit, most = np.iinfo(np.intp).max // 8, "the most float64 values a numpy array holds"
        if self.n_models > limit:
            raise InvalidConfig(f"n_models {self.n_models} > {limit}, {most}")
        for name in ("n_examples_id", "n_examples_ood"):
            if getattr(self, name) * self.n_classes > limit:
                raise InvalidConfig(f"{name} {getattr(self, name)} x n_classes "
                                    f"{self.n_classes} > {limit}, {most}")
        if not math.isfinite(self.skill_min) or not math.isfinite(self.skill_max):
            raise InvalidConfig("skill_min/skill_max must be finite")
        if self.skill_min > self.skill_max:
            raise InvalidConfig("skill_min > skill_max")
        if not math.isfinite(self.line_slope) or not math.isfinite(self.line_bias):
            raise InvalidConfig("line slope/bias must be finite")
        if not 0.0 <= self.diversity <= 1.0:
            raise InvalidConfig(f"diversity {self.diversity} outside [0, 1]")
        if not 0.0 <= self.distractor_coherence <= 1.0:
            raise InvalidConfig(f"distractor_coherence {self.distractor_coherence} outside [0, 1]")
        if not 0 <= self.seed < 2**128:  # the range of a Philox key
            raise InvalidConfig(f"seed {self.seed} outside [0, 2**128)")

    @property
    def skills(self) -> np.ndarray:
        return np.linspace(self.skill_min, self.skill_max, self.n_models)

    def threshold(self, model_index, split: str):
        s = self.skills[model_index]
        if split == "id":
            return s
        if split == "ood":
            return self.line_slope * s + self.line_bias
        raise InvalidConfig(f"unknown split {split!r}")

    @classmethod
    def from_mapping(cls, mapping) -> "SynthConfig":
        kwargs = {}
        fields_ = {f: t for f, t in cls.__annotations__.items()}
        for key, value in mapping.items():
            if key not in fields_:
                raise InvalidConfig(f"unknown config key {key!r}")
            try:
                kwargs[key] = int(value) if fields_[key] == "int" else float(value)
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(f"bad value for {key!r}: {value!r}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        """The config of a ``key = value`` file, read as ``load_log`` reads a log:
        MissingFile, UnreadableFile, or MalformedRecord at the line of a byte that is
        not UTF-8. A line ends at LF, CRLF or CR, as in a file opened in text mode."""
        mapping = {}
        lines = io.StringIO(_read_text(path, rb"\r\n?|\n"), newline=None)
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfig(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            mapping[key] = value
        return cls.from_mapping(mapping)


def _wrong_label(gold: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    return (gold + 1 + offsets) % k


def _generate_split(config: SynthConfig, rng: np.random.Generator,
                    split: str, split_id: str):
    n_ex = config.n_examples_id if split == "id" else config.n_examples_ood
    k = config.n_classes
    eta = config.distractor_coherence
    gold = rng.integers(0, k, size=n_ex)
    distractor = _wrong_label(gold, rng.integers(0, k - 1, size=n_ex), k)
    # shared wrong-label draw: distractor with probability eta, else uniform
    shared_coin = rng.random(n_ex)
    shared_fallback = _wrong_label(gold, rng.integers(0, k - 1, size=n_ex), k)
    shared_wrong = np.where(shared_coin < eta, distractor, shared_fallback)
    w = rng.standard_normal(n_ex)
    r = latent_correlation(config.diversity)
    logs = []
    for m, theta in enumerate(config.threshold(np.arange(config.n_models), split)):
        v = rng.standard_normal(n_ex)
        copy_coin = rng.random(n_ex)
        own_coin = rng.random(n_ex)
        own_fallback = _wrong_label(gold, rng.integers(0, k - 1, size=n_ex), k)
        z = math.sqrt(r) * w + math.sqrt(1.0 - r) * v
        correct = z <= theta
        own_wrong = np.where(own_coin < eta, distractor, own_fallback)
        wrong_pred = np.where(copy_coin < r, shared_wrong, own_wrong)
        predicted = np.where(correct, gold, wrong_pred)
        # confidence on the predicted class; floored so argmax stays consistent
        conf = np.clip(normal_cdf(theta - z), 1.0 / k + _CONF_FLOOR_MARGIN, _CONF_CEIL)
        rest = (1.0 - conf) / (k - 1)
        probs = np.repeat(rest[:, None], k, axis=1)
        probs[np.arange(n_ex), predicted] = conf
        logs.append(ClassificationLog(
            model_id=f"m{m:02d}", split_id=split_id, n_classes=k,
            gold=gold.astype(np.int64), predicted=predicted.astype(np.int64),
            logits=np.log(probs)))
    return logs


def truth_for(config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(true_id_acc, true_ood_acc)``: Phi of each model's threshold on each split."""
    models = np.arange(config.n_models)
    return tuple(normal_cdf(config.threshold(models, split)) for split in ("id", "ood"))


def generate(config: SynthConfig):
    """``(id_logs, ood_logs, (true_id_acc, true_ood_acc))``, deterministic in config.seed."""
    config.validate()
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    id_logs = _generate_split(config, rng, "id", "synth_id")
    ood_logs = _generate_split(config, rng, "ood", "synth_ood")
    return id_logs, ood_logs, truth_for(config)


def write_ensemble(config: SynthConfig, out_dir) -> dict:
    """Write logs, a two-split manifest, and the ground-truth sidecar.

    Re-running with the same config overwrites the tree byte-identically.
    Returns the paths written.
    """
    id_logs, ood_logs, (true_id_acc, true_ood_acc) = generate(config)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for split_dir, logs in (("id", id_logs), ("ood", ood_logs)):
        os.makedirs(os.path.join(out_dir, split_dir), exist_ok=True)
        for log in logs:
            rel = os.path.join(split_dir, f"{log.model_id}.jsonl")
            save_log(log, os.path.join(out_dir, rel))
            entries.append(ManifestEntry(model_id=log.model_id,
                                         split_id=log.split_id, path=rel))
    # interleave so the ID split appears first, per the manifest contract
    entries.sort(key=lambda e: (e.model_id, e.split_id != "synth_id"))
    manifest = Manifest(version=FORMAT_VERSION, task=TASK_CLASSIFICATION,
                        metric=METRIC_ACCURACY, entries=entries)
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, manifest_path)
    truth_path = os.path.join(out_dir, "truth.json")
    with open(truth_path, "w") as fh:
        json.dump({"model_ids": [log.model_id for log in id_logs],
                   "true_id_acc": [float(v) for v in true_id_acc],
                   "true_ood_acc": [float(v) for v in true_ood_acc],
                   "config": {k: getattr(config, k) for k in config.__annotations__}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"manifest": manifest_path, "truth": truth_path}
