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
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .datamodel import (
    FORMAT_VERSION,
    METRIC_ACCURACY,
    TASK_CLASSIFICATION,
    ClassificationLog,
    Manifest,
    ManifestEntry,
    save_log,
    save_manifest,
)
from .errors import InvalidConfig
from .probit import normal_cdf, probit

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
        if self.n_models < 2:
            raise InvalidConfig(f"n_models {self.n_models} < 2")
        if self.n_examples_id < 1 or self.n_examples_ood < 1:
            raise InvalidConfig("example counts must be >= 1")
        if self.n_classes < 2:
            raise InvalidConfig(f"n_classes {self.n_classes} < 2")
        if self.skill_min > self.skill_max:
            raise InvalidConfig("skill_min > skill_max")
        if not math.isfinite(self.line_slope) or not math.isfinite(self.line_bias):
            raise InvalidConfig("line slope/bias must be finite")
        if not 0.0 <= self.diversity <= 1.0:
            raise InvalidConfig(f"diversity {self.diversity} outside [0, 1]")
        if not 0.0 <= self.distractor_coherence <= 1.0:
            raise InvalidConfig(f"distractor_coherence {self.distractor_coherence} outside [0, 1]")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")

    @property
    def skills(self) -> np.ndarray:
        if self.n_models == 1:
            return np.array([self.skill_min])
        return np.linspace(self.skill_min, self.skill_max, self.n_models)

    def threshold(self, model_index: int, split: str) -> float:
        s = float(self.skills[model_index])
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
        mapping = {}
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"{path}: not UTF-8: {exc.reason}") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfig(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            mapping[key] = value
        return cls.from_mapping(mapping)


@dataclass
class SynthTruth:
    """Closed-form per-model accuracies implied by the config."""
    true_id_acc: np.ndarray
    true_ood_acc: np.ndarray
    config: SynthConfig = field(repr=False, default=None)


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
    for m in range(config.n_models):
        v = rng.standard_normal(n_ex)
        copy_coin = rng.random(n_ex)
        own_coin = rng.random(n_ex)
        own_fallback = _wrong_label(gold, rng.integers(0, k - 1, size=n_ex), k)
        z = math.sqrt(r) * w + math.sqrt(1.0 - r) * v
        theta = config.threshold(m, split)
        correct = z <= theta
        own_wrong = np.where(own_coin < eta, distractor, own_fallback)
        wrong_pred = np.where(copy_coin < r, shared_wrong, own_wrong)
        predicted = np.where(correct, gold, wrong_pred)
        # confidence on the predicted class; floored so argmax stays consistent
        conf = np.clip(ndtr(theta - z), 1.0 / k + _CONF_FLOOR_MARGIN, _CONF_CEIL)
        rest = (1.0 - conf) / (k - 1)
        probs = np.repeat(rest[:, None], k, axis=1)
        probs[np.arange(n_ex), predicted] = conf
        logs.append(ClassificationLog(
            model_id=f"m{m:02d}", split_id=split_id, n_classes=k,
            gold=gold.astype(np.int64), predicted=predicted.astype(np.int64),
            logits=np.log(probs)))
    return logs


def truth_for(config: SynthConfig) -> SynthTruth:
    skills = config.skills
    return SynthTruth(true_id_acc=normal_cdf(skills),
                      true_ood_acc=normal_cdf(config.line_slope * skills + config.line_bias),
                      config=config)


def generate(config: SynthConfig):
    """Generate (id_logs, ood_logs, truth), deterministic in config.seed."""
    config.validate()
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    id_logs = _generate_split(config, rng, "id", "synth_id")
    ood_logs = _generate_split(config, rng, "ood", "synth_ood")
    return id_logs, ood_logs, truth_for(config)


def wrong_match_probability(n_classes: int, coherence: float,
                            diversity: float = 1.0) -> float:
    """Chance two wrong models emit the same label.

    Both models copy the shared wrong-label draw with probability
    r = latent_correlation(diversity); otherwise they draw independently
    from the same distractor-weighted distribution.
    """
    k = n_classes
    p_d = coherence + (1.0 - coherence) / (k - 1)
    p_other = (1.0 - coherence) / (k - 1)
    base = p_d * p_d + (k - 2) * p_other * p_other
    r = latent_correlation(diversity)
    return r * r + (1.0 - r * r) * base


def both_correct_probability(theta_i: float, theta_j: float, correlation: float) -> float:
    """P(z_i <= theta_i, z_j <= theta_j) for latents with the given correlation."""
    if correlation >= 1.0:
        return normal_cdf(min(theta_i, theta_j))
    if correlation <= 0.0:
        return normal_cdf(theta_i) * normal_cdf(theta_j)
    shared = math.sqrt(correlation)
    own = math.sqrt(1.0 - correlation)

    def integrand(w):
        return (math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
                * normal_cdf((theta_i - shared * w) / own)
                * normal_cdf((theta_j - shared * w) / own))

    value, _ = quad(integrand, -9.0, 9.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def closed_form_agreement(config: SynthConfig, i: int, j: int, split: str) -> float:
    """Expected agreement between models i and j on one split."""
    theta_i = config.threshold(i, split)
    theta_j = config.threshold(j, split)
    r = latent_correlation(config.diversity)
    p11 = both_correct_probability(theta_i, theta_j, r)
    p_i = normal_cdf(theta_i)
    p_j = normal_cdf(theta_j)
    p00 = 1.0 - p_i - p_j + p11
    m = wrong_match_probability(config.n_classes, config.distractor_coherence,
                                config.diversity)
    return p11 + m * p00


def exact_agl_inputs(config: SynthConfig):
    """Closed-form ensemble quantities that satisfy both probit lines exactly.

    ID accuracies and ID agreements come from the config's closed forms;
    the OOD values are then defined by applying the configured line in
    probit space, so accuracy and agreement share the exact slope/bias.
    Returns (id_acc, agr_id, agr_ood, true_ood_acc) with plain matrices.
    """
    config.validate()
    n = config.n_models
    truth = truth_for(config)
    a, b = config.line_slope, config.line_bias
    agr_id = np.ones((n, n))
    agr_ood = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            g = closed_form_agreement(config, i, j, "id")
            g_ood = normal_cdf(a * probit(g) + b)
            agr_id[i, j] = agr_id[j, i] = g
            agr_ood[i, j] = agr_ood[j, i] = g_ood
    true_ood = normal_cdf(a * probit(truth.true_id_acc) + b)
    return truth.true_id_acc, agr_id, agr_ood, true_ood


def calibrated_classification_log(n_examples: int, n_classes: int,
                                  logit_spread: float, seed: int,
                                  model_id: str = "calibrated",
                                  split_id: str = "synth_id") -> ClassificationLog:
    """A perfectly calibrated log: gold is drawn from the model's own softmax.

    The expected cross-entropy of these logits is minimized at
    temperature 0, which makes them the ground truth for
    temperature-recovery tests.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    logits = logit_spread * rng.standard_normal((n_examples, n_classes))
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    draws = rng.random(n_examples)
    gold = (draws[:, None] > cdf).sum(axis=1)
    predicted = logits.argmax(axis=1)
    return ClassificationLog(model_id=model_id, split_id=split_id,
                             n_classes=n_classes, gold=gold.astype(np.int64),
                             predicted=predicted.astype(np.int64), logits=logits)


def write_ensemble(config: SynthConfig, out_dir) -> dict:
    """Write logs, a two-split manifest, and the ground-truth sidecar.

    Re-running with the same config overwrites the tree byte-identically.
    Returns the paths written.
    """
    id_logs, ood_logs, truth = generate(config)
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
    import json
    with open(truth_path, "w") as fh:
        json.dump({"model_ids": [log.model_id for log in id_logs],
                   "true_id_acc": [float(v) for v in truth.true_id_acc],
                   "true_ood_acc": [float(v) for v in truth.true_ood_acc],
                   "config": {k: getattr(config, k) for k in config.__annotations__}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"manifest": manifest_path, "truth": truth_path}
