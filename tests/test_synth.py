import hashlib
import json
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from aglkit.datamodel import load_split_pair
from aglkit.errors import InvalidConfig
from aglkit.metrics import agreement
from aglkit.probit import normal_cdf, probit
from aglkit.synth import (
    SynthConfig,
    both_correct_probability,
    calibrated_classification_log,
    closed_form_agreement,
    exact_agl_inputs,
    generate,
    latent_correlation,
    truth_for,
    wrong_match_probability,
    write_ensemble,
)


def test_generate_bitwise_deterministic():
    config = SynthConfig(n_models=3, n_examples_id=400, n_examples_ood=300, seed=11)
    a_id, a_ood, _ = generate(config)
    b_id, b_ood, _ = generate(SynthConfig(n_models=3, n_examples_id=400,
                                          n_examples_ood=300, seed=11))
    for xs, ys in ((a_id, b_id), (a_ood, b_ood)):
        for x, y in zip(xs, ys):
            assert np.array_equal(x.gold, y.gold)
            assert np.array_equal(x.predicted, y.predicted)
            assert np.array_equal(x.logits, y.logits)
    c_id, _, _ = generate(SynthConfig(n_models=3, n_examples_id=400,
                                      n_examples_ood=300, seed=12))
    assert not np.array_equal(a_id[0].predicted, c_id[0].predicted)


def test_logits_consistent_with_predictions():
    config = SynthConfig(n_models=2, n_examples_id=200, n_examples_ood=200, seed=4)
    id_logs, ood_logs, _ = generate(config)
    from aglkit.datamodel import validate_log
    for log in id_logs + ood_logs:
        validate_log(log)  # includes argmax-vs-predicted recheck


def test_marginal_accuracy_law():
    config = SynthConfig(n_models=3, n_examples_id=100_000, n_examples_ood=20_000,
                         skill_min=0.2, skill_max=1.0, seed=9)
    id_logs, _, truth = generate(config)
    for log, p in zip(id_logs, truth.true_id_acc):
        emp = float(np.mean(log.predicted == log.gold))
        se = math.sqrt(p * (1 - p) / config.n_examples_id)
        assert abs(emp - p) < 3 * se


def test_truth_on_configured_line():
    config = SynthConfig(n_models=5, line_slope=0.6, line_bias=-0.4,
                         skill_min=0.3, skill_max=1.4)
    truth = truth_for(config)
    for s, pid, pood in zip(config.skills, truth.true_id_acc, truth.true_ood_acc):
        assert pid == pytest.approx(normal_cdf(s), abs=1e-12)
        assert pood == pytest.approx(normal_cdf(0.6 * s - 0.4), abs=1e-12)
        assert probit(pood) == pytest.approx(0.6 * probit(pid) - 0.4, abs=1e-9)


def test_latent_correlation_endpoints_and_monotonicity():
    assert latent_correlation(0.0) == 1.0
    assert latent_correlation(1.0) == 0.0
    grid = np.linspace(0, 1, 50)
    vals = [latent_correlation(d) for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_wrong_match_probability_examples():
    # two classes leave a single wrong label: wrong models always match
    assert wrong_match_probability(2, 0.0) == pytest.approx(1.0)
    assert wrong_match_probability(2, 1.0) == pytest.approx(1.0)
    # fully diverse, no distractor: uniform over k-1 wrong labels
    assert wrong_match_probability(4, 0.0, diversity=1.0) == pytest.approx(1.0 / 3.0)
    # full coherence: everyone picks the distractor
    assert wrong_match_probability(4, 1.0, diversity=1.0) == pytest.approx(1.0)
    # diversity 0 -> labels copied from the shared draw
    assert wrong_match_probability(4, 0.0, diversity=0.0) == pytest.approx(1.0)


def test_both_correct_probability_limits_and_monte_carlo():
    assert both_correct_probability(0.5, 1.2, 0.0) == pytest.approx(
        normal_cdf(0.5) * normal_cdf(1.2), abs=1e-12)
    assert both_correct_probability(0.5, 1.2, 1.0) == pytest.approx(
        normal_cdf(0.5), abs=1e-12)
    # correlation 0.5, thresholds (0, 0.5): 1e7-draw Monte Carlo oracle
    rng = np.random.default_rng(77)
    n = 10_000_000
    w = rng.standard_normal(n)
    shared, own = math.sqrt(0.5), math.sqrt(0.5)
    zi = shared * w + own * rng.standard_normal(n)
    zj = shared * w + own * rng.standard_normal(n)
    emp = float(np.mean((zi <= 0.0) & (zj <= 0.5)))
    p = both_correct_probability(0.0, 0.5, 0.5)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(emp - p) < 3 * se


def _oracle_both_correct(theta_i, theta_j, correlation):
    """The numerical integral both_correct_probability used before its closed form."""
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


def _mp_both_correct(h, k, rho):
    """P(z_i <= h, z_j <= k) at 30 digits, with its quadrature error estimate, in
    the arcsin form of Drezner & Wesolowsky (1990):
    Phi(h) Phi(k) + (1 / 2 pi) * the integral over theta from 0 to asin(rho) of
    exp(-(h^2 + k^2 - 2 h k sin(theta)) / (2 cos(theta)^2)).
    """
    with mpmath.workdps(30):
        h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        if rho <= 0:
            return mpmath.ncdf(h) * mpmath.ncdf(k), 0
        if rho >= 1:
            return mpmath.ncdf(min(h, k)), 0

        def integrand(theta):
            return mpmath.exp(-(h * h + k * k - 2 * h * k * mpmath.sin(theta))
                              / (2 * mpmath.cos(theta) ** 2))

        value, err = mpmath.quad(integrand, [0, mpmath.asin(rho)], error=True)
        norm = 2 * mpmath.pi
        return mpmath.ncdf(h) * mpmath.ncdf(k) + value / norm, err / norm


_PHI2_RNG = np.random.default_rng(2024)
_PHI2_RANDOM = [(float(h), float(k), float(r)) for h, k, r in zip(
    _PHI2_RNG.uniform(-3, 3, 200), _PHI2_RNG.uniform(-3, 3, 200),
    _PHI2_RNG.uniform(1e-3, 1 - 1e-3, 200))]
_PHI2_EDGES = [
    (0.0, 1.2, 0.5), (0.0, -1.2, 0.5), (0.0, 0.7, 0.999),   # h = 0
    (1.2, 0.0, 0.5), (-1.2, 0.0, 0.5), (-0.4, 0.0, 0.05),   # k = 0
    (0.0, 0.0, 0.5), (0.0, 0.0, 0.999), (0.0, 0.0, 1e-12), (-0.0, 0.0, 0.3),  # h = k = 0
    (0.7, 0.7, 0.5), (-0.7, -0.7, 0.9), (2.5, 2.5, 0.2),   # h = k != 0
    (0.8, -0.3, 0.4), (-0.3, 0.8, 0.4), (2.0, -2.0, 0.95), (-2.0, 2.0, 0.95),  # hk < 0
    (0.5, 1.2, 1e-12), (-1.0, 0.3, 1e-12), (0.0, 0.3, 1e-12),
    (0.5, 1.2, 1 - 1e-9), (0.9, 0.9, 1 - 1e-9), (-0.9, -0.9, 1 - 1e-9),
    (0.3, -0.3, 1 - 1e-9), (0.0, 0.5, 1 - 1e-9), (0.5, 0.5000001, 1 - 1e-9),
    # the old numerical integral was 5.6e-12 off here (default skills, diversity 0.05)
    (-0.09, -0.09, latent_correlation(0.05)),
    (0.5, 1.2, 0.0), (-0.5, 1.2, 0.0), (0.0, 0.0, 0.0),     # exact rho = 0 branch
    (0.5, 1.2, 1.0), (1.2, -0.5, 1.0), (0.0, 0.0, 1.0),     # exact rho = 1 branch
]


@pytest.fixture(scope="module")
def phi2_reference():
    rows = _PHI2_RANDOM + _PHI2_EDGES
    ref = [_mp_both_correct(*row) for row in rows]
    assert max(err for _, err in ref) < 1e-20  # every quadrature converged
    return np.array(rows), np.array([float(value) for value, _ in ref])


def test_both_correct_probability_matches_mpmath(phi2_reference):
    rows, expected = phi2_reference
    got = both_correct_probability(rows[:, 0], rows[:, 1], rows[:, 2])
    worst = np.abs(got - expected)
    assert worst.max() < 1e-15, rows[worst.argmax()]


def test_both_correct_probability_scalar_and_array_calls(phi2_reference):
    rows, _ = phi2_reference
    array = both_correct_probability(rows[:, 0], rows[:, 1], rows[:, 2])
    for row, value in zip(rows, array):
        scalar = both_correct_probability(*row)
        assert np.ndim(scalar) == 0
        assert scalar == value  # bit-identical: one code path
    h = rows[:5, 0]
    assert np.array_equal(both_correct_probability(h, 0.4, 0.6),
                          [both_correct_probability(x, 0.4, 0.6) for x in h])
    grid = both_correct_probability(h[:, None], h[None, :], 0.6)
    assert grid.shape == (5, 5)
    assert np.array_equal(grid, grid.T)


def test_both_correct_probability_exact_branches():
    h, k = np.array([0.5, -0.5, 0.0, 1.2]), np.array([1.2, 1.2, 0.0, -0.5])
    for rho in (0.0, -0.3):
        assert np.array_equal(both_correct_probability(h, k, rho),
                              normal_cdf(h) * normal_cdf(k))
    for rho in (1.0, 1.5):
        assert np.array_equal(both_correct_probability(h, k, rho),
                              normal_cdf(np.minimum(h, k)))


@pytest.mark.parametrize("diversity", [0.2, 0.6, 0.9, 1.0])
def test_both_correct_probability_matches_quad_oracle(diversity):
    """Against the numerical integral it replaced, on the default skill grid.

    Near-clone diversities are left to the mpmath rows: at 0.05 the old
    integral itself is 5.6e-12 off at h = k = -0.09.
    """
    config = SynthConfig(diversity=diversity)
    r = latent_correlation(diversity)
    n = config.n_models
    for split in ("id", "ood"):
        theta = config.threshold(np.arange(n), split)
        got = both_correct_probability(theta[:, None], theta[None, :], r)
        for i in range(n):
            for j in range(n):
                assert abs(got[i, j] - _oracle_both_correct(theta[i], theta[j], r)) < 1e-12


def test_closed_form_agreement_takes_index_arrays():
    config = SynthConfig(n_models=6, diversity=0.7)
    i, j = np.triu_indices(6, k=1)
    for split in ("id", "ood"):
        got = closed_form_agreement(config, i, j, split)
        assert got.shape == i.shape
        assert np.array_equal(got, [closed_form_agreement(config, int(a), int(b), split)
                                    for a, b in zip(i, j)])


def test_exact_agl_inputs_many_models_in_closed_form():
    """All 8,128 pairs at 128 models in one array pass (the numerical
    integral it replaced took about 2 s)."""
    start = time.perf_counter()
    _, agr_id, agr_ood, _ = exact_agl_inputs(SynthConfig(n_models=128))
    assert time.perf_counter() - start < 1.0
    assert agr_id.shape == agr_ood.shape == (128, 128)
    assert np.array_equal(agr_id, agr_id.T) and np.array_equal(agr_ood, agr_ood.T)
    assert np.all(np.diag(agr_id) == 1.0)
    assert agr_id[3, 97] == closed_form_agreement(SynthConfig(n_models=128), 3, 97, "id")


def _mc_agreement(config, i, j, split, n, seed):
    """Monte Carlo re-derivation of the generative law for one model pair."""
    rng = np.random.default_rng(seed)
    k = config.n_classes
    eta = config.distractor_coherence
    r = latent_correlation(config.diversity)
    gold = rng.integers(0, k, n)
    distractor = (gold + 1 + rng.integers(0, k - 1, n)) % k
    shared_wrong = np.where(rng.random(n) < eta, distractor,
                            (gold + 1 + rng.integers(0, k - 1, n)) % k)
    w = rng.standard_normal(n)

    def model(theta):
        z = math.sqrt(r) * w + math.sqrt(1 - r) * rng.standard_normal(n)
        own_wrong = np.where(rng.random(n) < eta, distractor,
                             (gold + 1 + rng.integers(0, k - 1, n)) % k)
        wrong = np.where(rng.random(n) < r, shared_wrong, own_wrong)
        return np.where(z <= theta, gold, wrong)

    pi = model(config.threshold(i, split))
    pj = model(config.threshold(j, split))
    return float(np.mean(pi == pj))


@pytest.mark.parametrize("diversity,coherence", [(1.0, 0.0), (0.6, 0.5), (0.2, 0.9)])
def test_closed_form_agreement_matches_monte_carlo(diversity, coherence):
    config = SynthConfig(n_models=3, n_classes=4, skill_min=0.2, skill_max=1.0,
                         diversity=diversity, distractor_coherence=coherence)
    n = 400_000
    for split in ("id", "ood"):
        p = closed_form_agreement(config, 0, 2, split)
        emp = _mc_agreement(config, 0, 2, split, n, seed=13)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(emp - p) < 3.5 * se


def test_exact_agl_inputs_sit_on_both_lines():
    config = SynthConfig(n_models=5, line_slope=0.7, line_bias=-0.3)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    for i in range(5):
        assert probit(true_ood[i]) == pytest.approx(0.7 * probit(id_acc[i]) - 0.3,
                                                    abs=1e-9)
        for j in range(i + 1, 5):
            assert agr_id[i, j] == closed_form_agreement(config, i, j, "id")
            assert probit(agr_ood[i, j]) == pytest.approx(
                0.7 * probit(agr_id[i, j]) - 0.3, abs=1e-9)


def test_calibrated_log_shape_and_determinism():
    a = calibrated_classification_log(500, 3, 2.0, seed=8)
    b = calibrated_classification_log(500, 3, 2.0, seed=8)
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.gold, b.gold)
    assert np.all((a.gold >= 0) & (a.gold < 3))
    assert np.array_equal(a.predicted, a.logits.argmax(axis=1))


def test_calibrated_log_gold_frequencies_track_softmax():
    """Pooled over examples, gold class frequencies match mean softmax mass."""
    log = calibrated_classification_log(50_000, 3, 1.0, seed=3)
    probs = np.exp(log.logits - log.logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    for c in range(3):
        expect = float(np.mean(probs[:, c]))
        emp = float(np.mean(log.gold == c))
        se = math.sqrt(expect * (1 - expect) / len(log))
        assert abs(emp - expect) < 4 * se


def test_config_parsing(tmp_path):
    config = SynthConfig.from_mapping({"n_models": "4", "diversity": "0.5",
                                       "line_slope": "0.9"})
    assert config.n_models == 4
    assert config.diversity == 0.5
    assert config.line_slope == 0.9
    assert config.n_classes == 4  # defaults survive
    path = tmp_path / "synth.cfg"
    path.write_text("# comment line\n"
                    "n_models = 6\n"
                    "skill_min = 0.2  # trailing comment\n"
                    "\n"
                    "seed = 3\n")
    from_file = SynthConfig.from_file(path)
    assert from_file.n_models == 6
    assert from_file.skill_min == 0.2
    assert from_file.seed == 3
    with pytest.raises(InvalidConfig):
        SynthConfig.from_mapping({"bogus_key": "1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(InvalidConfig):
        SynthConfig.from_file(bad)


@pytest.mark.parametrize("overrides", [
    {"n_models": 1},
    {"n_classes": 1},
    {"n_examples_id": 0},
    {"skill_min": 2.0, "skill_max": 1.0},
    {"diversity": 1.5},
    {"distractor_coherence": -0.1},
    {"seed": -1},
    {"line_slope": math.inf},
    {"skill_max": math.inf},
    {"skill_min": -math.inf},
])
def test_config_validation(overrides):
    config = SynthConfig(**overrides)
    with pytest.raises(InvalidConfig):
        config.validate()


def test_write_ensemble_round_trip(tmp_path):
    config = SynthConfig(n_models=3, n_examples_id=120, n_examples_ood=100, seed=21)
    paths = write_ensemble(config, tmp_path / "out")
    pair = load_split_pair(paths["manifest"], paths["manifest"])
    assert pair.n_models == 3
    assert pair.id_logs[0].split_id == "synth_id"
    assert pair.ood_logs[0].split_id == "synth_ood"
    assert len(pair.id_logs[0]) == 120
    assert len(pair.ood_logs[0]) == 100
    truth = json.loads((tmp_path / "out" / "truth.json").read_text())
    assert truth["model_ids"] == pair.model_ids
    np.testing.assert_allclose(truth["true_id_acc"],
                               truth_for(config).true_id_acc, atol=1e-12)


def test_write_ensemble_rerun_byte_identical(tmp_path):
    config = SynthConfig(n_models=2, n_examples_id=80, n_examples_ood=80, seed=5)
    write_ensemble(config, tmp_path / "a")
    write_ensemble(config, tmp_path / "b")
    for rel in ("manifest.json", "truth.json", "id/m00.jsonl", "ood/m01.jsonl"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


# Computed with the per-record json.dumps writer, before save_log formatted whole
# columns: any drift in the generator, the log writer, the manifest or truth.json
# changes it.
WRITE_ENSEMBLE_SHA256 = "da4d2f4260a76ffae1157a5ae559125ba72e5924a731e78a735590ed7c680500"


def test_write_ensemble_golden_digest(tmp_path):
    write_ensemble(SynthConfig(n_models=4, n_examples_id=50, n_examples_ood=50, seed=7), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*"), key=lambda p: p.relative_to(tmp_path).as_posix()):
        if path.is_file():  # relative path, a NUL, then the file's bytes
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    assert digest.hexdigest() == WRITE_ENSEMBLE_SHA256


def test_generated_agreement_tracks_closed_form_smoke():
    """Small-sample sanity version of the convergence check."""
    config = SynthConfig(n_models=3, n_examples_id=30_000, n_examples_ood=1000,
                         diversity=0.7, seed=17)
    id_logs, _, _ = generate(config)
    p = closed_form_agreement(config, 0, 2, "id")
    emp = agreement(id_logs[0], id_logs[2], "accuracy")
    se = math.sqrt(p * (1 - p) / config.n_examples_id)
    assert abs(emp - p) < 4 * se
