import numpy as np
import pytest

import aglkit.aline
from aglkit.aline import (
    AlineInput,
    agreement_line,
    aline_d,
    aline_s,
    gate,
)
from aglkit.errors import InsufficientModels, LengthMismatch
from aglkit.probit import LineFit, fit_line, normal_cdf, probit
from aglkit.closed_form import exact_agl_inputs
from aglkit.synth import SynthConfig

from conftest import gaussian_elimination


def _random_input(rng, n=5, slope=0.8, bias=-0.2, noise=0.0):
    agr_id = np.ones((n, n))
    agr_ood = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            g = float(rng.uniform(0.55, 0.95))
            y = normal_cdf(slope * probit(g) + bias + noise * rng.normal())
            agr_id[i, j] = agr_id[j, i] = g
            agr_ood[i, j] = agr_ood[j, i] = y
    id_perf = rng.uniform(0.6, 0.95, n)
    return AlineInput(id_perf=id_perf, agr_id=agr_id, agr_ood=agr_ood)


def test_agreement_line_matches_manual_extraction(rng):
    """The line fit must equal fit_line on manually pulled triangle points."""
    for _ in range(10):
        inp = _random_input(rng, n=5, noise=0.1)
        fit = agreement_line(inp)
        xs, ys = [], []
        for i in range(5):
            for j in range(i + 1, 5):
                xs.append(probit(inp.agr_id[i, j]))
                ys.append(probit(inp.agr_ood[i, j]))
        manual = fit_line(xs, ys)
        assert fit.slope == pytest.approx(manual.slope, abs=1e-12)
        assert fit.bias == pytest.approx(manual.bias, abs=1e-12)
        assert fit.n_points == 10


def test_aline_s_single_point_formula():
    """With a known line, the estimate is the CDF of the mapped probit."""
    inp = _random_input(np.random.default_rng(7), n=4, slope=0.7, bias=-0.3)
    estimates, fit = aline_s(inp)
    assert fit.slope == pytest.approx(0.7, abs=1e-9)
    assert fit.bias == pytest.approx(-0.3, abs=1e-9)
    for est, p in zip(estimates, inp.id_perf):
        assert est == pytest.approx(normal_cdf(0.7 * probit(p) - 0.3), abs=1e-9)
    assert np.all((estimates >= 0) & (estimates <= 1))


def test_aline_s_identity_line(rng):
    """Agreement unchanged across splits pins the line to y = x."""
    n = 4
    agr = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            agr[i, j] = agr[j, i] = float(rng.uniform(0.6, 0.9))
    id_perf = rng.uniform(0.6, 0.9, n)
    inp = AlineInput(id_perf=id_perf, agr_id=agr, agr_ood=agr.copy())
    estimates, fit = aline_s(inp)
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    assert fit.bias == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(estimates, id_perf, atol=1e-9)


def test_aline_d_matches_elimination_oracle_3_models(rng):
    """For 3 models the pair system is square; compare against a hand solver."""
    for _ in range(100):
        inp = _random_input(rng, n=3, slope=float(rng.uniform(0.4, 1.2)),
                            bias=float(rng.uniform(-0.5, 0.2)), noise=0.05)
        fit = agreement_line(inp)
        rows, rhs = [], []
        idp = [probit(p) for p in inp.id_perf]
        for i in range(3):
            for j in range(i + 1, 3):
                coeff = [0.0, 0.0, 0.0]
                coeff[i] = coeff[j] = 0.5
                rows.append(coeff)
                rhs.append(probit(inp.agr_ood[i, j])
                           + fit.slope * ((idp[i] + idp[j]) / 2
                                          - probit(inp.agr_id[i, j])))
        oracle = [normal_cdf(z) for z in gaussian_elimination(rows, rhs)]
        estimates, _ = aline_d(inp)
        np.testing.assert_allclose(estimates, oracle, atol=1e-9)


def test_aline_exact_recovery():
    """A consistent ensemble on a shared probit line is recovered exactly."""
    config = SynthConfig(n_models=3, line_slope=0.7, line_bias=-0.3,
                         skill_min=0.4, skill_max=1.2)
    id_acc, agr_id, agr_ood, true_ood = exact_agl_inputs(config)
    inp = AlineInput(id_perf=id_acc, agr_id=agr_id, agr_ood=agr_ood)
    for fn in (aline_s, aline_d):
        estimates, fit = fn(inp)
        np.testing.assert_allclose(estimates, true_ood, atol=1e-6)
        assert fit.slope == pytest.approx(0.7, abs=1e-8)
        assert fit.bias == pytest.approx(-0.3, abs=1e-8)


def test_aline_d_permutation_equivariance(rng):
    inp = _random_input(rng, n=5, noise=0.1)
    estimates, _ = aline_d(inp)
    perm = rng.permutation(5)
    agr_id_p = inp.agr_id[np.ix_(perm, perm)]
    agr_ood_p = inp.agr_ood[np.ix_(perm, perm)]
    inp_p = AlineInput(id_perf=inp.id_perf[perm], agr_id=agr_id_p, agr_ood=agr_ood_p)
    estimates_p, _ = aline_d(inp_p)
    np.testing.assert_allclose(estimates_p, estimates[perm], atol=1e-9)


def test_aline_d_solution_is_least_squares_optimal(rng):
    """Perturbing the solved probit vector never lowers the residual."""
    inp = _random_input(rng, n=4, noise=0.15)
    fit = agreement_line(inp)
    estimates, _ = aline_d(inp)
    sol = np.array([probit(v) for v in estimates])
    idp = np.array([probit(p) for p in inp.id_perf])
    A, rhs = [], []
    for i in range(4):
        for j in range(i + 1, 4):
            coeff = np.zeros(4)
            coeff[i] = coeff[j] = 0.5
            A.append(coeff)
            rhs.append(probit(inp.agr_ood[i, j])
                       + fit.slope * ((idp[i] + idp[j]) / 2
                                      - probit(inp.agr_id[i, j])))
    A = np.array(A)
    rhs = np.array(rhs)
    base = float(np.sum((A @ sol - rhs) ** 2))
    for _ in range(50):
        trial = sol + 1e-3 * rng.normal(size=4)
        assert float(np.sum((A @ trial - rhs) ** 2)) >= base - 1e-12


def test_aline_d_needs_three_models(rng):
    inp = _random_input(rng, n=2)
    with pytest.raises(InsufficientModels):
        aline_d(inp)


def test_input_alignment_checks(rng):
    inp3 = _random_input(rng, n=3)
    with pytest.raises(InsufficientModels):
        AlineInput(id_perf=np.array([0.8]), agr_id=inp3.agr_id, agr_ood=inp3.agr_ood)
    with pytest.raises(LengthMismatch):
        AlineInput(id_perf=np.array([0.8, 0.7, 0.9, 0.6]),
                   agr_id=inp3.agr_id, agr_ood=inp3.agr_ood)


def test_input_from_nested_lists_equals_input_from_arrays(rng):
    """Lists convert like arrays, so the estimates are the same bit for bit."""
    inp = _random_input(rng, n=5, noise=0.1)
    listed = AlineInput(id_perf=inp.id_perf.tolist(), agr_id=inp.agr_id.tolist(),
                        agr_ood=inp.agr_ood.tolist())
    for fn in (aline_s, aline_d):
        (est, fit), (est_l, fit_l) = fn(inp), fn(listed)
        assert est.tobytes() == est_l.tobytes()
        assert fit == fit_l


def test_aline_transforms_each_rate_once(monkeypatch):
    """ALine-S then ALine-D on one input make 3 probit calls (ID performance, ID
    and OOD agreement) and give the estimates of two fresh inputs bit for bit."""
    config = SynthConfig(n_models=6, line_slope=0.7, line_bias=-0.3)
    id_acc, agr_id, agr_ood, _ = exact_agl_inputs(config)
    fresh = [fn(AlineInput(id_perf=id_acc, agr_id=agr_id, agr_ood=agr_ood))
             for fn in (aline_s, aline_d)]
    calls = []

    def counted(p):
        calls.append(1)
        return probit(p)

    monkeypatch.setattr(aglkit.aline, "probit", counted)
    inp = AlineInput(id_perf=id_acc, agr_id=agr_id, agr_ood=agr_ood)
    for fn, (est, fit) in zip((aline_s, aline_d), fresh):
        got, got_fit = fn(inp)
        assert got.tobytes() == est.tobytes()
        assert got_fit == fit
    assert len(calls) == 3


def test_aline_fits_the_agreement_line_once(monkeypatch, rng):
    """ALine-S then ALine-D on one input fit the agreement line once: the input's
    ``line``, equal to fit_line on its probit pairs."""
    inp = _random_input(rng, n=5, noise=0.1)
    calls = []

    def counted(xs, ys):
        calls.append(1)
        return fit_line(xs, ys)

    monkeypatch.setattr(aglkit.aline, "fit_line", counted)
    assert aline_s(inp)[1] is aline_d(inp)[1] is agreement_line(inp) is inp.line
    assert len(calls) == 1
    assert inp.line == fit_line(*inp.pairs[2:])


def _fit_with_r2(r2):
    return LineFit(slope=1.0, bias=0.0, r_squared=r2, n_points=10,
                   residual_ss=0.0)


def test_gate_boundary_and_reference_rows():
    # strictly-greater rule: exactly at the threshold is rejected
    assert gate(_fit_with_r2(0.95), 0.95) is False
    assert gate(_fit_with_r2(0.9500001), 0.95) is True
    # weak-correlation regime, well under any sensible threshold
    assert gate(_fit_with_r2(0.59), 0.95) is False
    assert gate(_fit_with_r2(0.99), 0.95) is True
    assert gate(_fit_with_r2(0.59), 0.5) is True


def test_estimates_bounded(rng):
    """Even wild lines map through the CDF into [0, 1]."""
    inp = _random_input(rng, n=6, slope=3.0, bias=-4.0, noise=0.3)
    for fn in (aline_s, aline_d):
        est, _ = fn(inp)
        assert np.all((est >= 0.0) & (est <= 1.0))


@pytest.mark.parametrize("n", [3, 4, 7, 30])
def test_aline_d_matches_lstsq_on_pair_design(rng, n):
    """The closed-form solve equals lstsq on the dense pair design matrix."""
    inp = _random_input(rng, n=n, noise=0.1)
    fit = agreement_line(inp)
    idp = probit(inp.id_perf)
    A, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            coeff = np.zeros(n)
            coeff[i] = coeff[j] = 0.5
            A.append(coeff)
            rhs.append(probit(inp.agr_ood[i, j])
                       + fit.slope * ((idp[i] + idp[j]) / 2
                                      - probit(inp.agr_id[i, j])))
    expected, *_ = np.linalg.lstsq(np.array(A), np.array(rhs), rcond=None)
    np.testing.assert_allclose(probit(aline_d(inp)[0]), expected, atol=1e-12)
