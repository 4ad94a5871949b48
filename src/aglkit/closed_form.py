"""Closed-form agreements and accuracies of a ``SynthConfig`` ensemble.

P(both correct) is the bivariate normal CDF at the latent correlation r,
in Owen's (1956) closed form via Owen's T function; the wrong-label match
rate follows from the config's copy chance and distractor weights.
``expected_inputs`` gives an ensemble's expected report inputs on both splits;
``exact_agl_inputs`` puts their ID half on the configured line exactly.
Phi, its inverse and Owen's T are ``scipy.special``'s ``ndtr``, ``ndtri``
and ``owens_t``: this is the only aglkit module that imports scipy, so
sampling ensembles with ``aglkit.synth`` does not load it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .synth import SynthConfig, latent_correlation, truth_for


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


def both_correct_probability(theta_i, theta_j, correlation):
    """P(z_i <= theta_i, z_j <= theta_j) for latents with the given correlation,
    elementwise over broadcastable arrays: the bivariate normal CDF Phi2(h, k; r)
    = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta (Owen, 1956)."""
    h, k, rho = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                      for x in (theta_i, theta_j, correlation)))
    rho_c = np.clip(rho, 0.0, 1.0)
    one_minus = 1.0 - rho_c  # exact for rho >= 0.5, so k - rho*h keeps its digits near rho = 1
    spread = np.sqrt(one_minus * (1.0 + rho_c))
    with np.errstate(divide="ignore", invalid="ignore"):  # at h = 0, k = 0 or rho = 1; replaced
        t_h = _owen_term(h, k, one_minus, spread)
        t_k = _owen_term(k, h, one_minus, spread)
    beta = 0.5 * ((h * k < 0) | ((h * k == 0) & (h + k < 0)))
    p = 0.5 * (ndtr(h) + ndtr(k)) - t_h - t_k - beta
    p = np.where((h == 0) & (k == 0), 0.25 + np.arcsin(rho_c) / (2.0 * math.pi), p)
    p = np.where(rho >= 1.0, ndtr(np.minimum(h, k)), p)
    p = np.where(rho <= 0.0, ndtr(h) * ndtr(k), p)
    return p[()]  # a 0-d result as a numpy scalar


def _owen_term(h, k, one_minus, spread):
    """T(h, a_h) with a_h = (k - rho*h) / (h*sqrt(1 - rho**2)); its h -> 0 limit is sign(k)/4."""
    a = ((k - h) + one_minus * h) / (h * spread)
    return np.where(h == 0, 0.25 * np.sign(k), owens_t(h, a))


def _agreements(config: SynthConfig, split: str):
    """One split's (n, n) agreements: P(both right) + m * P(both wrong); 1 on the diagonal."""
    n = config.n_models
    iu = np.triu_indices(n, k=1)
    theta_i, theta_j = config.threshold(np.arange(n), split)[np.stack(iu)]
    p11 = both_correct_probability(theta_i, theta_j, latent_correlation(config.diversity))
    m = wrong_match_probability(config.n_classes, config.distractor_coherence, config.diversity)
    agr = np.ones((n, n))
    agr[iu] = agr[iu[::-1]] = p11 + m * (1.0 - ndtr(theta_i) - ndtr(theta_j) + p11)
    return agr


def expected_inputs(config: SynthConfig):
    """(id_acc, agr_id, agr_ood, true_ood_acc) as the generator expects them, no line imposed."""
    config.validate()
    id_acc, ood_acc = truth_for(config)
    return id_acc, _agreements(config, "id"), _agreements(config, "ood"), ood_acc


def exact_agl_inputs(config: SynthConfig):
    """``expected_inputs``' ID half with its OOD half defined by the configured
    probit line, so accuracy and agreement share the exact slope/bias."""
    config.validate()
    id_acc, agr_id = truth_for(config)[0], _agreements(config, "id")
    a, b = config.line_slope, config.line_bias
    iu = np.triu_indices(config.n_models, k=1)
    agr_ood = np.ones_like(agr_id)
    agr_ood[iu] = agr_ood[iu[::-1]] = ndtr(a * ndtri(agr_id[iu]) + b)
    return id_acc, agr_id, agr_ood, ndtr(a * ndtri(id_acc) + b)
