"""Analytic upper bounds on the GN condition number, each returned as a
report of its value and kappa(Sigma) (NaN for the Leaky-ReLU bound); the
depth bounds add their per-layer terms, `bound_one_hidden` its weight
beta_w = s_min(W)^2 / (s_min(W)^2 + s_min(V)^2) in `extras`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, DegenerateDataError
from .linalg import (
    as_matrix,
    pseudo_condition_number,
    svdvals,
    sym_eigendecompose,
)
from .network import Params, TeacherSpec, layer_products

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class LayerTerm:
    """One ell-term of a convex-combination depth bound."""

    ell: int
    kappa2_above: float  # kappa^2 of the product of layers above ell
    kappa2_below: float  # kappa^2 of the product of layers below ell
    sig2min_above: float
    sig2min_below: float
    alpha_l: float
    gamma_l: float
    weighted: float  # gamma_l * kappa2_above * kappa2_below


@dataclass(frozen=True)
class BoundReport:
    value: float
    kappa_sigma: float
    terms: tuple[LayerTerm, ...] = ()
    extras: dict = field(default_factory=dict)


def _kappa_sigma(sigma) -> float:
    return pseudo_condition_number(sym_eigendecompose(as_matrix(sigma)))


def bound_one_hidden(W, V, sigma) -> BoundReport:
    """One-hidden-layer linear bound: kappa(Sigma) times the ratio of summed
    extreme squared singular values of the two layers."""
    w = as_matrix(W, "W")
    v = as_matrix(V, "V")
    sw = svdvals(w)
    sv = svdvals(v)
    den = sw[-1] ** 2 + sv[-1] ** 2
    if den <= 0:
        raise DegenerateDataError("both layers are rank-deficient; bound undefined")
    beta_w = sw[-1] ** 2 / den
    ks = _kappa_sigma(sigma)
    value = ks * (sw[0] ** 2 + sv[0] ** 2) / den
    return BoundReport(value=value, kappa_sigma=ks, extras={"beta_w": beta_w})


def _depth_terms(products) -> list[LayerTerm]:
    """Per-layer terms from `products = layer_products(params, beta)`."""
    raw = []
    for ell, pair in enumerate(zip(*products), start=1):
        extremes = []
        for p in pair:
            s = svdvals(p)
            if s[0] == 0:
                raise AssumptionError(
                    f"a partial product at layer {ell} is zero, so its kappa is "
                    "0/0; bound undefined")
            # NumPy's matrix_rank cutoff: a singular value at or below it is
            # rounding noise, so the product is rank-deficient.
            rank_deficient = s[-1] <= max(p.shape) * _EPS * s[0]
            extremes.append((s[0], 0.0 if rank_deficient else s[-1]))
        raw.append((ell, *extremes))
    alphas = np.array([(sa[1] ** 2) * (sb[1] ** 2) for _, sa, sb in raw])
    total = alphas.sum()
    if total == 0:
        raise AssumptionError(
            "every alpha_l = 0 (rank-deficient partial products); bound undefined")
    gammas = alphas / total
    terms = []
    for (ell, (amax, amin), (bmax, bmin)), alpha_l, gamma_l in zip(
            raw, alphas, gammas):
        k2a = (amax / amin) ** 2 if amin else math.inf
        k2b = (bmax / bmin) ** 2 if bmin else math.inf
        # gamma_l * k2a * k2b = (amax * bmax)^2 / total, which stays finite
        # where a rank-deficient product makes gamma_l = 0 and its kappa^2
        # infinite; only the max bound becomes infinite.
        weighted = gamma_l * k2a * k2b if alpha_l else (amax * bmax) ** 2 / total
        terms.append(
            LayerTerm(
                ell=ell,
                kappa2_above=k2a,
                kappa2_below=k2b,
                sig2min_above=amin ** 2,
                sig2min_below=bmin ** 2,
                alpha_l=float(alpha_l),
                gamma_l=float(gamma_l),
                weighted=float(weighted),
            )
        )
    return terms


def depth_bounds(sigma, products):
    """The (convex, max) depth bounds from `layer_products(params, beta)`."""
    terms = tuple(_depth_terms(products))
    ks = _kappa_sigma(sigma)
    convex = float(ks * sum(t.weighted for t in terms))
    maximum = float(ks * max(t.kappa2_above * t.kappa2_below for t in terms))
    return (BoundReport(value=convex, kappa_sigma=ks, terms=terms),
            BoundReport(value=maximum, kappa_sigma=ks, terms=terms))


def bound_deep_convex(params: Params, sigma) -> BoundReport:
    return depth_bounds(sigma, layer_products(params, 0.0))[0]


def bound_deep_max(params: Params, sigma) -> BoundReport:
    return depth_bounds(sigma, layer_products(params, 0.0))[1]


def bound_residual_convex(params: Params, beta: float, sigma) -> BoundReport:
    return depth_bounds(sigma, layer_products(params, beta))[0]


def bound_residual_max(params: Params, beta: float, sigma) -> BoundReport:
    return depth_bounds(sigma, layer_products(params, beta))[1]


def residual_product_bound(singular_spectra, beta: float, ell: int) -> float:
    """Product over layers i != ell of ((s_max_i + beta)/(s_min_i + beta))^2.

    Meaningful only under the aligned-SVD initializer, where adding beta*I
    shifts every singular value exactly.
    """
    value = 1.0
    for i, s in enumerate(singular_spectra, start=1):
        if i == ell:
            continue
        s = np.asarray(s, dtype=np.float64)
        value *= ((s.max() + beta) / (s.min() + beta)) ** 2
    return value


def bound_leaky(W, V, X, alpha: float, gamma) -> BoundReport:
    """Leaky-ReLU one-hidden bound from the data Gram and the unit-weight
    Gram matrix produced by gn_leaky."""
    w = as_matrix(W, "W")
    x = as_matrix(X, "X")
    g = as_matrix(gamma, "gamma")
    n = x.shape[1]
    k = w.shape[0]
    sx = svdvals(x)
    sw = svdvals(w)
    # lambda_min of the n x n Gram X^T X (zero when n exceeds the rank of X).
    lam_min_xtx = sx[-1] ** 2 if sx.size >= n else 0.0
    lam_min_wwt = sw[-1] ** 2 if sw.size >= k else 0.0
    gspec = sym_eigendecompose(g)
    lam_max_g = gspec.max
    lam_min_g = max(gspec.min, 0.0)
    num = sx[0] ** 2 * sw[0] ** 2 + lam_max_g
    den = alpha**2 * lam_min_xtx * lam_min_wwt + lam_min_g
    if den <= 0:
        raise DegenerateDataError("leaky bound denominator is zero")
    return BoundReport(value=num / den, kappa_sigma=float("nan"))


@dataclass(frozen=True)
class GaussianBound:
    value: float
    confidence: float
    vacuous: bool = False


def bound_gaussian_nonasymptotic(m: int, d: int, k: int, sigma_w2: float,
                                 sigma_v2: float, t: float,
                                 kappa_sigma: float = 1.0) -> GaussianBound:
    """Non-asymptotic Gaussian-initialization bound with its confidence level.

    Vacuous parameter regimes (t too large for the width) are flagged
    rather than raised, so sweeps can grey them out.
    """
    confidence = max(0.0, 1.0 - 8.0 * math.exp(-t * t / 2.0))
    lo_k = math.sqrt(m) - math.sqrt(k) - t
    lo_d = math.sqrt(m) - math.sqrt(d) - t
    if m < max(d, k) or lo_k <= 0 or lo_d <= 0:
        return GaussianBound(value=math.inf, confidence=confidence, vacuous=True)
    num = (
        sigma_w2 * (math.sqrt(m) + math.sqrt(k) + t) ** 2
        + sigma_v2 * (math.sqrt(m) + math.sqrt(d) + t) ** 2
    )
    den = sigma_w2 * lo_k**2 + sigma_v2 * lo_d**2
    return GaussianBound(value=kappa_sigma * num / den, confidence=confidence)


def bound_gaussian_asymptotic(m: int, d: int, k: int, sigma_w2: float,
                              sigma_v2: float, kappa_sigma: float = 1.0) -> float:
    """Wide-layer limit of the Gaussian bound (Marchenko-Pastur edges)."""
    if m <= max(d, k):
        raise AssumptionError("asymptotic bound requires m > max(d, k)")
    yk = math.sqrt(k / m)
    yd = math.sqrt(d / m)
    num = sigma_w2 * (1 + yk) ** 2 + sigma_v2 * (1 + yd) ** 2
    den = sigma_w2 * (1 - yk) ** 2 + sigma_v2 * (1 - yd) ** 2
    return kappa_sigma * num / den


def bound_functional_hessian(W, V, teacher: TeacherSpec, sigma) -> float:
    """kappa bound on the functional Hessian in the teacher-student setting."""
    w = as_matrix(W, "W")
    v = as_matrix(V, "V")
    resid = w @ v - teacher.Z
    s = svdvals(resid)
    if s[0] <= 0:
        raise DegenerateDataError("zero residual matrix; kappa(H_F) undefined")
    if s[-1] <= 0:
        raise DegenerateDataError("rank-deficient residual matrix")
    return float(s[0] / s[-1]) * _kappa_sigma(sigma)


def self_balancing_report(params: Params, sigma):
    """Per-ell table exposing the self-balancing of the convex bound's terms.

    The weighted terms times kappa(Sigma) sum to the convex bound's value.
    """
    report = bound_deep_convex(params, sigma)
    return report.terms, report.kappa_sigma
