"""Deterministic, seeded experiment pipelines emitting plot-ready CSV.

Each experiment validates its parameters up front, derives one RNG stream
per Monte Carlo trial (seed sequence [base_seed, stream]), and returns an
ExperimentResult whose CSV rendering is byte-identical for a fixed spec.
Monte Carlo averages carry standard errors.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import (_complex_to_pairs, _link_rates, _receive, _write_csv,
                      achievable_rate, db_to_linear, one_way_capacity,
                      sample_channel, tdma_sum_rate)
from .linalg import sample_complex_gaussian
from .nash import (IwfaConfig, circulant_uniqueness_probability, iwfa,
                   miso_ne)
from .pareto import pareto_boundary, zf_beamforming

EXPERIMENT_NAMES = ("rate_region", "ne_vs_tdma", "uniqueness_probability",
                    "iwfa_convergence", "ber")

_REQUIRED = {
    "rate_region": {"beta_db", "gamma_db_list"},
    "ne_vs_tdma": {"eta_direct_db_list", "eta_self_db_sweep", "trials"},
    "uniqueness_probability": {"beta_db_list", "gamma_db_sweep", "trials"},
    "iwfa_convergence": {"gamma_db_list", "step_budgets", "trials"},
    "ber": {"snr_db_sweep", "bits_per_point"},
}

_DEFAULTS = {
    "rate_region": {"M": 3, "P": 1.0, "grid": 120},
    "ne_vs_tdma": {"M": 3, "N": 3, "P": 10.0, "beta_db": -60.0,
                   "delta": 1e-8, "max_iter": 500},
    "uniqueness_probability": {"M": 3},
    "iwfa_convergence": {"M": 3, "N": 3, "P": 10.0, "beta_db": -60.0,
                         "delta": 1e-8},
    "ber": {"M": 3, "P": 1.0, "beta_db": -60.0, "gamma_db": -40.0,
            "boundary_grid": 60},
}

# integer counts; a BER point needs at least one QPSK symbol (two bits),
# and a z grid needs both of its ends (z = 0 and z = z_max)
_MIN_COUNTS = {"M": 1, "N": 1, "trials": 1, "bits_per_point": 2,
               "grid": 2, "boundary_grid": 2}


def _check_count(key, value, least):
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"param {key!r} must be an integer >= {least}, "
                         f"got {value!r}")


def _check_real(key, value, positive=False):
    low = 0.0 if positive else -math.inf
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not low < value < math.inf):
        kind = "a positive finite number" if positive else "a finite number"
        raise ValueError(f"param {key!r} must be {kind}, got {value!r}")


def _iwfa_config(name, params):
    """The IwfaConfig an IWFA experiment runs with (None for the others);
    IwfaConfig itself validates delta and max_iter."""
    if name == "ne_vs_tdma":
        max_iter = params["max_iter"]
    elif name == "iwfa_convergence":
        budgets = params["step_budgets"]
        if not budgets:
            raise ValueError("param 'step_budgets' must not be empty")
        for budget in budgets:
            _check_count("step_budgets", budget, 1)
        max_iter = max(budgets)
    else:
        return None
    return IwfaConfig(delta=params["delta"], max_iter=max_iter)


@dataclass
class ExperimentSpec:
    name: str
    params: dict
    rng_seed: int = 0
    iwfa_cfg: IwfaConfig = field(init=False, default=None)

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}; "
                             f"expected one of {EXPERIMENT_NAMES}")
        missing = _REQUIRED[self.name] - set(self.params)
        if missing:
            raise ValueError(f"experiment {self.name!r} missing params: "
                             f"{sorted(missing)}")
        merged = dict(_DEFAULTS[self.name])
        merged.update(self.params)
        for key, value in merged.items():
            if (key.endswith(("_list", "_sweep", "_budgets"))
                    and not isinstance(value, (list, tuple))):
                raise ValueError(f"param {key!r} must be a list, "
                                 f"got {value!r}")
            if key.endswith(("_list", "_sweep")):     # dB values
                for element in value:
                    _check_real(key, element)
        for key, least in _MIN_COUNTS.items():
            _check_count(key, merged.get(key, least), least)
        for key in ("P", "gamma_db", "beta_db"):  # beta_db None: ideal
            if key in merged and (key != "beta_db" or merged[key] is not None):
                _check_real(key, merged[key], positive=key == "P")
        self.iwfa_cfg = _iwfa_config(self.name, merged)
        self.params = merged


@dataclass
class ExperimentResult:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path_or_file):
        """CSV to a writable text object, or to a path together with the
        metadata in a <path>.meta.json sidecar."""
        _write_csv(path_or_file, self.columns,
                   ([_fmt(v) for v in row] for row in self.rows))
        if not hasattr(path_or_file, "write"):
            side = str(path_or_file) + ".meta.json"
            with open(side, "w", encoding="utf-8") as f:
                json.dump(self.metadata, f, indent=1, sort_keys=True)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _metadata(spec):
    return {"experiment": spec.name, "params": _jsonable(spec.params),
            "rng_seed": spec.rng_seed, "code_version": __version__}


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _complex_to_pairs(np.atleast_2d(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _stream(spec, *indices):
    return np.random.default_rng([spec.rng_seed, *indices])


def _beta_linear(beta_db):
    """beta_db of None denotes an ideal front end (beta = 0)."""
    return 0.0 if beta_db is None else float(db_to_linear(beta_db))


def run(spec):
    return {"rate_region": run_rate_region,
            "ne_vs_tdma": run_ne_vs_tdma,
            "uniqueness_probability": run_uniqueness_probability,
            "iwfa_convergence": run_iwfa_convergence,
            "ber": run_ber}[spec.name](spec)


def _symmetric_channel(M, N, eta_direct, eta_self, beta, P, rng):
    """Symmetric Rayleigh channel (H12 = H21, H11 = H22) with the given
    direct and self-interference gains, beta and power budget P per node."""
    return sample_channel(M, N, {(1, 1): eta_self, (2, 2): eta_self,
                                 (1, 2): eta_direct, (2, 1): eta_direct},
                          beta, {1: P, 2: P}, rng, symmetric=True)


# ---------------------------------------------------------------- regions

def _symmetric_miso_channel(M, P, beta, eta_direct, eta_self, rng):
    """Symmetric MISO channel with the direct channel normalized to unit
    norm (the standard rate-region setup)."""
    ch = _symmetric_channel(M, 1, eta_direct, eta_self, beta, P, rng)
    h = ch.H[(1, 2)]
    ch.H[(1, 2)] = ch.H[(2, 1)] = h * (1.0 / np.linalg.norm(h))
    return ch


def run_rate_region(spec):
    """Pareto boundary, TDMA line, NE and ZF rate points per gamma."""
    p = spec.params
    beta = _beta_linear(p["beta_db"])
    M, P, grid = p["M"], p["P"], p["grid"]
    rows = []
    zf_skipped = {}
    for gi, gamma_db in enumerate(p["gamma_db_list"]):
        gamma = float(db_to_linear(gamma_db))
        eta_direct = 1.0
        eta_self = eta_direct / gamma
        ch = _symmetric_miso_channel(M, P, beta, eta_direct, eta_self,
                                     np.random.default_rng([spec.rng_seed, 0]))
        for pt in pareto_boundary(ch, grid=(grid, grid)):
            rows.append([float(gamma_db), "boundary", pt.z1, pt.z2,
                         pt.r1, pt.r2])
        c1, c2 = one_way_capacity(ch, 1), one_way_capacity(ch, 2)
        for t in np.linspace(0.0, 1.0, grid):
            rows.append([float(gamma_db), "tdma", t, 1.0 - t,
                         float(t * c1), float((1.0 - t) * c2)])
        ne = miso_ne(ch)
        rows.append([float(gamma_db), "ne", float("nan"), float("nan"),
                     achievable_rate(ch, 1, ne), achievable_rate(ch, 2, ne)])
        try:
            w1, w2 = zf_beamforming(ch, 1), zf_beamforming(ch, 2)
        except ValueError as e:     # M = 1 or parallel channels
            zf_skipped[float(gamma_db)] = str(e)
            continue
        prof = (np.outer(w1, w1.conj()), np.outer(w2, w2.conj()))
        rows.append([float(gamma_db), "zf", float("nan"), float("nan"),
                     achievable_rate(ch, 1, prof),
                     achievable_rate(ch, 2, prof)])
    return ExperimentResult(
        columns=["gamma_db", "kind", "z1", "z2", "r1_bits", "r2_bits"],
        rows=rows, metadata=dict(_metadata(spec), zf_skipped=zf_skipped))


# --------------------------------------------------------------- Fig 7

def run_ne_vs_tdma(spec):
    """Mean NE (IWFA) and TDMA sum rates over seeded channel draws, with a
    crossover self-interference gain per direct gain (linear
    interpolation between adjacent sweep points).

    Channel entries are drawn CN(0, 1/M): the average per-receive-antenna
    link gain is carried entirely by the eta factors, so the dB sweep axis
    reads as a link gain rather than a link gain times array size.
    """
    p = spec.params
    beta = _beta_linear(p["beta_db"])
    M, N, P = p["M"], p["N"], p["P"]
    trials = int(p["trials"])
    rows, cyclic = [], []
    crossovers = {}
    for di, eta_d_db in enumerate(p["eta_direct_db_list"]):
        eta_d = float(db_to_linear(eta_d_db))
        gaps = []
        for si, eta_s_db in enumerate(p["eta_self_db_sweep"]):
            eta_s = float(db_to_linear(eta_s_db))
            ne_rates, tdma_rates = [], []
            excluded = excluded_cyclic = 0
            for t in range(trials):
                ch = _symmetric_channel(M, N, eta_d, eta_s, beta, P,
                                        _stream(spec, 1, di, si, t))
                ch.H = {k: v / np.sqrt(M) for k, v in ch.H.items()}
                init = (np.zeros((M, M)), np.zeros((M, M)))
                tr = iwfa(ch, init, spec.iwfa_cfg)
                if not tr.converged:
                    excluded += 1
                    excluded_cyclic += tr.cycle is not None
                    continue
                r1, r2 = _link_rates(ch, tr.final, (1, 2))
                ne_rates.append(r1 + r2)
                tdma_rates.append(tdma_sum_rate(ch))
            ne_mean = float(np.mean(ne_rates)) if ne_rates else float("nan")
            ne_se = (float(np.std(ne_rates, ddof=1) / np.sqrt(len(ne_rates)))
                     if len(ne_rates) > 1 else float("nan"))
            td_mean = float(np.mean(tdma_rates)) if tdma_rates else float("nan")
            td_se = (float(np.std(tdma_rates, ddof=1) / np.sqrt(len(tdma_rates)))
                     if len(tdma_rates) > 1 else float("nan"))
            rows.append([float(eta_d_db), float(eta_s_db), ne_mean, ne_se,
                         td_mean, td_se, excluded])
            cyclic.append(excluded_cyclic)
            gaps.append((float(eta_s_db), ne_mean - td_mean))
        crossovers[float(eta_d_db)] = _crossover(gaps)
    meta = _metadata(spec)
    meta["crossover_eta_self_db"] = crossovers
    # per CSV row: excluded trials whose IWFA run revisited a profile
    meta["excluded_cyclic"] = cyclic
    return ExperimentResult(
        columns=["eta_direct_db", "eta_self_db", "ne_sum_rate",
                 "ne_stderr", "tdma_sum_rate", "tdma_stderr", "excluded"],
        rows=rows, metadata=meta)


def _crossover(gaps):
    """First sign change of NE - TDMA along the sweep, linearly
    interpolated; None if the gap never changes sign."""
    for (x0, g0), (x1, g1) in zip(gaps, gaps[1:]):
        if np.isnan(g0) or np.isnan(g1):
            continue
        if g0 >= 0.0 >= g1 and g0 != g1:
            return x0 + (x1 - x0) * g0 / (g0 - g1)
    return None


# ------------------------------------------------------- uniqueness prob

def _circulant_condition_mc(M, gamma, beta, trials, rng):
    """Monte Carlo probability of the circulant max-ratio uniqueness
    condition over symmetric circulant channel draws."""
    g11 = sample_complex_gaussian((trials, M), rng)
    g21 = sample_complex_gaussian((trials, M), rng)
    s11 = np.abs(np.fft.fft(g11, axis=1))
    s21 = np.abs(np.fft.fft(g21, axis=1))
    max_ratio = (s11 / s21).max(axis=1)
    # symmetric channel: the condition squares to max_ratio < sqrt(gamma/beta)
    return float(np.mean(max_ratio < np.sqrt(gamma / beta)))


def run_uniqueness_probability(spec):
    """Analytic uniqueness-probability curve plus its Monte Carlo check."""
    p = spec.params
    M = p["M"]
    trials = int(p["trials"])
    rows = []
    for bi, beta_db in enumerate(p["beta_db_list"]):
        beta = float(db_to_linear(beta_db))
        for gi, gamma_db in enumerate(p["gamma_db_sweep"]):
            gamma = float(db_to_linear(gamma_db))
            analytic = circulant_uniqueness_probability(M, gamma, beta)
            rng = _stream(spec, 2, bi, gi)
            mc = _circulant_condition_mc(M, gamma, beta, trials, rng)
            se = float(np.sqrt(max(mc * (1 - mc), 1e-12) / trials))
            rows.append([float(beta_db), float(gamma_db), analytic, mc, se])
    return ExperimentResult(
        columns=["beta_db", "gamma_db", "p_analytic", "p_monte_carlo",
                 "mc_stderr"],
        rows=rows, metadata=_metadata(spec))


# ------------------------------------------------------ IWFA convergence

def run_iwfa_convergence(spec):
    """Empirical probability that sync IWFA converges within X steps."""
    p = spec.params
    beta = _beta_linear(p["beta_db"])
    M, N, P = p["M"], p["N"], p["P"]
    trials = int(p["trials"])
    budgets = sorted(p["step_budgets"])
    rows = []
    for gi, gamma_db in enumerate(p["gamma_db_list"]):
        gamma = float(db_to_linear(gamma_db))
        eta_d = 1.0
        eta_s = eta_d / gamma
        steps = np.full(trials, np.inf)
        for t in range(trials):
            ch = _symmetric_channel(M, N, eta_d, eta_s, beta, P,
                                    _stream(spec, 3, gi, t))
            tr = iwfa(ch, (np.zeros((M, M)), np.zeros((M, M))),
                      spec.iwfa_cfg)
            if tr.converged:
                steps[t] = tr.iterations
        for X in budgets:
            prob = float(np.mean(steps <= X))
            se = float(np.sqrt(max(prob * (1 - prob), 1e-12) / trials))
            rows.append([float(gamma_db), X, prob, se])
    return ExperimentResult(
        columns=["gamma_db", "step_budget", "p_converged", "stderr"],
        rows=rows, metadata=_metadata(spec))


# ---------------------------------------------------------------- BER

WILSON_Z = 2.0


def wilson_interval(errors, n):
    """Wilson score interval for a binomial proportion, z = WILSON_Z."""
    if n == 0:
        return 0.0, 1.0
    z = WILSON_Z
    phat = errors / n
    denom = 1.0 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2)) / denom
    return float(max(center - half, 0.0)), float(min(center + half, 1.0))


def _gaussian_tail(x):
    """Q(x) = P(Z > x) for a standard normal Z: erfc(x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(x * math.sqrt(0.5))


def _qpsk_ber_one_direction(ch, w1, w2, n_symbols, rng):
    """Bit error rate of the node-1 -> node-2 transmission under
    simultaneous beamformed QPSK from both nodes.

    The symbols pass through the frame model of node 2's receiver; the
    receiver applies a matched filter on the known effective scalar
    channel and makes minimum-distance (per-quadrant) decisions.
    """
    bits = rng.integers(0, 2, size=(n_symbols, 2))
    x1 = ((1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1])) / np.sqrt(2)
    # node 2 also transmits (its symbols only matter through its front-end noise)
    _, _, y = _receive(ch, 2, np.outer(w2, w2.conj()), x1[:, None] * w1, rng)
    g = np.sqrt(ch.eta[(1, 2)]) * np.vdot(ch.h(1, 2), w1)
    z = y[:, 0] * np.conj(g) / abs(g)   # phase-align; quadrant decision
    est = np.stack([(z.real < 0).astype(int), (z.imag < 0).astype(int)],
                   axis=1)
    return int(np.sum(est != bits)), 2 * n_symbols


def _max_sum_rate_weights(ch, grid):
    pts = pareto_boundary(ch, grid=(grid, grid))
    best = max(pts, key=lambda q: q.r1 + q.r2)
    vals1, vecs1 = np.linalg.eigh(best.Q1)
    vals2, vecs2 = np.linalg.eigh(best.Q2)
    w1 = vecs1[:, -1] * np.sqrt(max(vals1[-1], 0.0))
    w2 = vecs2[:, -1] * np.sqrt(max(vals2[-1], 0.0))
    return w1, w2


def run_ber(spec):
    """QPSK BER versus SNR for the max-sum-rate, NE and ZF strategies."""
    p = spec.params
    beta = _beta_linear(p["beta_db"])
    gamma = float(db_to_linear(p["gamma_db"]))
    M, P = p["M"], p["P"]
    n_symbols = int(p["bits_per_point"]) // 2
    rows = []
    zf_skipped = {}
    for si, snr_db in enumerate(p["snr_db_sweep"]):
        eta_d = float(db_to_linear(snr_db)) / P
        eta_s = eta_d / gamma
        ch = _symmetric_miso_channel(M, P, beta, eta_d, eta_s,
                                     np.random.default_rng([spec.rng_seed, 4]))
        ne = miso_ne(ch)
        vals, vecs = np.linalg.eigh(ne[0])
        w_ne = vecs[:, -1] * np.sqrt(max(vals[-1], 0.0))
        strategies = {"ne": (w_ne, w_ne)}
        try:
            w_zf = zf_beamforming(ch, 1)
            strategies["zf"] = (w_zf, zf_beamforming(ch, 2))
        except ValueError as e:
            zf_skipped[float(snr_db)] = str(e)
        if beta > 0:
            strategies["optimal"] = _max_sum_rate_weights(
                ch, p["boundary_grid"])
        else:
            strategies["optimal"] = (w_ne, w_ne)
        for name in sorted(strategies):
            w1, w2 = strategies[name]
            rng = _stream(spec, 5, si, {"ne": 0, "zf": 1, "optimal": 2}[name])
            errs, nbits = _qpsk_ber_one_direction(ch, w1, w2, n_symbols, rng)
            lo, hi = wilson_interval(errs, nbits)
            g2 = ch.eta[(1, 2)] * abs(np.vdot(ch.h(1, 2), w1)) ** 2
            sigma2 = 1.0 + ch.beta * ch.eta[(2, 2)] * float(
                (np.abs(ch.h(2, 2)) ** 2 * np.abs(w2) ** 2).sum())
            analytic = _gaussian_tail(math.sqrt(g2 / sigma2))
            rows.append([float(snr_db), name, errs / nbits, lo, hi,
                         analytic, nbits])
    return ExperimentResult(
        columns=["snr_db", "strategy", "ber", "wilson_lo", "wilson_hi",
                 "ber_gaussian_approx", "bits"],
        rows=rows, metadata=dict(_metadata(spec), zf_skipped=zf_skipped))
