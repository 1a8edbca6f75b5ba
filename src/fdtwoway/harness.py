"""Deterministic, seeded experiment pipelines emitting plot-ready CSV.

Each experiment validates its parameters up front, derives one RNG stream
per Monte Carlo trial (seed sequence [base_seed, stream]), and returns an
ExperimentResult whose CSV rendering is byte-identical for a fixed spec.
Monte Carlo averages carry standard errors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import (_check_count, _check_real, _effective_channel,
                      _link_rates, _node_constants, _powers, _receive,
                      _write_csv, _write_json, achievable_rate, db_to_linear, one_way_capacity,
                      sample_channel, tdma_sum_rate)
from .linalg import sample_complex_gaussian
from .nash import (IwfaConfig, circulant_uniqueness_probability, iwfa,
                   miso_ne)
from .pareto import pareto_boundary, zf_beamforming

_REQUIRED = {
    "rate_region": {"beta_db", "gamma_db_list"},
    "ne_vs_tdma": {"eta_direct_db_list", "eta_self_db_sweep", "trials"},
    "uniqueness_probability": {"beta_db_list", "gamma_db_sweep", "trials"},
    "iwfa_convergence": {"gamma_db_list", "step_budgets", "trials"},
    "ber": {"snr_db_sweep", "bits_per_point"},
}
EXPERIMENT_NAMES = tuple(_REQUIRED)

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
                    _check_real(f"param {key!r}", element)
        for key, least in _MIN_COUNTS.items():
            _check_count(f"param {key!r}", merged.get(key, least), least)
        for key in ("P", "gamma_db", "beta_db"):  # beta_db None: ideal
            if key in merged and (key != "beta_db" or merged[key] is not None):
                _check_real(f"param {key!r}", merged[key],
                            positive=key == "P")
        # IwfaConfig validates delta and max_iter
        if self.name == "ne_vs_tdma":
            self.iwfa_cfg = IwfaConfig(merged["delta"], merged["max_iter"])
        elif self.name == "iwfa_convergence":
            budgets = merged["step_budgets"]
            if not budgets:
                raise ValueError("param 'step_budgets' must not be empty")
            for budget in budgets:
                _check_count("param 'step_budgets'", budget, 1)
            self.iwfa_cfg = IwfaConfig(merged["delta"], max(budgets))
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
            _write_json(str(path_or_file) + ".meta.json", self.metadata)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _metadata(spec):
    return {"experiment": spec.name, "params": dict(spec.params),
            "rng_seed": spec.rng_seed, "code_version": __version__}


def _mean_stderr(xs):
    """Sample mean and its standard error (NaN where undefined)."""
    mean = float(np.mean(xs)) if xs else float("nan")
    se = (float(np.std(xs, ddof=1) / np.sqrt(len(xs)))
          if len(xs) > 1 else float("nan"))
    return mean, se


def _binomial_stderr(p, n):
    """Standard error of a proportion p over n trials, floored above 0."""
    return float(np.sqrt(max(p * (1 - p), 1e-12) / n))


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

def _beamformers(profile):
    """The beamformers (w1, w2), w_i w_i^H = Q_i, of a rank-one profile."""
    vals, vecs = np.linalg.eigh(np.stack(profile))
    return tuple(vecs[..., -1] * np.sqrt(np.maximum(vals[:, -1:], 0.0)))


def _zero_forcing(ch):
    """The ZF beamformers (w1, w2) and None, or None and the reason zero
    forcing is infeasible (M = 1 or parallel channels)."""
    try:
        return (zf_beamforming(ch, 1), zf_beamforming(ch, 2)), None
    except ValueError as e:
        return None, str(e)


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
                                     _stream(spec, 0))
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
        zf, reason = _zero_forcing(ch)
        if zf is None:
            zf_skipped[float(gamma_db)] = reason
            continue
        prof = tuple(np.outer(w, w.conj()) for w in zf)
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
    trials = p["trials"]
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
                tr = iwfa(ch, np.zeros((2, M, M)), spec.iwfa_cfg)
                if not tr.converged:
                    excluded += 1
                    excluded_cyclic += tr.cycle is not None
                    continue
                r1, r2 = _link_rates(ch, tr.final, (1, 2))
                ne_rates.append(r1 + r2)
                tdma_rates.append(tdma_sum_rate(ch))
            ne_mean, ne_se = _mean_stderr(ne_rates)
            td_mean, td_se = _mean_stderr(tdma_rates)
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
    trials = p["trials"]
    rows = []
    for bi, beta_db in enumerate(p["beta_db_list"]):
        beta = float(db_to_linear(beta_db))
        for gi, gamma_db in enumerate(p["gamma_db_sweep"]):
            gamma = float(db_to_linear(gamma_db))
            analytic = circulant_uniqueness_probability(M, gamma, beta)
            rng = _stream(spec, 2, bi, gi)
            mc = _circulant_condition_mc(M, gamma, beta, trials, rng)
            rows.append([float(beta_db), float(gamma_db), analytic, mc,
                         _binomial_stderr(mc, trials)])
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
    trials = p["trials"]
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
            tr = iwfa(ch, np.zeros((2, M, M)), spec.iwfa_cfg)
            if tr.converged:
                steps[t] = tr.iterations
        for X in budgets:
            prob = float(np.mean(steps <= X))
            rows.append([float(gamma_db), X, prob,
                         _binomial_stderr(prob, trials)])
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


def _qpsk_ber_one_direction(ch, w1, Q2, n_symbols, rng):
    """Bit error rate of the node-1 -> node-2 transmission under
    simultaneous beamformed QPSK from both nodes.

    The symbols pass through the frame model of node 2's receiver; the
    receiver applies a matched filter on the known effective scalar
    channel and makes minimum-distance (per-quadrant) decisions.
    """
    bits = rng.integers(0, 2, size=(n_symbols, 2))
    x1 = ((1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1])) / np.sqrt(2)
    # node 2 also transmits (its symbols only matter through its front-end noise)
    _, _, y = _receive(ch, 2, Q2, x1[:, None] * w1, rng)
    g = np.sqrt(ch.eta[(1, 2)]) * np.vdot(ch.h(1, 2), w1)
    z = y[:, 0] * np.conj(g) / abs(g)   # phase-align; quadrant decision
    est = np.stack([(z.real < 0).astype(int), (z.imag < 0).astype(int)],
                   axis=1)
    return int(np.sum(est != bits)), 2 * n_symbols


def run_ber(spec):
    """QPSK BER versus SNR for the max-sum-rate, NE and ZF strategies;
    the metadata gives the reason for each strategy left out at an SNR."""
    p = spec.params
    beta = _beta_linear(p["beta_db"])
    gamma = float(db_to_linear(p["gamma_db"]))
    M, P, grid = p["M"], p["P"], p["boundary_grid"]
    n_symbols = p["bits_per_point"] // 2
    rows = []
    zf_skipped, optimal_skipped = {}, {}
    for si, snr_db in enumerate(p["snr_db_sweep"]):
        eta_d = float(db_to_linear(snr_db)) / P
        eta_s = eta_d / gamma
        ch = _symmetric_miso_channel(M, P, beta, eta_d, eta_s,
                                     _stream(spec, 4))
        ne = _beamformers(miso_ne(ch))
        strategies = {"ne": ne}
        zf, reason = _zero_forcing(ch)
        if zf is None:
            zf_skipped[float(snr_db)] = reason
        else:
            strategies["zf"] = zf
        optimal = ne
        if beta > 0:
            best = max(pareto_boundary(ch, grid=(grid, grid)),
                       key=lambda q: q.r1 + q.r2)
            optimal = _beamformers((best.Q1, best.Q2))
        if optimal[0].any():
            strategies["optimal"] = optimal
        else:
            optimal_skipped[float(snr_db)] = (
                "node 1 is silent at the max-sum-rate boundary point")
        for name in sorted(strategies):
            w1, w2 = strategies[name]
            Q2 = np.outer(w2, w2.conj())
            rng = _stream(spec, 5, si, {"ne": 0, "zf": 1, "optimal": 2}[name])
            errs, nbits = _qpsk_ber_one_direction(ch, w1, Q2, n_symbols, rng)
            lo, hi = wilson_interval(errs, nbits)
            # Gaussian approximation at the SINR w1^H W w1 of the N = 1
            # link 1 -> 2, W its effective channel against node 2's Q2
            W = _effective_channel(_node_constants(ch, (1,)),
                                   _powers(Q2)[None])[0]
            analytic = _gaussian_tail(math.sqrt(np.vdot(w1, W @ w1).real))
            rows.append([float(snr_db), name, errs / nbits, lo, hi,
                         analytic, nbits])
    return ExperimentResult(
        columns=["snr_db", "strategy", "ber", "wilson_lo", "wilson_hi",
                 "ber_gaussian_approx", "bits"],
        rows=rows, metadata=dict(_metadata(spec), zf_skipped=zf_skipped,
                                 optimal_skipped=optimal_skipped))
