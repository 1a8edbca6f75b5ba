"""Two-way full-duplex channel model.

Conventions: all gains (eta, beta) are linear inside this module; dB
conversion happens only at config boundaries via db_to_linear/linear_to_db.
Rates are log base 2 (bits per channel use). Node indices are 1 and 2.
"""

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .linalg import sample_complex_gaussian, water_fill


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


@dataclass
class FdChannelModel:
    """Channel matrices, gains and budgets of a two-node FD link.

    H is a dict keyed by (i, j) with N x M arrays: H[(i, j)] carries the
    transmission from node i's transmitter to node j's receiver, so
    H[(1, 1)], H[(2, 2)] are the self-interference channels. eta holds the
    matching linear power gains, beta the transmit front-end noise level,
    P the per-node power budgets {1: P1, 2: P2}.
    """

    H: dict
    eta: dict
    beta: float
    P: dict
    M: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        shapes = {k: np.asarray(v).shape for k, v in self.H.items()}
        if set(self.H) != {(1, 1), (1, 2), (2, 1), (2, 2)}:
            raise ValueError("H must contain the four links (i,j)")
        if len(set(shapes.values())) != 1:
            raise ValueError(f"channel matrices disagree in shape: {shapes}")
        self.N, self.M = next(iter(shapes.values()))
        self.H = {k: np.asarray(v, dtype=complex) for k, v in self.H.items()}
        if any(e <= 0 for e in self.eta.values()):
            raise ValueError("all eta must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if any(p <= 0 for p in self.P.values()):
            raise ValueError("power budgets must be positive")

    def gamma(self, i):
        """Direct-to-self-interference gain ratio eta_ji / eta_ii."""
        j = other(i)
        return self.eta[(j, i)] / self.eta[(i, i)]

    def h(self, i, j):
        """MISO channel vector h = H^H (requires N = 1): the 1 x M channel
        matrix acts as h^H, so the scalar received signal is h^H s."""
        if self.N != 1:
            raise ValueError("vector channels only defined for N = 1")
        return self.H[(i, j)].conj().ravel()


def other(i):
    return 2 if i == 1 else 1


def _herm(A):
    return A.conj().swapaxes(-1, -2)


def _powers(Q):
    """Transmit powers diag(Q) of each strategy of a stack."""
    return Q.diagonal(axis1=-2, axis2=-1).real


def _strategies(ch, Qs):
    """The strategies Qs as one complex array whose last two axes are
    M x M."""
    Q = np.array(Qs, dtype=complex)
    if Q.shape[-2:] != (ch.M, ch.M):
        raise ValueError(f"Q has shape {Q.shape}, expected (..., {ch.M}, "
                         f"{ch.M})")
    return Q


def _node_constants(ch, nodes):
    """Constants of the links i -> j = other(i) for i in `nodes`, each
    stacked on a leading axis: (H_ij, eta_ij H_ij^H, H_jj, H_jj^H,
    beta eta_jj, P_i)."""
    links = [(i, other(i)) for i in nodes]
    H_dir = np.array([ch.H[link] for link in links])
    H_self = np.array([ch.H[(j, j)] for _, j in links])
    eta_dir = np.array([ch.eta[link] for link in links])
    c_self = np.array([ch.beta * ch.eta[(j, j)] for _, j in links])
    return (H_dir, eta_dir[:, None, None] * _herm(H_dir), H_self,
            _herm(H_self), c_self[:, None, None],
            np.array([float(ch.P[i]) for i in nodes]))


def _noise_covariance(c, H, H_h, d):
    """Sigma = I + c (H * d) @ H^H for transmit powers d = diag(Q) and
    H_h = H^H, over any leading batch axes of the arguments."""
    S = c * ((H * d[..., None, :]) @ H_h)
    n = S.shape[-1]
    S.reshape(-1, n * n)[:, ::n + 1] += 1.0
    return S


def _effective_channel(nodes, d):
    """W = eta_ij H_ij^H Sigma_j^-1 H_ij of the links of
    _node_constants(ch, nodes) against the receivers' transmit powers d
    (..., links, M); leading axes of d are a batch of profiles."""
    H_dir, eta_H_dir_h, H_self, H_self_h, c_self, _ = nodes
    return eta_H_dir_h @ np.linalg.solve(
        _noise_covariance(c_self, H_self, H_self_h, d), H_dir)


def _log2det(W, Q):
    """max(log2 det(I + W Q), 0) over the leading batch axes."""
    _, logdet = np.linalg.slogdet(np.eye(W.shape[-1]) + W @ Q)
    return np.maximum(logdet / np.log(2.0), 0.0)


def interference_covariance(ch, i, Q_i):
    """Covariance Sigma_i = I + beta eta_ii H_ii diag(Q_i) H_ii^H of the
    noise-plus-residual-self-interference seen at receiver i."""
    Q_i = _strategies(ch, Q_i)
    Hii = ch.H[(i, i)]
    return _noise_covariance(ch.beta * ch.eta[(i, i)], Hii, Hii.conj().T,
                             _powers(Q_i))


def achievable_rate(ch, i, profile):
    """Rate of the transmission from node i to node j (bits/channel use):
    log2 det(I + eta_ij H_ij^H Sigma_j^-1 H_ij Q_i).

    profile is (Q1, Q2), each an M x M strategy or a stack (..., M, M) of
    them; returns a float for one profile and an array over the stack
    otherwise.
    """
    rate = _link_rates(ch, profile, (i,))[..., 0]
    return float(rate) if rate.ndim == 0 else rate


def _link_rates(ch, profile, nodes):
    """Rates of the links i -> other(i), i in `nodes`, stacked on the last
    axis, for a profile (Q1, Q2) of strategies or stacks of them."""
    Q = _strategies(ch, profile)
    d = np.stack([_powers(Q[other(i) - 1]) for i in nodes], axis=-2)
    W = _effective_channel(_node_constants(ch, nodes), d)
    return _log2det(W, np.stack([Q[i - 1] for i in nodes], axis=-3))


def sample_channel(M, N, eta, beta, P, rng, symmetric=False):
    """Random Rayleigh-fading channel model; deterministic per generator
    state. With symmetric=True, H12 = H21 and H11 = H22."""
    H11 = sample_complex_gaussian((N, M), rng)
    H12 = sample_complex_gaussian((N, M), rng)
    if symmetric:
        H22, H21 = H11, H12
    else:
        H21 = sample_complex_gaussian((N, M), rng)
        H22 = sample_complex_gaussian((N, M), rng)
    H = {(1, 1): H11, (1, 2): H12, (2, 1): H21, (2, 2): H22}
    return FdChannelModel(H=H, eta=dict(eta), beta=float(beta), P=dict(P))


def one_way_capacity(ch, i):
    """Half-duplex capacity of the i -> j link against thermal noise only:
    max over trace(Q) <= P_i of log2 det(I + eta_ij H_ij Q H_ij^H)."""
    j = other(i)
    Hij = ch.H[(i, j)]
    G = ch.eta[(i, j)] * (Hij.conj().T @ Hij)
    gains = np.linalg.eigvalsh((G + G.conj().T) / 2)
    powers, _ = water_fill(gains, ch.P[i])
    return float(np.log2(1.0 + gains * powers).sum())


def tdma_sum_rate(ch):
    """Half-duplex TDMA baseline: equal time split, full per-slot power,
    no self-interference."""
    return 0.5 * one_way_capacity(ch, 1) + 0.5 * one_way_capacity(ch, 2)


def _receive(ch, i, Q_i, s_j, rng):
    """(e_i, n_i, y_i) at node i for beamformed symbols s_j (..., M) from
    node j = other(i), leading axes being symbols: draws the front-end noise
    e_i ~ CN(0, beta diag(Q_i)), then n_i ~ CN(0, I), per symbol, and forms
    y_i = sqrt(eta_ji) H_ji s_j + sqrt(eta_ii) H_ii e_i + n_i."""
    j = other(i)
    batch = s_j.shape[:-1]
    std = np.sqrt(ch.beta * np.maximum(_powers(Q_i), 0.0))
    e = std * sample_complex_gaussian((*batch, ch.M), rng)
    n = sample_complex_gaussian((*batch, ch.N), rng)
    y = (s_j @ (np.sqrt(ch.eta[(j, i)]) * ch.H[(j, i)]).T
         + e @ (np.sqrt(ch.eta[(i, i)]) * ch.H[(i, i)]).T + n)
    return e, n, y


def simulate_frame(ch, profile, s1, s2, rng):
    """Symbol-level channel uses under the strategies of `profile`.

    s_i are node i's intended transmit M-vectors (already beamformed), one
    per leading index of a stack (K, M). Returns a dict with the front-end
    noise draws e, thermal noise n and post-cancellation received signals
    y per node: y_i = sqrt(eta_ji) H_ji s_j + sqrt(eta_ii) H_ii e_i + n_i.
    """
    s = {1: np.asarray(s1, dtype=complex), 2: np.asarray(s2, dtype=complex)}
    e, n, y = {}, {}, {}
    for i in (1, 2):
        e[i], n[i], y[i] = _receive(ch, i, np.asarray(profile[i - 1]),
                                    s[other(i)], rng)
    return {"s": s, "e": e, "n": n, "y": y}


def _complex_to_pairs(A):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(A, dtype=complex)]


def _pairs_to_complex(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def channel_to_dict(ch):
    """JSON-shaped representation: dimensions, row-major [re, im] entries,
    gains in dB."""
    return {
        "M": ch.M,
        "N": ch.N,
        "H": {f"{i}{j}": _complex_to_pairs(ch.H[(i, j)])
              for (i, j) in sorted(ch.H)},
        "eta_db": {f"{i}{j}": float(linear_to_db(ch.eta[(i, j)]))
                   for (i, j) in sorted(ch.eta)},
        "beta_db": None if ch.beta == 0 else float(linear_to_db(ch.beta)),
        "P": {str(i): float(ch.P[i]) for i in (1, 2)},
    }


def channel_from_dict(d):
    H = {(int(k[0]), int(k[1])): _pairs_to_complex(v) for k, v in d["H"].items()}
    eta = {(int(k[0]), int(k[1])): float(db_to_linear(v))
           for k, v in d["eta_db"].items()}
    beta = 0.0 if d["beta_db"] is None else float(db_to_linear(d["beta_db"]))
    P = {int(k): float(v) for k, v in d["P"].items()}
    return FdChannelModel(H=H, eta=eta, beta=beta, P=P)


def save_channel(ch, path):
    _write_json(path, channel_to_dict(ch))


def load_channel(path):
    with open(path, encoding="utf-8") as f:
        return channel_from_dict(json.load(f))


def _write_csv(path_or_file, header, rows):
    """Write a CSV header and rows to a writable text object, or to a new
    file at a path."""
    if hasattr(path_or_file, "write"):
        w = csv.writer(path_or_file)
        w.writerow(header)
        w.writerows(rows)
        return
    with open(path_or_file, "w", encoding="utf-8", newline="") as f:
        _write_csv(f, header, rows)


def _json_default(obj):
    """JSON form of what json cannot encode: dataclasses as dicts, numpy
    arrays as rows of [re, im] pairs, numpy scalars as Python ones."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, np.ndarray):
        return _complex_to_pairs(np.atleast_2d(obj))
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path_or_file, obj):
    """Write obj as JSON (indent 1, sorted keys, final newline) to a
    writable text object, or to a new file at a path."""
    if hasattr(path_or_file, "write"):
        json.dump(obj, path_or_file, indent=1, sort_keys=True,
                  default=_json_default)
        path_or_file.write("\n")
        return
    with open(path_or_file, "w", encoding="utf-8") as f:
        _write_json(f, obj)


def _check_count(name, value, least):
    """Raise ValueError unless value is an integer >= least, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")


def _check_real(name, value, positive=False):
    """Raise ValueError unless value is a finite real, > 0 if positive."""
    low = 0.0 if positive else -math.inf
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not low < value < math.inf):
        kind = "a positive finite number" if positive else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
