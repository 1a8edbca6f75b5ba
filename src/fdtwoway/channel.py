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
    with np.errstate(over="ignore"):    # inf, which FdChannelModel rejects
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def _beta_linear(beta_db):
    """beta_db of None denotes an ideal front end (beta = 0)."""
    return 0.0 if beta_db is None else float(db_to_linear(beta_db))


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


@dataclass
class FdChannelModel:
    """Channel matrices, gains and budgets of a two-node FD link.

    H is a dict keyed by (i, j) with N x M arrays: H[(i, j)] carries the
    transmission from node i's transmitter to node j's receiver, so
    H[(1, 1)], H[(2, 2)] are the self-interference channels. eta holds the
    matching linear power gains, beta the transmit front-end noise level,
    P the per-node power budgets {1: P1, 2: P2}. Construction checks these
    for every caller and raises ValueError for a channel out of range.
    """

    H: dict
    eta: dict
    beta: float
    P: dict
    M: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        self.H = {k: np.asarray(v, dtype=complex) for k, v in self.H.items()}
        shapes = {k: v.shape for k, v in self.H.items()}
        shape = shapes.get((1, 1), ())
        if (set(shapes) != {(1, 1), (1, 2), (2, 1), (2, 2)} or len(shape) != 2
                or 0 in shape or set(shapes.values()) != {shape}
                or not np.isfinite(np.array(list(self.H.values()))).all()):
            raise ValueError(f"H must map each link (i,j) to a finite N x M "
                             f"matrix, N, M >= 1, of one shape: {shapes}")
        self.N, self.M = shape
        gains = [*self.eta.values(), *self.P.values()]
        if (set(self.eta) != set(self.H) or set(self.P) != {1, 2}
                or not all(0 < g < math.inf for g in gains)
                or not 0 <= self.beta < math.inf):
            raise ValueError(f"need finite eta > 0, P > 0 and beta >= 0: "
                             f"eta {self.eta}, beta {self.beta}, P {self.P}")

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


def _pairs_to_complex(name, rows):
    """The matrix that _complex_to_pairs wrote: a list of equally long rows
    of [re, im] pairs of numbers. Raises ValueError for anything else."""
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == len(rows[0])
                    for row in rows)):
        raise ValueError(f"{name} must be a list of equally long rows of "
                         f"[re, im] pairs")
    for row in rows:
        for pair in row:
            _check_value(f"{name} entry", "pair", pair)
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
    """The channel of a section that channel_to_dict wrote, parsed against
    CHANNEL and checked by FdChannelModel; M and N, where given, must match
    the shape of the matrices. Raises ValueError for a malformed section."""
    d = _check_section("channel", d, CHANNEL)
    if d["beta_db"] is not None:
        _check_value("channel param 'beta_db'", "number", d["beta_db"])
    ch = FdChannelModel(
        H={(int(k[0]), int(k[1])): _pairs_to_complex(f"channel H {k!r}", v)
           for k, v in d["H"].items()},
        eta={(int(k[0]), int(k[1])): float(db_to_linear(v))
             for k, v in d["eta_db"].items()},
        beta=_beta_linear(d["beta_db"]),
        P={int(k): float(v) for k, v in d["P"].items()})
    for key, size in (("M", ch.M), ("N", ch.N)):
        if d[key] not in (None, size):
            raise ValueError(f"channel {key} = {d[key]} does not match its "
                             f"{ch.N} x {ch.M} (N x M) matrices")
    return ch


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


REQUIRED = object()     # the default of a key that its section must give

_LINKS = ("11", "12", "21", "22")
# {key: (kind, default)} of a channel section; H, eta_db and P are tables of
# their own, keyed by link and by node
CHANNEL = {"M": (1, None), "N": (1, None), "beta_db": (None, REQUIRED),
           "H": (dict.fromkeys(_LINKS, (None, REQUIRED)), REQUIRED),
           "eta_db": (dict.fromkeys(_LINKS, ("number", REQUIRED)), REQUIRED),
           "P": (dict.fromkeys("12", ("number", REQUIRED)), REQUIRED)}


def _check_value(name, kind, value):
    """Raise ValueError unless value is of the kind: an int n (an integer
    >= n, not a bool), "number" (a real, not a bool), "real" (a finite
    number), "positive" (a finite number > 0), "optional" (a real, or None
    for an ideal front end), "pair" (a list of two numbers), "reals" (a
    list of reals), "counts" (a non-empty list of integers >= 1), "grid"
    (an integer >= 2 or a pair of them, so that each z axis holds both of
    its ends), a tuple of the values allowed or a table of a section."""
    if kind in ("pair", "reals", "counts", "grid"):
        if kind == "grid" and not (isinstance(value, list)
                                   and len(value) == 2):
            value = [value]     # one integer for both axes
        elif (not isinstance(value, (list, tuple))
              or kind == "counts" and not value
              or kind == "pair" and len(value) != 2):
            what = {"counts": "a non-empty list",
                    "pair": "an [re, im] pair"}.get(kind, "a list")
            raise ValueError(f"{name} must be {what}, got {value!r}")
        for element in value:
            _check_value(name, {"pair": "number", "reals": "real",
                                "counts": 1, "grid": 2}[kind], element)
    elif isinstance(kind, dict):
        _check_section(name, value, kind)
    elif isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{name} must be one of {kind}, got {value!r}")
    elif isinstance(kind, int):
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < kind):
            raise ValueError(f"{name} must be an integer >= {kind}, "
                             f"got {value!r}")
    elif value is not None or kind != "optional":
        low = 0.0 if kind == "positive" else -math.inf
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or kind != "number" and not low < value < math.inf):
            raise ValueError(f"{name} must be a {'positive ' * (low == 0)}"
                             f"finite number, got {value!r}")


def _check_section(where, section, table):
    """The config section `section` with the defaults of `table` filled in.

    `table` maps each key to (kind, default): a _check_value kind, or None
    where the caller checks the value, and REQUIRED for a key without a
    default. Raises ValueError for a section that is not a dict, an
    unknown or missing key, or a bad value.
    """
    if not isinstance(section, dict):
        raise ValueError(f"{where} takes a JSON object of params, "
                         f"got {section!r}")
    for key, value in section.items():
        if key not in table:
            raise ValueError(f"{where} has the unknown param {key!r}; "
                             f"expected one of {sorted(table)}")
        if table[key][0] is not None:
            _check_value(f"{where} param {key!r}", table[key][0], value)
    merged = {key: default for key, (_, default) in table.items()
              if default is not REQUIRED} | section
    if len(merged) < len(table):
        raise ValueError(f"{where} missing params: "
                         f"{sorted(table.keys() - merged.keys())}")
    return merged
