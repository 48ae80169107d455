"""Infinite sums over a level ladder for a batch of lanes (beta, gamma):

    S_p = sum_n (x_n - max(gamma, 0))^p K(x_n),  x_n = beta (E_n - E_0) + gamma,

dimensionless moments in units of kT about max(E_0, mu), mu = E_0 - gamma/beta,
for every kernel K of a statistics (``_kernels``): e^{-x} for Boltzmann
sums; for Fermi and Bose sums the occupation f = 1/(e^x +- 1), the
distribution kernel D = e^x/(e^x +- 1)^2 and their product D f, all from
one exponential.  Exponents are taken from the ground level, so they are
finite at any temperature, and one pass gives every sum of a state.

A batch is summed in two steps.  ``_Plan`` lays out its node sets, each a
run of lanes with their energies above E_0 and weights: the root-solved
levels below the closure floor, the Euler-Maclaurin closures with their
end stencils, and the lanes' direct windows.  ``_sums`` sums any of the
planned lanes at any gamma, one kernel pass (``_node_sums``) per node
set.  Levels come from ``Spectrum.energies``; the index at an energy,
the spacing and the closure quadrature from ``spectrum.TailLaw``.

A plan depends on gamma only through where the exponents meet its cuts, so
it holds within _REACH of the gamma it was planned at
(test_plan_holds_across_its_window: brute force to 1e-10 and mpmath to
1e-12 at either edge).  A Bose plan holds for any rise of gamma, which
moves every exponent up alike and only leaves its closure panels finer
than needed, and for a fall of at most _REACH_BOSE of the exponent of its
lowest closure node (test_bose_plans_hold_as_gamma_rises: 1e-12 of a fresh
plan).  A lane past its reach is summed over a plan of its own.  ``_blocks``
cuts each node set into runs of lanes of like width, at most _PAIRS (lane,
node) pairs a run; their zero-weight padding moves sums only in rounding.

Each lane sums its levels directly up to where its exponent is X_DEAD past
the first level its sums weigh (``_direct_range``), and closes the rest by

    sum_{n0 <= m < n1} f(m) = integral_{n0}^{n1} f dm + edge(n0) - edge(n1),

edge = f/2 - f'/12 + f'''/720 on a five-level stencil (``_EDGE``; none at
n1 = inf): the tail from where beta dE/dn falls below DENSE_THRESHOLD, and
a filled Fermi sea from the closure floor.  The integral is the tail law's
Gauss-Legendre quadrature (``_RULES``) on the panels of ``_panel_breaks``.
Every path matches brute force to 1e-10 (test_hybrid_matches_brute_force),
and 50 lanes over a sea of 1e8 filled levels take at most 250,000 kernel
elements (test_deep_sea_is_not_summed_level_by_level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _work
from .errors import DomainError, SolverError
from .specfun import _check_index, _check_member, _check_real, _Names
from .spectrum import Spectrum

__all__ = ["Statistics", "EnsembleSpec", "ladder_sums"]


class Statistics(_Names, noun="ensemble"):
    """The ensembles, by their names in the CLI, JSON and Table 1; each
    fixes the kernels of its sums.  DomainError for an unknown name."""

    CANONICAL = "canonical"
    FERMI_DIRAC = "fd"
    BOSE_EINSTEIN = "be"


_N_MAX = int(np.iinfo(np.int64).max)  # past it an array of N holds Python ints


@dataclass(frozen=True)
class EnsembleSpec:
    """Statistics plus particle number N, an integer in [1, _N_MAX] (1 for
    the canonical ensemble); DomainError otherwise."""

    statistics: Statistics
    n_particles: int

    def __post_init__(self) -> None:
        _check_member(self.statistics, Statistics, "statistics")
        object.__setattr__(self, "n_particles",
                           _check_index(self.n_particles, 1, "n_particles", _N_MAX))
        if self.statistics is Statistics.CANONICAL and self.n_particles != 1:
            raise DomainError(f"the canonical ensemble is computed for 1 particle, "
                              f"got {self.n_particles!r}")


DENSE_THRESHOLD = 0.02    # beta*dE/dn below this => Euler-Maclaurin regime
EM_START = 16             # no Euler-Maclaurin part starts below this index:
                          # lower, the ladder bends too hard for the end
                          # correction's five-point differences

# the moments (powers 0, 1, ...) returned of each kernel of ``_kernels``
_MOMENTS = {Statistics.CANONICAL: (4,), Statistics.FERMI_DIRAC: (2, 4, 4),
            Statistics.BOSE_EINSTEIN: (2, 4, 4)}


# ---------------------------------------------------------------------------
# stable weight kernels
# ---------------------------------------------------------------------------

def _kernels(x: np.ndarray, statistics: Statistics) -> list[np.ndarray]:
    """The kernels of ``statistics`` at exponents x, from one exponential:
    [e^{-x}] canonical, [f, D, D f] with f = 1/(e^x +- 1) and
    D = e^x/(e^x +- 1)^2 for Fermi-Dirac and Bose-Einstein."""
    if statistics is Statistics.CANONICAL:
        return [np.exp(-x)]
    if statistics is Statistics.FERMI_DIRAC:
        t = np.exp(-np.abs(x))
        inv = 1.0 / (1.0 + t)
        dist = t * inv * inv
        occ = np.where(x >= 0.0, t * inv, inv)
        return [occ, dist, dist * occ]
    # Bose statistics: exponents are strictly positive (mu < E0)
    if (x <= 0.0).any():
        raise SolverError("bose weights need strictly positive exponents (mu < E0)")
    inv = 1.0 / -np.expm1(-x)  # 1/(1 - e^{-x}), exact for small x
    occ = np.exp(-x) * inv
    dist = occ * inv
    return [occ, dist, dist * occ]


# ---------------------------------------------------------------------------
# the Euler-Maclaurin closure
# ---------------------------------------------------------------------------

X_DEAD = 45.0  # |x| past which an occupation is 0 or 1 to within e^-X_DEAD


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule (nodes, weights) on [-1, 1]: the
    eigenvalues of the Legendre Jacobi matrix (Golub & Welsch, 1969) after
    one Newton step on P_n, weighted 2/((1 - x^2) P_n'(x)^2), P_n and P_n'
    from the three-term recurrence (test_gauss_rules_are_exact)."""
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / (1.0 - x * x)
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    x -= np.divide(*legendre(x))
    return x, 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)


# the closure integral's Gauss-Legendre rule (nodes, weights) per statistics,
# each within test_closure_quadrature_is_converged's 1e-13 of a 64-node rule:
# Fermi sums need the most nodes for their transition layer, and Bose sums
# fail that bound with 12 next to the kernel's pole
_RULES = {s: _gauss_legendre(n) for s, n in (
    (Statistics.CANONICAL, 12), (Statistics.FERMI_DIRAC, 20), (Statistics.BOSE_EINSTEIN, 14))}

# exponent offsets of the geometric tail panels, from 0.5 up to the last
# edge below X_DEAD
_TAIL_Y = [0.5]
while 1.7 * _TAIL_Y[-1] + 2.0 < X_DEAD:
    _TAIL_Y.append(1.7 * _TAIL_Y[-1] + 2.0)
_TAIL_Y = np.array(_TAIL_Y[1:])

# the Euler-Maclaurin end correction f/2 - f'/12 + f'''/720 at m as weights
# of f on m - 2 .. m + 2 (f' and f''' by central differences, the Gregory form)
_STENCIL = np.arange(-2, 3)
_EDGE = np.array([-11.0, 82.0, 720.0, -82.0, 11.0]) / 1440.0


def _doublings(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """start * 2^k clipped at stop, k = 1, 2, ..., one row per lane, until
    every row has reached its stop (earlier rows repeat it); NaN rows where
    stop / start is not finite, so those lanes' sums are NaN and fail as
    lanes (test_lanes_past_the_float_range_fail_alone)."""
    with np.errstate(over="ignore"):
        ratio = stop / start
    finite = np.isfinite(ratio)
    k = int(np.ceil(np.log2(np.max(ratio, where=finite, initial=1.0)))) + 1
    rows = np.minimum(start[:, None] * 2.0 ** np.arange(1, k + 1), stop[:, None])
    return np.where(finite[:, None], rows, np.nan)


def _panel_breaks(d0: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Panel edges in energy above E_0 of the closure integral from d0 on,
    one row per lane, laid out in the exponent x = beta d + gamma: octaves
    in d across a filled Fermi sea, equal steps in x across the transition
    layer, octaves in x off the Bose pole, where D f ~ 1/x^3, and the tail
    panels ``_TAIL_Y``.  Rows with fewer panels are padded with zero-width
    ones."""
    x0 = beta * d0 + gamma
    d_cols = [d0[:, None]]
    sea = x0 < -40.0
    if sea.any():
        d_cols.append(_doublings(d0, np.where(sea, (-40.0 - gamma) / beta, d0)))
    x = np.where(sea, -40.0, x0)
    x_cols = []
    if (x <= 0.0).any():
        # np.linspace(x, 0.5, n + 1)[1:]: steps of 5 miss the 1e-12 of
        # test_closure_matches_mpmath in G_3 of a closure from x = -4.3
        to = np.where(x <= 0.0, 0.5, x)
        n = np.maximum(np.ceil((to - x) / 4.0), 1.0)
        j = np.arange(1.0, n.max() + 1.0)
        x_cols.append(np.where(j < n[:, None], j * ((to - x) / n)[:, None] + x[:, None],
                               to[:, None]))
        x = to
    # octaves that stop at 0.5 miss test_closure_quadrature_is_converged's 1e-13
    if (x < 2.0).any():
        x_cols.append(_doublings(x, np.maximum(x, 2.0)))
        x = np.maximum(x, 2.0)
    x_cols.append(x[:, None] + _TAIL_Y - 0.5)
    d_cols.append((np.concatenate(x_cols, axis=1) - gamma[:, None]) / beta[:, None])
    return np.concatenate(d_cols, axis=1)


def _node_sums(d: np.ndarray, w: np.ndarray, beta: np.ndarray, gamma: np.ndarray,
               statistics: Statistics) -> np.ndarray:
    """sum_j w_j y_j^p K(x_j) over the nodes of each lane (a row of d = E - E_0
    and w per lane), x = beta d + gamma and y = x - max(gamma, 0), for the
    kernels and powers of ``_MOMENTS``: a row per sum, a column per lane."""
    _work.counts.update(node_sums=1, kernel_elements=d.size)
    # moments about max(E_0, mu), where e^x/(e^x +- 1)^2 peaks over the
    # levels: there D_1 is small, so the variance D_2 - D_1^2/D_0 does not
    # cancel on a dominant level (the Bose ground level, or the two levels
    # around a frozen Fermi edge)
    bd = beta[:, None] * d
    y = bd + np.minimum(gamma, 0.0)[:, None]
    out = []
    for kern, moments in zip(_kernels(bd + gamma[:, None], statistics), _MOMENTS[statistics]):
        kern *= w
        out.append(kern.sum(axis=1))
        for _ in range(1, moments):
            kern *= y
            out.append(kern.sum(axis=1))
    return np.array(out)


def _closure(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray, n0: np.ndarray,
             n1: np.ndarray, statistics: Statistics) -> list[tuple]:
    """Node sets (rows, d, w) of the closure of sum_{n0 <= m < n1} f(E_m)
    (n1 = inf: the tail), in blocks of the lanes given: the tail law's
    quadrature with ``_RULES[statistics]`` on the panels of
    ``_panel_breaks`` clipped at E_{n1}, plus ``_EDGE`` on the stencils
    around n0 and, negated, n1."""
    e0 = spectrum.e0
    finite = np.isfinite(n1)
    # the five levels around each end, E(n0) and E(n1) in the middle, with
    # their weights (the upper end only if a lane has one)
    m = np.array([n0, np.where(finite, n1, n0)], dtype=np.int64)[:1 + finite.any()]
    ends = spectrum.energies(m[:, :, None] + _STENCIL) - e0
    edges = np.multiply.outer(np.array([np.ones(len(beta)), -1.0 * finite])[:len(m)], _EDGE)

    def live(b):  # b without the panels of zero width in all its lanes (a sea's past its end)
        return b[:, np.concatenate(([True], (b[:, 1:] > b[:, :-1]).any(axis=0)))]

    breaks = np.minimum(_panel_breaks(ends[0, :, 2], beta, gamma),
                        np.where(finite, ends[-1, :, 2], np.inf)[:, None])
    nodes, weights = _RULES[statistics]
    stencils, blocks = edges.shape[0] * len(_EDGE), []
    widths = (np.diff(breaks) > 0.0).sum(axis=1) * len(nodes) + stencils  # each lane's own
    for run in _blocks(np.arange(len(beta)), widths):
        # cut again where the run's live panels outnumber those of its widest lane
        width = (live(breaks[run]).shape[1] - 1) * len(nodes) + stencils
        for rows in _blocks(run, np.full(len(run), width)):
            e, w = spectrum.tail.quadrature(live(breaks[rows]) + e0, nodes, weights)
            blocks.append((rows, np.concatenate([e - e0, *ends[:, rows]], axis=1),
                           np.concatenate([w, *edges[:, rows]], axis=1)))
    return blocks


def _closure_floor(spectrum) -> int:
    """Lowest index a closure starts at: two past the root-solved block, so
    the end stencil sees tail levels only, and at least EM_START."""
    return max(spectrum.n_exact + 2, EM_START)


def _dense_index(spectrum, beta: np.ndarray) -> np.ndarray:
    """Per lane the first index, from the closure floor on, where
    beta dE/dn <= DENSE_THRESHOLD (capped at 2^62, within int64)."""
    with np.errstate(over="ignore"):  # an infinite index past beta tau ~ 1e100: capped
        m = spectrum.tail.spacing_index(DENSE_THRESHOLD / beta)
    return np.maximum(_closure_floor(spectrum),
                      np.ceil(np.minimum(m, 2.0 ** 62))).astype(np.int64)


def _direct_range(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray,
                  statistics: Statistics, start_index: int) -> tuple:
    """(n_em, sea, stop) per lane: the closure index and the direct window
    [sea, stop) past the closure floor.

    The window stops where the exponent passes x_top + X_DEAD, x_top >= 0
    that of the first level every sum weighs (for fermions, the first at or
    above the Fermi level, which a sparse edge may leave to carry the
    distribution sums alone), or at n_em, where a lane closes the tail.
    Short of n_em each level raises the exponent by more than
    DENSE_THRESHOLD, so the dropped levels weigh below e^-X_DEAD and the
    window spans at most 2 X_DEAD / DENSE_THRESHOLD levels
    (test_direct_window_spans_two_dead_zones_at_most).  A Fermi sea below
    -X_DEAD past the floor is closed over [floor, sea), sea 3 levels early
    so that the end stencil stays in it."""
    tail, e0 = spectrum.tail, spectrum.e0
    n_em = _dense_index(spectrum, beta)
    first = _closure_floor(spectrum)
    mu = e0 - gamma / beta  # where the exponent is 0; it is x at mu + x / beta
    m_top = np.full(len(beta), float(max(start_index, 1)))
    if statistics is Statistics.FERMI_DIRAC:
        m_top = np.maximum(m_top, np.ceil(np.minimum(tail.index(mu), n_em)))
    # in energy, mu + (x_top + X_DEAD) / beta, finite where beta (E - E_0) overflows
    e_top = np.maximum(spectrum.energies(m_top.astype(np.int64)), mu)
    stop = np.minimum(n_em, np.maximum(first, np.ceil(tail.index(e_top + X_DEAD / beta))))
    sea = np.full(len(beta), first)
    if statistics is Statistics.FERMI_DIRAC and (gamma < -X_DEAD).any():
        sea = np.maximum(first, np.minimum(np.floor(tail.index(mu - X_DEAD / beta)) - 3, n_em))
    return n_em, sea.astype(np.int64), stop.astype(np.int64)


# ---------------------------------------------------------------------------
# the engine: a plan of node sets per lane, then kernel passes over it
# ---------------------------------------------------------------------------

_PAIRS = 1 << 13     # (lane, node) pairs of one node set at most

# a lane's reach in gamma, and for bosons the share of the exponent of its
# lowest closure node it may fall by (test_plan_holds_across_its_window)
_REACH = 1.0
_REACH_BOSE = 0.25


def _blocks(lanes: np.ndarray, widths: np.ndarray) -> list[np.ndarray]:
    """``lanes`` in runs of at most _PAIRS (lane, node) pairs, or of one lane,
    each row counted at the widest of ``widths`` (> 0, one a lane) in its run:
    as given if one run holds them all, else sorted stably by width."""
    if len(lanes) and len(lanes) * widths.max() <= _PAIRS:
        return [lanes]
    order, cuts = np.argsort(widths, kind="stable"), [0]
    while (lo := cuts[-1]) < len(lanes):  # the longest run from lo, its widest row its last
        w = widths[order[lo:lo + _PAIRS // widths[order[lo]] + 1]]
        cuts.append(lo + max(1, np.count_nonzero(np.arange(1, len(w) + 1) * w <= _PAIRS)))
    return [lanes[order[i:j]] for i, j in zip(cuts, cuts[1:])]


class _Plan:
    """The node sets of a checked 1-D batch of lanes ``beta`` planned at
    ``gamma``: ``sets`` holds (rows, d, w), the batch rows served with a row
    each of energies above E_0 and weights: the root block [start_index,
    closure floor), the tail and sea closures, and the direct windows.  Lane
    i's sets hold while its gamma stays within ``reach[i]`` of ``gamma[i]``
    (for bosons, above ``gamma[i] - reach[i]``)."""

    def __init__(self, spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray,
                 statistics: Statistics, start_index: int = 0) -> None:
        self.spectrum, self.statistics, self.start_index = spectrum, statistics, start_index
        self.beta, self.gamma = beta, gamma = beta, np.array(gamma, dtype=float)
        n, e0, first = len(beta), spectrum.e0, _closure_floor(spectrum)
        _work.counts.update(plans=1, plan_lanes=n)
        n_em, sea, stop = _direct_range(spectrum, beta, gamma, statistics, start_index)
        self.reach = np.full(n, _REACH)

        # the root block: one row of energies, weight 1, broadcast over its lanes
        root = spectrum.energies(np.arange(start_index, first)) - e0
        self.sets = [(rows, np.broadcast_to(root, (len(rows), len(root))), np.ones((len(rows), 1)))
                     for rows in _blocks(np.arange(n), np.full(n, len(root)))]

        # the closures: the tail [n_em, inf) of each lane whose range reaches
        # its closure index, and each filled sea [first, sea)
        for path, lanes, n0, n1 in (("tail", (stop == n_em).nonzero()[0], n_em, np.full(n, np.inf)),
                                    ("sea", (sea > first).nonzero()[0], np.full(n, first), sea)):
            if len(lanes):
                blocks = _closure(spectrum, beta[lanes], gamma[lanes], n0[lanes], n1[lanes],
                                  statistics)
                _work.counts.update({f"{path}_lanes": len(lanes), f"{path}_blocks": len(blocks)})
                for rows, d, w in blocks:
                    rows = lanes[rows]
                    self.sets.append((rows, d, w))
                    if statistics is Statistics.BOSE_EINSTEIN:
                        x_low = beta[rows] * d.min(axis=1) + gamma[rows]
                        self.reach[rows] = np.minimum(_REACH, _REACH_BOSE * x_low)

        # the direct windows [sea, stop), a row each from sea, weight 0 past
        # each lane's stop
        span = stop - sea
        for rows in _blocks((span > 0).nonzero()[0], span[span > 0]):
            r = np.arange(span[rows].max())
            self.sets.append((rows, spectrum.energies(sea[rows, None] + r) - e0,
                              r < span[rows, None]))


def _sums(plan: _Plan, lanes: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The sums of ``plan``'s batch rows ``lanes`` at ``gamma`` (one per
    lane), a row per sum and a column per lane.  Lanes past their reach are
    summed over a plan made at their gamma."""
    # each lane's move from where it was planned: for bosons only a fall counts
    drop = plan.gamma[lanes] - gamma
    if plan.statistics is not Statistics.BOSE_EINSTEIN:
        drop = np.abs(drop)
    stale = drop > plan.reach[lanes]
    _work.counts.update({f"{plan.statistics.value}_passes": 1, "pass_lanes": len(lanes),
                         "stale_lanes": int(stale.sum())})
    at = np.full(len(plan.beta), -1)  # each lane's column
    at[lanes[~stale]] = (~stale).nonzero()[0]
    plans = [(plan, at)]
    if stale.any():
        plans.append((_Plan(plan.spectrum, plan.beta[lanes[stale]], gamma[stale],
                            plan.statistics, plan.start_index), stale.nonzero()[0]))
    out = np.zeros((sum(_MOMENTS[plan.statistics]), len(lanes)))
    for p, at in plans:
        for rows, d, w in p.sets:
            keep = at[rows] >= 0
            if not keep.all():
                if not keep.any():
                    continue
                rows, d, w = rows[keep], d[keep], w[keep]
            c = at[rows]
            out[:, c] += _node_sums(d, w, p.beta[rows], gamma[c], p.statistics)
    return out


def ladder_sums(spectrum: Spectrum, beta: float | np.ndarray, statistics: Statistics, *,
                gamma: float | np.ndarray = 0.0, start_index: int = 0) -> tuple:
    """Every sum of the kernels of ``statistics`` over n >= start_index,
    with x_n = beta (E_n - E_0) + gamma, its moments dimensionless, in
    y_n = x_n - max(gamma, 0) = beta (E_n - max(E_0, mu)):

    * ``CANONICAL``: (S_0, S_1, S_2, S_3), S_p = sum y_n^p e^{-x_n};
    * ``FERMI_DIRAC`` (upper signs), ``BOSE_EINSTEIN`` (lower signs):
      (N_0, N_1, D_0..D_3, G_0..G_3), the moments sum y_n^p K(x_n) of
      f = 1/(e^x +- 1), D = e^x/(e^x +- 1)^2 and D f.  dN_0/dgamma = -D_0
      and d^2N_0/dgamma^2 = D_0 -+ 2 G_0, since dD/dx = -D +- 2 D f.

    ``beta`` (finite, > 0) and ``gamma`` (finite) are scalars or 1-D and
    broadcast, a lane per element; 0 <= start_index < ``spectrum.n_exact``.
    Scalars give floats, else arrays of the broadcast shape; DomainError for
    bad arguments, SolverError for a Bose exponent <= 0.
    """
    _check_member(spectrum, Spectrum, "spectrum")
    _check_member(statistics, Statistics, "statistics")
    start_index = _check_index(start_index, 0, "start_index", spectrum.n_exact - 1)
    beta, g = _check_real(beta, "beta", ndim=1), _check_real(gamma, "gamma", ndim=1, sign=None)
    shape = np.broadcast(beta, g).shape
    beta, gamma = ((np.zeros(shape) + a).ravel() for a in (beta, g))
    sums = _sums(_Plan(spectrum, beta, gamma, statistics, start_index),
                 np.arange(beta.size), gamma)
    if not shape:
        return tuple(sums[:, 0].tolist())
    return tuple(s.reshape(shape) for s in sums)
