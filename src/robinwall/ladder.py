"""Infinite sums over a level ladder: direct summation plus an
Euler-Maclaurin closure of the power-law tail, for a batch of lanes.

Every thermodynamic quantity in this package is a sum of the form

    S_p = sum_n (E_n - ref)^p * F(beta * (E_n - E_0) + gamma)

with F a Boltzmann factor ``e^{-x}``, an occupation number
``1/(e^x +- 1)``, or the occupation-derivative (distribution) kernel
``e^x/(e^x +- 1)^2``.  Exponents are always formed relative to the ground
level (plus the offset ``gamma = beta*(E_0 - mu)``), which keeps them finite
for any temperature.

One call evaluates the whole kernel family of its statistics in one pass:
the Boltzmann sums S_0, S_1, S_2, or, for Fermi and Bose statistics, the
occupation sums N_0, N_1 together with the distribution sums D_0, D_1, D_2.
Both occupation kernels come from the same exponentials, so a
grand-canonical state (N, dN/dgamma, <E> and the heat-capacity moments)
costs a single ladder pass.  A call takes arrays of lanes (beta, gamma,
moment offset); a scalar call is a one-lane batch.  Lanes go in groups of
32, and each piece of a lane's sum is a set of weighted nodes, one row per
lane of the group, that takes one kernel pass and one weighted reduction:
the root-solved levels below the closure floor (the same for every lane),
the Euler-Maclaurin closure nodes with their end stencils, and blocks of
the lane's own direct window.  A window block holds at most 2^14 (lane,
level) pairs, so no temporary exceeds ~1 MB.

Each lane has its own direct range, closure and filled sea; the batch
only pads a node set's rows with zero-weight nodes to a common length, so
it changes a sum at most in its rounding.  A lane's direct range is fixed
before any summing, in closed form from the tail law: its low levels, up to
where its exponent passes by X_DEAD = 45 that of the first level every
returned sum weighs (for fermions, of the first at or above the Fermi
level; floored at 0), or up to its closure index if that comes first.
Levels past the range of a lane that stops short of its closure index are
below e^-45 of the sums on a sparse ladder, and are dropped.  Past the
closure floor each lane's direct levels are indexed from its own sea end
(the floor without a filled sea), in doubling blocks that serve only the
lanes whose window reaches them.  The rest is closed by one
Euler-Maclaurin formula over the exact power-law tail
E(m) = tau * (4(m+j0)-k)^(2/3) + shift,

    sum_{n0 <= m < n1} = integral_{n0}^{n1} + edge(n0) - edge(n1)

(each edge f/2 - f'/12 + f'''/720 a fixed five-level stencil, none at
n1 = inf): to infinity from where the ladder is dense on the thermal scale
(beta * dE/dn below a threshold), and across a deeply filled Fermi sea from
the closure floor (two levels past the root-solved block, at least
EM_START), whose summands are smooth in m however sparse the Fermi edge.
The integral is 24-point Gauss-Legendre in s = sqrt(v),
v = (4(m+j0)-k)^(2/3), where the level measure is a polynomial, on panels
matched to the kernel (a filled Fermi sea, the transition layer around
x = 0, and geometric panels down the exponential tail from wherever it
starts to ~78 past it), clipped at n1 and padded with zero-width panels to
a common count across lanes.  Every path is validated against brute-force
summation to ~1e-10 relative; the payoff is that the worst evaluation in
the whole parameter domain costs ~1e4 kernel evaluations instead of ~1e8
exp() calls.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import BudgetError, DomainError, SolverError
from .specfun import _check_beta, _check_index
from .spectrum import Spectrum

__all__ = ["Statistics", "ladder_sums"]


class Statistics(enum.Enum):
    """The ensembles, named as in the CLI, JSON and Table 1.  Each fixes the
    kernel family: Boltzmann factors (canonical) or occupations with their
    distribution kernel."""

    CANONICAL = "canonical"
    FERMI_DIRAC = "fd"
    BOSE_EINSTEIN = "be"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown ensemble {value!r}")


def _check_statistics(statistics) -> None:
    """DomainError unless ``statistics`` is a Statistics member."""
    if not isinstance(statistics, Statistics):
        raise DomainError(f"statistics must be a Statistics value, got {statistics!r}")


DENSE_THRESHOLD = 0.02    # beta*dE/dn below this => Euler-Maclaurin regime
LEVEL_BUDGET = 10 ** 8    # hard cap on directly summed levels
EM_START = 16             # no Euler-Maclaurin part starts below this index:
                          # lower, the ladder bends too hard for the end
                          # correction's five-point differences

# the sums one call returns per statistics, as (kernel index, moment power)
# pairs: kernel 0 is e^{-x} (canonical) or the occupation, kernel 1 the
# distribution
_OCC_ROWS = ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2))
_ROWS = {Statistics.CANONICAL: ((0, 0), (0, 1), (0, 2)),
         Statistics.FERMI_DIRAC: _OCC_ROWS, Statistics.BOSE_EINSTEIN: _OCC_ROWS}


# ---------------------------------------------------------------------------
# stable weight kernels
# ---------------------------------------------------------------------------

def _kernels(x: np.ndarray, statistics: Statistics) -> list[np.ndarray]:
    """The kernels of ``statistics`` at exponents x, from one exponential:
    [e^{-x}] canonical, [1/(e^x +- 1), e^x/(e^x +- 1)^2] for Fermi-Dirac
    and Bose-Einstein."""
    if statistics is Statistics.CANONICAL:
        return [np.exp(-x)]
    if statistics is Statistics.FERMI_DIRAC:
        t = np.exp(-np.abs(x))
        inv = 1.0 / (1.0 + t)
        return [np.where(x >= 0.0, t * inv, inv), t * inv * inv]
    # Bose statistics: exponents are strictly positive (mu < E0)
    if (x <= 0.0).any():
        raise SolverError("bose weights need strictly positive exponents (mu < E0)")
    inv = 1.0 / -np.expm1(-x)  # 1/(1 - e^{-x}), exact for small x
    occ = np.exp(-x) * inv
    return [occ, occ * inv]


def _summands(x: np.ndarray, d: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Summands of every returned sum, one row per sum: d^p * kernel(x)."""
    kern = _kernels(x, statistics)
    powers = (1.0, d, d * d)
    out = np.empty((len(_ROWS[statistics]),) + x.shape)
    for row, (k, p) in zip(out, _ROWS[statistics]):
        np.multiply(kern[k], powers[p], out=row)
    return out


# ---------------------------------------------------------------------------
# the Euler-Maclaurin closure
# ---------------------------------------------------------------------------

X_DEAD = 45.0  # |x| beyond which occupations are 0/1 to better than 1e-19

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# exponent offsets of the geometric tail panels, from 0.5 up to the first
# edge past X_DEAD (77.7 units up): the integrand has fallen by e^-77 there
_TAIL_Y = [0.5]
while _TAIL_Y[-1] < X_DEAD:
    _TAIL_Y.append(1.7 * _TAIL_Y[-1] + 2.0)
_TAIL_Y = np.array(_TAIL_Y[1:])

# the Euler-Maclaurin end correction f/2 - f'/12 + f'''/720 at m as weights
# of f on m - 2 .. m + 2 (f' and f''' by central differences, the Gregory form)
_STENCIL = np.arange(-2.0, 3.0)
_EDGE = np.array([-11.0, 82.0, 720.0, -82.0, 11.0]) / 1440.0


def _doublings(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """start * 2^k clipped at stop, k = 1, 2, ..., one row per lane, until
    every row has reached its stop (earlier rows repeat it)."""
    k = int(np.ceil(np.log2(np.max(stop / start)))) + 1
    return np.minimum(start[:, None] * 2.0 ** np.arange(1, k + 1), stop[:, None])


def _v_panel_breaks(v0: np.ndarray, bt: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Panel edges for the closure integral, one row per lane, matched to
    the kernel's structure: octave panels in v across a filled Fermi sea
    (the kernel is constant there to e^-40), a finely split transition
    layer, octave panels through a 1/x-like Bose region, and geometric
    panels down the exponential tail, laid out from the exponent where the
    tail starts.  Rows with fewer panels are padded with zero-width ones."""
    x0 = bt * v0 + sigma
    v_cols = [v0[:, None]]
    sea = x0 < -40.0
    if sea.any():
        v_cols.append(_doublings(v0, np.where(sea, (-40.0 - sigma) / bt, v0)))
    x = np.where(sea, -40.0, x0)
    x_cols = []
    if (x <= 0.0).any():
        # up to x = 0.5 in equal steps of at most 5: np.linspace(x, 0.5, n + 1)[1:]
        to = np.where(x <= 0.0, 0.5, x)
        n = np.maximum(np.ceil((to - x) / 5.0), 1.0)
        j = np.arange(1.0, n.max() + 1.0)
        x_cols.append(np.where(j < n[:, None], j * ((to - x) / n)[:, None] + x[:, None],
                               to[:, None]))
        x = to
    if (x < 0.5).any():
        x_cols.append(_doublings(x, np.maximum(x, 0.5)))
        x = np.maximum(x, 0.5)
    x_cols.append(x[:, None] + _TAIL_Y - 0.5)
    v_cols.append((np.concatenate(x_cols, axis=1) - sigma[:, None]) / bt[:, None])
    return np.concatenate(v_cols, axis=1)


def _node_sums(tail, bt: np.ndarray, sigma: np.ndarray, ds_ref: np.ndarray, v: np.ndarray,
               w: np.ndarray, statistics: Statistics) -> np.ndarray:
    """sum_j w_j (tau v_j + ds_ref)^p F(bt v_j + sigma) over the nodes of
    each lane (a row of v and w), one row per returned sum and one column
    per lane: the one kernel pass and weighted reduction of a node set.

    bt     = beta * tail.tau
    sigma  = beta*(tail.shift - E0) + gamma   (exponent offset of the tail)
    ds_ref = tail.shift - ref                 (moment offset of the tail)"""
    f = _summands(bt[:, None] * v + sigma[:, None], tail.tau * v + ds_ref[:, None], statistics)
    return np.einsum("rln,ln->rl", f, w)


def _closure(tail, bt: np.ndarray, sigma: np.ndarray, ds_ref: np.ndarray, n0: np.ndarray,
             n1: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Euler-Maclaurin closure of sum_{n0 <= m < n1} (E(m)-ref)^p
    F(beta(E(m)-E0)+gamma), one row per sum and one column per lane (n1 =
    inf: the tail), as one node set: the integral, edge(n0) and -edge(n1).

    With v = argument(m)^(2/3) and s = sqrt(v) the integral is

        (3/4) * integral_{s0}^{s1} s^2 (tau s^2 + ds_ref)^p
                    F(beta tau s^2 + sigma) ds,

    by Gauss-Legendre on the panels of ``_v_panel_breaks``, clipped at v1
    and mapped to s, where the integrand is smooth down to the lower end for
    any starting exponent (a degenerate Fermi sea included).  Each edge is
    the stencil ``_EDGE`` on the five levels around it."""
    v_breaks = np.minimum(_v_panel_breaks(tail.argument(n0) ** (2.0 / 3.0), bt, sigma),
                          tail.argument(n1[:, None]) ** (2.0 / 3.0))
    # drop the panels of zero width in every lane (a sea's past its end)
    s_breaks = np.sqrt(v_breaks[:, np.append(True, (np.diff(v_breaks) > 0.0).any(axis=0))])
    lo = s_breaks[:, :-1, None]
    half = 0.5 * (s_breaks[:, 1:, None] - lo)
    s = (half * (_GL_NODES + 1.0) + lo).reshape(len(bt), -1)
    v = [s * s]
    w = [0.75 * (half * _GL_WEIGHTS).reshape(len(bt), -1) * v[0]]
    ends = [(n0, np.ones(len(bt)))]
    finite = np.isfinite(n1)
    if finite.any():
        ends.append((np.where(finite, n1, n0), -1.0 * finite))
    for m, sign in ends:
        v.append(tail.argument(m[:, None] + _STENCIL) ** (2.0 / 3.0))
        w.append(np.multiply.outer(sign, _EDGE))
    return _node_sums(tail, bt, sigma, ds_ref, np.hstack(v), np.hstack(w), statistics)


def _closure_floor(spectrum) -> int:
    """Lowest index a closure starts at: two past the root-solved block, so
    the end correction's stencil sees tail levels only, and no lower than
    EM_START."""
    return max(spectrum.n_exact + 2, EM_START)


def _dense_index(spectrum, beta: np.ndarray) -> np.ndarray:
    """Smallest tail index where beta * dE/dn <= DENSE_THRESHOLD, per lane,
    from the closure floor on (capped far beyond any level budget)."""
    tail = spectrum.tail
    m = tail.index((8.0 * beta * tail.tau / (3.0 * DENSE_THRESHOLD)) ** 3)
    return np.maximum(_closure_floor(spectrum),
                      np.ceil(np.minimum(m, 2.0 ** 62))).astype(np.int64)


def _tail_index(tail, beta: np.ndarray, sigma: np.ndarray, x: float | np.ndarray) -> np.ndarray:
    """Per lane, the real tail index where the exponent
    beta*tau*argument(m)^(2/3) + sigma reaches x (the tail's lower end,
    argument 0, for an x below sigma)."""
    return tail.index((np.maximum(x - sigma, 0.0) / (beta * tail.tau)) ** 1.5)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

_LANES = 32          # lanes summed together: batch temporaries stay below ~1 MB
_PAIRS = 1 << 14     # (lane, level) pairs of one direct block


def _lane_sums(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray,
               moff: np.ndarray, statistics: Statistics, start_index: int) -> np.ndarray:
    """``ladder_sums`` of one group of lanes: one row per sum, one column
    per lane."""
    n = len(beta)
    tail, e0 = spectrum.tail, spectrum.e0
    bt = beta * tail.tau
    sigma = beta * (tail.shift - e0) + gamma
    ds_ref = tail.shift - e0 + moff
    n_em = _dense_index(spectrum, beta)
    first = _closure_floor(spectrum)

    # each lane's direct range ends where its exponent passes x_top + X_DEAD,
    # x_top >= 0 being that of the first level every returned sum weighs or,
    # for fermions, of the first at or above the Fermi level, which a sparse
    # edge may leave to carry the distribution sums alone.  Short of the
    # closure index the ladder is sparse (beta dE/dn above DENSE_THRESHOLD),
    # so the levels past the stop are dropped; a lane at it closes the tail.
    m_top = np.full(n, float(max(start_index, 1)))
    if statistics is Statistics.FERMI_DIRAC:
        m_top = np.maximum(m_top, np.ceil(np.minimum(_tail_index(tail, beta, sigma, 0.0), n_em)))
    x_top = np.maximum(beta * (spectrum.energies(m_top.astype(np.int64)) - e0) + gamma, 0.0)
    stop = np.ceil(_tail_index(tail, beta, sigma, x_top + X_DEAD))
    stop = np.minimum(n_em, np.maximum(first, stop)).astype(np.int64)
    # a deeply submerged Fermi sea (exponents below -X_DEAD) past the closure
    # floor is closed like the tail, over [first, sea): its summands are
    # smooth in m there, whatever the spacing at the Fermi edge.  The sea
    # ends 3 levels early, so the end correction's stencil stays in it.
    sea = np.full(n, first)
    if statistics is Statistics.FERMI_DIRAC and (gamma < -X_DEAD).any():
        sea = np.floor(_tail_index(tail, beta, sigma, -X_DEAD)) - 3
        sea = np.maximum(first, np.minimum(sea, n_em)).astype(np.int64)
    span = stop - sea
    if (span > LEVEL_BUDGET).any():
        raise BudgetError(f"a lane needs {int(span.max())} directly summed levels, "
                          f"more than the budget of {LEVEL_BUDGET}")

    # the root block [start_index, first), the same levels for every lane
    dE = spectrum.energies(np.arange(start_index, first)) - e0
    sums = _summands(beta[:, None] * dE + gamma[:, None], dE + moff[:, None],
                     statistics).sum(axis=2)

    # the closures: the tail [n_em, inf) of each lane whose range reaches
    # its closure index, and each filled sea [first, sea)
    for lanes, n0, n1 in (((stop == n_em).nonzero()[0], n_em, np.full(n, np.inf)),
                          ((sea > first).nonzero()[0], np.full(n, first), sea)):
        if len(lanes):
            sums[:, lanes] += _closure(tail, bt[lanes], sigma[lanes], ds_ref[lanes],
                                       n0[lanes], n1[lanes], statistics)

    # each lane's own direct window [sea, stop), indexed from its sea in
    # doubling blocks of relative index: a block serves the lanes whose
    # window reaches it and gives weight 0 to the levels past each one's stop
    lo, hi = 0, first
    while lo < span.max():
        lanes = (span > lo).nonzero()[0]
        r = np.arange(lo, min(hi, span[lanes].max()))
        step = max(1, _PAIRS // len(r))
        for k in range(0, len(lanes), step):
            sub = lanes[k:k + step]
            v = tail.argument(sea[sub, None] + r) ** (2.0 / 3.0)
            sums[:, sub] += _node_sums(tail, bt[sub], sigma[sub], ds_ref[sub], v,
                                       r < span[sub, None], statistics)
        lo, hi = hi, min(2 * hi, hi + (1 << 20))
    return sums


def ladder_sums(spectrum: Spectrum, beta: float | np.ndarray, statistics: Statistics, *,
                gamma: float | np.ndarray = 0.0, moment_offset: float | np.ndarray = 0.0,
                start_index: int = 0) -> tuple:
    """All sums of the kernel family of ``statistics`` over
    n >= start_index, in one pass, for a batch of lanes.

    ``beta``, ``gamma`` and ``moment_offset`` broadcast against each other,
    one lane per element.  With x_n = beta*(E_n - E_0) + gamma and moments
    about ref = E_0 - moment_offset:

    * ``CANONICAL``: (S_0, S_1, S_2), S_p = sum (E_n - ref)^p e^{-x_n};
    * ``FERMI_DIRAC`` or ``BOSE_EINSTEIN``: (N_0, N_1, D_0, D_1, D_2) with
      N_p = sum (E_n - ref)^p / (e^{x_n} +- 1) and
      D_p = sum (E_n - ref)^p e^{x_n} / (e^{x_n} +- 1)^2, the upper sign for
      fermions and the lower for bosons.

    ``start_index`` lies in the root-solved block, 0 <= start_index <
    ``spectrum.n_exact``.  Scalar arguments give plain floats, and otherwise
    every sum is an array of the broadcast shape.  Every lane has its own
    closure index, filled sea and direct range; the batch changes a sum at
    most in its rounding, through the zero-weight nodes that pad each node
    set's rows to a common length.  A lane that needs more than
    LEVEL_BUDGET directly summed levels raises ``BudgetError`` before
    anything is summed.
    """
    _check_statistics(statistics)
    start_index = _check_index(start_index, 0, "start_index")
    if start_index >= spectrum.n_exact:
        raise DomainError(f"start_index must be below n_exact = {spectrum.n_exact}, "
                          f"got {start_index!r}")
    shape = np.broadcast(beta, gamma, moment_offset).shape
    lanes = [(np.zeros(shape) + a).ravel() for a in (beta, gamma, moment_offset)]
    _check_beta(lanes[0])
    sums = np.hstack([_lane_sums(spectrum, *(a[lo:lo + _LANES] for a in lanes),
                                 statistics, start_index)
                      for lo in range(0, lanes[0].size, _LANES)])
    if not shape:
        return tuple(sums[:, 0].tolist())
    return tuple(s.reshape(shape) for s in sums)
