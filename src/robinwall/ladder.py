"""Infinite sums over a level ladder: direct summation plus an
Euler-Maclaurin closure of the level tail, for a batch of lanes.

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
lane of the group, that takes one kernel pass and one weighted reduction
(``_node_sums``, on the nodes' energies above E_0): the root-solved levels
below the closure floor (the same for every lane), the Euler-Maclaurin
closure nodes with their end stencils, and blocks of the lane's own direct
window.  The engine sums energies only and reads every level through
``Spectrum.energies``; what else it needs of the level law (the index at
an energy or a level spacing, the closure's quadrature) it asks of
``spectrum.TailLaw``.  A window block holds at most 2^14 (lane,
level) pairs, so no temporary exceeds ~1 MB.

Each lane has its own direct range, closure and filled sea; the batch
only pads a node set's rows with zero-weight nodes to a common length, so
it changes a sum at most in its rounding.  A lane's direct range is fixed
before any summing, by the tail law's index inverse: its low levels, up to
where its exponent passes by X_DEAD = 45 that of the first level every
returned sum weighs (for fermions, of the first at or above the Fermi
level; floored at 0), or up to its closure index if that comes first.
Levels past the range of a lane that stops short of its closure index are
below e^-45 of the sums on a sparse ladder, and are dropped.  Past the
closure floor each lane's direct levels are indexed from its own sea end
(the floor without a filled sea), in doubling blocks that serve only the
lanes whose window reaches them.  The rest is closed by one
Euler-Maclaurin formula over the tail law's levels,

    sum_{n0 <= m < n1} = integral_{n0}^{n1} + edge(n0) - edge(n1)

(each edge f/2 - f'/12 + f'''/720 a fixed five-level stencil, none at
n1 = inf): to infinity from where the ladder is dense on the thermal scale
(beta * dE/dn below a threshold), and across a deeply filled Fermi sea from
the closure floor (two levels past the root-solved block, at least
EM_START), whose summands are smooth in m however sparse the Fermi edge.
The integral is the tail law's quadrature, 24-point Gauss-Legendre in the
law's own variable, where the level measure is a polynomial, on energy
panels matched to the kernel (a filled Fermi sea, the transition layer
around x = 0, and geometric panels down the exponential tail from wherever
it starts to ~78 past it), clipped at E_{n1} and padded with zero-width
panels to a common count across lanes.  Every path is validated against
brute-force summation to ~1e-10 relative; the payoff is that the worst evaluation in
the whole parameter domain costs ~1e4 kernel evaluations instead of ~1e8
exp() calls.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError, SolverError
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
_STENCIL = np.arange(-2, 3)
_EDGE = np.array([-11.0, 82.0, 720.0, -82.0, 11.0]) / 1440.0


def _doublings(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """start * 2^k clipped at stop, k = 1, 2, ..., one row per lane, until
    every row has reached its stop (earlier rows repeat it)."""
    k = int(np.ceil(np.log2(np.max(stop / start)))) + 1
    return np.minimum(start[:, None] * 2.0 ** np.arange(1, k + 1), stop[:, None])


def _panel_breaks(d0: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Panel edges for the closure integral from d0 on, in energy above E_0,
    one row per lane, matched to the kernel's structure at the exponents
    beta * d + gamma: octave panels in d across a filled Fermi sea (the
    kernel is constant there to e^-40), a finely split transition layer,
    octave panels through a 1/x-like Bose region, and geometric panels down
    the exponential tail, laid out from the exponent where the tail starts.
    Rows with fewer panels are padded with zero-width ones."""
    x0 = beta * d0 + gamma
    d_cols = [d0[:, None]]
    sea = x0 < -40.0
    if sea.any():
        d_cols.append(_doublings(d0, np.where(sea, (-40.0 - gamma) / beta, d0)))
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
    d_cols.append((np.concatenate(x_cols, axis=1) - gamma[:, None]) / beta[:, None])
    return np.concatenate(d_cols, axis=1)


def _node_sums(d: np.ndarray, w: np.ndarray, beta: np.ndarray, gamma: np.ndarray,
               moff: np.ndarray, statistics: Statistics) -> np.ndarray:
    """sum_j w_j (d_j + moff)^p F(beta d_j + gamma) over the nodes of each
    lane, d_j = E_j - E_0 (a row of d and w per lane, or one row for all),
    one row per returned sum and one column per lane: the one kernel pass
    and weighted reduction of a node set."""
    f = _summands(beta[:, None] * d + gamma[:, None], d + moff[:, None], statistics)
    return np.einsum("rln,ln->rl", f, w)


def _closure(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray, moff: np.ndarray,
             n0: np.ndarray, n1: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Euler-Maclaurin closure of sum_{n0 <= m < n1} (E_m - ref)^p
    F(beta(E_m - E_0) + gamma), one row per sum and one column per lane
    (n1 = inf: the tail), as one node set: the integral, edge(n0) and
    -edge(n1).  The integral is the tail law's quadrature with the rule
    (``_GL_NODES``, ``_GL_WEIGHTS``) on the panels of ``_panel_breaks``,
    clipped at E_{n1}; each edge is the stencil ``_EDGE`` on the five levels
    around it."""
    e0 = spectrum.e0
    finite = np.isfinite(n1)
    # the five levels around each end, E(n0) and E(n1) in the middle
    m = np.array([n0, np.where(finite, n1, n0)], dtype=np.int64)[:, :, None] + _STENCIL
    ends = spectrum.energies(m) - e0
    breaks = np.minimum(_panel_breaks(ends[0, :, 2], beta, gamma),
                        np.where(finite, ends[1, :, 2], np.inf)[:, None])
    # drop the panels of zero width in every lane (a sea's past its end)
    breaks = breaks[:, np.concatenate(([True], (breaks[:, 1:] > breaks[:, :-1]).any(axis=0)))]
    e, w = spectrum.tail.quadrature(breaks + e0, _GL_NODES, _GL_WEIGHTS)
    d, w = [e - e0, ends[0]], [w, np.multiply.outer(np.ones(len(beta)), _EDGE)]
    if finite.any():
        d.append(ends[1])
        w.append(np.multiply.outer(-1.0 * finite, _EDGE))
    return _node_sums(np.concatenate(d, axis=1), np.concatenate(w, axis=1), beta, gamma,
                      moff, statistics)


def _closure_floor(spectrum) -> int:
    """Lowest index a closure starts at: two past the root-solved block, so
    the end correction's stencil sees tail levels only, and no lower than
    EM_START."""
    return max(spectrum.n_exact + 2, EM_START)


def _dense_index(spectrum, beta: np.ndarray) -> np.ndarray:
    """Smallest tail index where beta * dE/dn <= DENSE_THRESHOLD, per lane,
    from the closure floor on (capped at 2^62)."""
    m = spectrum.tail.spacing_index(DENSE_THRESHOLD / beta)
    return np.maximum(_closure_floor(spectrum),
                      np.ceil(np.minimum(m, 2.0 ** 62))).astype(np.int64)


def _direct_range(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray,
                  statistics: Statistics, start_index: int) -> tuple:
    """(n_em, sea, stop) per lane: the closure index and the direct window
    [sea, stop) past the closure floor, fixed before any summing.

    The window ends where the exponent passes x_top + X_DEAD, x_top >= 0
    being that of the first level every returned sum weighs or, for
    fermions, of the first at or above the Fermi level, which a sparse edge
    may leave to carry the distribution sums alone.  Short of the closure
    index the ladder is sparse (each level raises the exponent by more than
    DENSE_THRESHOLD), so the levels past the stop are dropped, and the
    window spans at most ~2 X_DEAD / DENSE_THRESHOLD levels; a lane at it
    closes the tail.  A Fermi sea deeper than -X_DEAD past the closure
    floor is closed like the tail, over [floor, sea), and ends 3 levels
    early, so the end correction's stencil stays in it."""
    tail, e0 = spectrum.tail, spectrum.e0
    n_em = _dense_index(spectrum, beta)
    first = _closure_floor(spectrum)
    mu = e0 - gamma / beta  # where the exponent is 0; it is x at mu + x / beta
    m_top = np.full(len(beta), float(max(start_index, 1)))
    if statistics is Statistics.FERMI_DIRAC:
        m_top = np.maximum(m_top, np.ceil(np.minimum(tail.index(mu), n_em)))
    x_top = np.maximum(beta * (spectrum.energies(m_top.astype(np.int64)) - e0) + gamma, 0.0)
    stop = np.minimum(n_em, np.maximum(first, np.ceil(tail.index(mu + (x_top + X_DEAD) / beta))))
    sea = np.full(len(beta), first)
    if statistics is Statistics.FERMI_DIRAC and (gamma < -X_DEAD).any():
        sea = np.maximum(first, np.minimum(np.floor(tail.index(mu - X_DEAD / beta)) - 3, n_em))
    return n_em, sea.astype(np.int64), stop.astype(np.int64)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

_LANES = 32          # lanes summed together: batch temporaries stay below ~1 MB
_PAIRS = 1 << 14     # (lane, level) pairs of one direct block


def _lane_sums(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray,
               moff: np.ndarray, statistics: Statistics, start_index: int) -> np.ndarray:
    """``ladder_sums`` of one group of lanes: one row per sum, one column
    per lane."""
    n, e0 = len(beta), spectrum.e0
    first = _closure_floor(spectrum)
    n_em, sea, stop = _direct_range(spectrum, beta, gamma, statistics, start_index)

    # the root block [start_index, first), the same levels for every lane
    d = spectrum.energies(np.arange(start_index, first))[None, :] - e0
    sums = _node_sums(d, np.ones((1, 1)), beta, gamma, moff, statistics)

    # the closures: the tail [n_em, inf) of each lane whose range reaches
    # its closure index, and each filled sea [first, sea)
    for lanes, n0, n1 in (((stop == n_em).nonzero()[0], n_em, np.full(n, np.inf)),
                          ((sea > first).nonzero()[0], np.full(n, first), sea)):
        if len(lanes):
            sums[:, lanes] += _closure(spectrum, beta[lanes], gamma[lanes], moff[lanes],
                                       n0[lanes], n1[lanes], statistics)

    # each lane's own direct window [sea, stop), indexed from its sea in
    # doubling blocks of relative index: a block serves the lanes whose
    # window reaches it and gives weight 0 to the levels past each one's stop
    span = stop - sea
    lo, hi = 0, first
    while lo < span.max():
        lanes = (span > lo).nonzero()[0]
        r = np.arange(lo, min(hi, span[lanes].max()))
        step = max(1, _PAIRS // len(r))
        for k in range(0, len(lanes), step):
            sub = lanes[k:k + step]
            d = spectrum.energies(sea[sub, None] + r) - e0
            sums[:, sub] += _node_sums(d, r < span[sub, None], beta[sub], gamma[sub],
                                       moff[sub], statistics)
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
    set's rows to a common length.
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
