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
the Boltzmann sums S_0..S_3, or, for Fermi and Bose statistics, the
occupation sums N_0, N_1 together with the distribution sums D_0..D_3 and
the moments G_0..G_3 of the two kernels' product.  All of them come from
the same exponentials, so a grand-canonical state (N, dN/dgamma,
d^2N/dgamma^2, <E>, the heat capacity and its temperature slope) costs a
single ladder pass.  A call takes arrays of lanes (beta, gamma); a scalar
call is a one-lane batch.

Summing takes two steps.  The plan (``_Plan``) lists each piece of the
sums of a batch as a node set, energies above E_0 with weights, one row per
lane served: the root-solved levels below the closure floor, the
Euler-Maclaurin closure nodes with their end stencils, and blocks of the
lanes' own direct windows.  The sum step (``_sums``) evaluates any subset
of the planned lanes at any gamma and moment offset, with one kernel pass
and one weighted reduction (``_node_sums``) per node set.  ``ladder_sums``
is the two steps in sequence, with moments about E_0; a chemical-potential
solve plans its batch once, at each lane's start, and its Halley passes sum
over that plan with moments about the upper of E_0 and mu.
The engine sums energies only and reads every level through
``Spectrum.energies``; what else it needs of the level law (the index at an
energy or a level spacing, the closure's quadrature) it asks of
``spectrum.TailLaw``.

A plan depends on gamma only through where the exponents
x = beta (E - E_0) + gamma meet its cuts: the X_DEAD margins of the direct
range and of a filled sea, and the closure panels, laid out in x.  So it
holds while gamma moves a little: within _REACH = 1 of the gamma it was
planned at.  A Bose plan holds for any rise of gamma, which moves every
exponent up alike: its direct range ends where the exponent of E_1 passes
X_DEAD, and so does not move, its closure index does not depend on gamma,
and its closure panels, laid out for the distance of the lowest closure
node from the kernel's pole at x = 0, only grow finer than they need as
the pole recedes.  Toward the pole it holds for a fall of at most _REACH
and a quarter of the exponent of that node.  A lane summed past its reach
is summed over a plan of its own, made at its gamma for that one pass.
Plans summed at either edge of their reach match brute force to 1e-10 and
their closures mpmath to 1e-12.  Over 4 walls, 5 fields, 16 temperatures
and 9-27 gammas each, sums of a plan moved by up to +-10 in gamma
(fermions and canonical) or 0.99 of that exponent (bosons) stayed within
1.3e-12 of a fresh plan's, and Bose plans moved up by 1 to 30 from gammas
of 1e-6 to 2 within 5.2e-15; at +-20 fermion sums were off by up to 6e-6,
from levels the direct range had dropped.

No node set holds more than 2^13 (lane, node) pairs, so no temporary of
a kernel pass exceeds 64 KB.  A plan holds its node sets, ~1.5 KB per lane
over a Table 1 round (at most ~2.4 KB; up to 0.49 MB for a 300-lane scan),
most of it closure nodes, for as long as its solve runs.

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
The integral is the tail law's quadrature, Gauss-Legendre in the law's own
variable, where the level measure is a polynomial (12 points a panel for
Boltzmann sums, 14 for Bose and 20 for Fermi sums, see ``_RULES``), on energy
panels matched to the kernel (a filled Fermi sea, the transition layer
around x = 0, octave panels up to x = 2 from a closure that starts below
it, next to the Bose kernel's pole, and geometric panels down the
exponential tail from there to ~44 past it), clipped at E_{n1} and padded
with zero-width panels to a common count across lanes.  Every path is
validated against
brute-force summation to ~1e-10 relative; the payoff is that the worst
evaluation in the whole parameter domain costs ~1e4 kernel elements instead
of ~1e8 exp() calls.  ``_work.counts`` counts the plans, passes, stale
lanes, kernel passes and elements and closure blocks where they are made.
"""

from __future__ import annotations

import enum

import numpy as np

from . import _work
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

# the sums one call returns per statistics, as the number of moments
# (powers 0, 1, ...) of each of its kernels (``_kernels``): S_0..S_3 of
# e^{-x}; N_0, N_1 of the occupation, D_0..D_3 of the distribution and
# G_0..G_3 of their product (the third moments give the slope of c)
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

X_DEAD = 45.0  # |x| beyond which occupations are 0/1 to better than 1e-19

# the closure integral's Gauss-Legendre rule (nodes, weights) per statistics.
# Over 4 walls x 5 fields x 40 temperatures the sums stay within 1.4e-14
# (canonical), 3.1e-14 (FD, whose transition layer needs the most nodes) and
# 1.7e-14 (BE, down to beta F^(2/3) = 1e-7 at 5 gammas each) of a 64-node
# rule's; a Bose closure from x = 0.5, next to the kernel's pole, needs 14
# nodes to meet 1e-12 alone (12 left 2.9e-12 in D_0)
_RULES = {s: np.polynomial.legendre.leggauss(n) for s, n in (
    (Statistics.CANONICAL, 12), (Statistics.FERMI_DIRAC, 20), (Statistics.BOSE_EINSTEIN, 14))}

# exponent offsets of the geometric tail panels, from 0.5 up to the last
# edge below X_DEAD, laid out from where the tail starts (44.3 units up):
# the integrand has fallen by e^-44 there
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
    every row has reached its stop (earlier rows repeat it)."""
    k = int(np.ceil(np.log2(np.max(stop / start)))) + 1
    return np.minimum(start[:, None] * 2.0 ** np.arange(1, k + 1), stop[:, None])


def _panel_breaks(d0: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Panel edges for the closure integral from d0 on, in energy above E_0,
    one row per lane, matched to the kernel's structure at the exponents
    beta * d + gamma: octave panels in d across a filled Fermi sea (the
    kernel is constant there to e^-40), a finely split transition layer,
    octave panels up to x = 2 through a 1/x-like Bose region, and geometric
    panels down the exponential tail, laid out from the exponent where the
    tail starts.  Rows with fewer panels are padded with zero-width ones."""
    x0 = beta * d0 + gamma
    d_cols = [d0[:, None]]
    sea = x0 < -40.0
    if sea.any():
        d_cols.append(_doublings(d0, np.where(sea, (-40.0 - gamma) / beta, d0)))
    x = np.where(sea, -40.0, x0)
    x_cols = []
    if (x <= 0.0).any():
        # up to x = 0.5 in equal steps of at most 4: np.linspace(x, 0.5, n + 1)[1:].
        # Steps of 5 left 1.2e-12 in G_3 = sum d^3 D f from a weak-field closure
        # starting at x = -4.3 with v0 ~1e-5 of its panel; 4 leave <= 3e-14
        to = np.where(x <= 0.0, 0.5, x)
        n = np.maximum(np.ceil((to - x) / 4.0), 1.0)
        j = np.arange(1.0, n.max() + 1.0)
        x_cols.append(np.where(j < n[:, None], j * ((to - x) / n)[:, None] + x[:, None],
                               to[:, None]))
        x = to
    # octaves up to x = 2, where Bose D f ~ 1/x^3 falls off the pole: octaves
    # up to 0.5 and a first tail panel [0.5, 2.85] left 3.6e-10 in G_0 at
    # beta F^(2/3) = 1e-7, gamma = 0.5
    if (x < 2.0).any():
        x_cols.append(_doublings(x, np.maximum(x, 2.0)))
        x = np.maximum(x, 2.0)
    x_cols.append(x[:, None] + _TAIL_Y - 0.5)
    d_cols.append((np.concatenate(x_cols, axis=1) - gamma[:, None]) / beta[:, None])
    return np.concatenate(d_cols, axis=1)


def _node_sums(d: np.ndarray, w: np.ndarray, beta: np.ndarray, gamma: np.ndarray,
               moff: np.ndarray, statistics: Statistics) -> np.ndarray:
    """sum_j w_j (d_j + moff)^p F(beta d_j + gamma) over the nodes of each
    lane, d_j = E_j - E_0 (a row of d and w per lane), one row per returned
    sum and one column per lane: the one kernel pass of a node set, each
    kernel weighted once and its moments reduced from that."""
    _work.counts.update(node_sums=1, kernel_elements=d.size)
    dm = d + moff[:, None]
    out = []
    for kern, moments in zip(_kernels(beta[:, None] * d + gamma[:, None], statistics),
                             _MOMENTS[statistics]):
        kern *= w
        out.append(kern.sum(axis=1))
        for _ in range(1, moments):
            kern *= dm
            out.append(kern.sum(axis=1))
    return np.array(out)


def _closure(spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray, n0: np.ndarray,
             n1: np.ndarray, statistics: Statistics) -> list[tuple]:
    """Node sets of the Euler-Maclaurin closure of sum_{n0 <= m < n1} f(E_m)
    at the exponents beta(E_m - E_0) + gamma (n1 = inf: the tail), one
    (rows, d, w) per block of the lanes given: the integral, edge(n0) and
    -edge(n1).  The integral is the tail law's quadrature with the rule
    ``_RULES[statistics]`` on the panels of ``_panel_breaks``,
    clipped at E_{n1}; each edge is ``_EDGE`` on the five levels around it."""
    e0 = spectrum.e0
    finite = np.isfinite(n1)
    # the five levels around each end, E(n0) and E(n1) in the middle, with
    # their weights (the upper end only if a lane has one)
    m = np.array([n0, np.where(finite, n1, n0)], dtype=np.int64)[:1 + finite.any()]
    ends = spectrum.energies(m[:, :, None] + _STENCIL) - e0
    edges = np.multiply.outer(np.array([np.ones(len(beta)), -1.0 * finite])[:len(m)], _EDGE)

    def live(b):  # b without the panels of zero width in all its lanes (a sea's past its end)
        return b[:, np.concatenate(([True], (b[:, 1:] > b[:, :-1]).any(axis=0)))]

    breaks = live(np.minimum(_panel_breaks(ends[0, :, 2], beta, gamma),
                             np.where(finite, ends[-1, :, 2], np.inf)[:, None]))
    nodes, weights = _RULES[statistics]
    blocks = []
    for rows in _blocks(np.arange(len(beta)),
                        (breaks.shape[1] - 1) * len(nodes) + edges.shape[0] * len(_EDGE)):
        e, w = spectrum.tail.quadrature(live(breaks[rows]) + e0, nodes, weights)
        blocks.append((rows, np.concatenate([e - e0, *ends[:, rows]], axis=1),
                       np.concatenate([w, *edges[:, rows]], axis=1)))
    return blocks


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
# the engine: a plan of node sets per lane, then kernel passes over it
# ---------------------------------------------------------------------------

_PAIRS = 1 << 13     # (lane, node) pairs of one node set at most

# a lane's reach in gamma, and for bosons, whose plans hold for any rise of
# gamma, the share of the exponent of its lowest closure node it may fall by
# (sized against brute force; see the module docstring)
_REACH = 1.0
_REACH_BOSE = 0.25


def _blocks(lanes: np.ndarray, width: int) -> list[np.ndarray]:
    """``lanes`` in runs of max(1, _PAIRS // width), for node sets ``width`` wide."""
    step = max(1, _PAIRS // width)
    return [lanes[k:k + step] for k in range(0, len(lanes), step)]


class _Plan:
    """The node sets of a batch of lanes at temperatures ``beta``, planned
    once at ``gamma``: ``sets`` lists each as (rows, d, w), the rows of the
    batch it serves with their energies above E_0 and weights, one row per
    lane, in blocks of at most ``_PAIRS`` (lane, node) pairs: the root block
    [start_index, closure floor) with weight 1, the closures of the tail and
    of each filled Fermi sea, and the blocks of the direct windows.  Lane i's
    node sets hold while its gamma stays within ``reach[i]`` of ``gamma[i]``,
    or, for bosons, above ``gamma[i] - reach[i]``."""

    def __init__(self, spectrum: Spectrum, beta: np.ndarray, gamma: np.ndarray,
                 statistics: Statistics, start_index: int = 0) -> None:
        self.spectrum, self.statistics, self.start_index = spectrum, statistics, start_index
        self.beta, self.gamma = beta, gamma = _check_beta(beta), np.array(gamma, dtype=float)
        n, e0, first = len(beta), spectrum.e0, _closure_floor(spectrum)
        _work.counts.update(plans=1, plan_lanes=n)
        n_em, sea, stop = _direct_range(spectrum, beta, gamma, statistics, start_index)
        self.reach = np.full(n, _REACH)

        # the root block: one row of energies and weight 1, broadcast over its lanes
        root = spectrum.energies(np.arange(start_index, first)) - e0
        self.sets = [(rows, np.broadcast_to(root, (len(rows), len(root))), np.ones((len(rows), 1)))
                     for rows in _blocks(np.arange(n), len(root))]

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

        # each lane's own direct window [sea, stop), indexed from its sea in
        # doubling blocks of relative index: a block serves the lanes whose
        # window reaches it and gives weight 0 to the levels past each one's stop
        span = stop - sea
        lo, hi = 0, first
        while lo < span.max():
            lanes = (span > lo).nonzero()[0]
            r = np.arange(lo, min(hi, span[lanes].max()))
            self.sets += [(rows, spectrum.energies(sea[rows, None] + r) - e0, r < span[rows, None])
                          for rows in _blocks(lanes, len(r))]
            lo, hi = hi, min(2 * hi, hi + _PAIRS)


def _sums(plan: _Plan, lanes: np.ndarray, gamma: np.ndarray, moff: np.ndarray) -> np.ndarray:
    """The sums of ``plan``'s lanes ``lanes`` (indices into its batch) at
    ``gamma`` with moment offsets ``moff``, one of each per lane: one row per
    sum and one column per lane, from one kernel pass and weighted reduction
    (``_node_sums``) per node set that serves them.  Lanes whose gamma lies
    beyond their reach from the gamma they were planned at (for bosons,
    below it by more than their reach) are summed over a plan of their own,
    made at their gamma."""
    # each lane's move from where it was planned: its fall for bosons, whose
    # plans hold for any rise, else its distance
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
            out[:, c] += _node_sums(d, w, p.beta[rows], gamma[c], moff[c], p.statistics)
    return out


def ladder_sums(spectrum: Spectrum, beta: float | np.ndarray, statistics: Statistics, *,
                gamma: float | np.ndarray = 0.0, start_index: int = 0) -> tuple:
    """All sums of the kernel family of ``statistics`` over
    n >= start_index, in one pass, for a batch of lanes.

    ``beta`` (finite, > 0) and ``gamma`` (finite), each a scalar or 1-D,
    broadcast against each other, one lane per element.  With
    x_n = beta*(E_n - E_0) + gamma and moments about E_0:

    * ``CANONICAL``: (S_0, S_1, S_2, S_3), S_p = sum (E_n - E_0)^p e^{-x_n};
    * ``FERMI_DIRAC`` or ``BOSE_EINSTEIN``: (N_0, N_1, D_0, D_1, D_2, D_3,
      G_0, G_1, G_2, G_3) with N_p = sum (E_n - E_0)^p f_n,
      f_n = 1 / (e^{x_n} +- 1), D_p = sum (E_n - E_0)^p D(x_n),
      D(x) = e^x / (e^x +- 1)^2, and G_p = sum (E_n - E_0)^p D(x_n) f_n, the
      upper sign for fermions and the lower for bosons.
      dN_0/dgamma = -D_0 and d^2N_0/dgamma^2 = D_0 -+ 2 G_0, from
      dD/dx = -D +- 2 D f, which with D_3 and G_3 also gives the slope of c.

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
    beta, g = _check_beta(beta), np.asarray(gamma, dtype=float)
    if g.ndim > 1 or not (g.size and np.isfinite(g).all()):
        raise DomainError(f"gamma must be finite, a scalar or 1-D and not empty, got {gamma!r}")
    shape = np.broadcast(beta, g).shape
    beta, gamma = ((np.zeros(shape) + a).ravel() for a in (beta, g))
    sums = _sums(_Plan(spectrum, beta, gamma, statistics, start_index),
                 np.arange(beta.size), gamma, np.zeros(beta.size))
    if not shape:
        return tuple(sums[:, 0].tolist())
    return tuple(s.reshape(shape) for s in sums)
