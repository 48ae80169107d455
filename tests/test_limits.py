"""The closed forms of the two-term model stay finite over their whole
accepted domain and reach their limits at its ends.

beta is drawn log-uniform from 1e-300 up: below about 1e-308 the exact
<E> ~ 1/beta and mu ~ -ln(A)/beta leave the float range themselves."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from robinwall.errors import DomainError
from robinwall.grand_canonical import EnsembleSpec, Statistics
from robinwall.limits import asymptotic_mu_cn, weak_field_composite, zero_field_attractive

LOG_BETA = st.floats(min_value=-300.0, max_value=300.0)
LOG_FIELD = st.floats(min_value=-300.0, max_value=0.0)


def _inside(beta, field):
    """Whether (beta, field) lies in the weak-field regime."""
    return field <= 1e-2 and beta * field ** (2.0 / 3.0) <= 0.1


@given(LOG_BETA)
@settings(max_examples=200, deadline=None)
@example(-300.0)
@example(math.log10(3e-103))  # c read inf here
@example(-170.0)  # ZeroDivisionError
@example(300.0)
def test_zero_field_form(log_beta):
    beta = 10.0 ** log_beta
    tp = zero_field_attractive(beta)
    assert math.isfinite(tp.mean_energy) and math.isfinite(tp.heat_capacity_slope)
    assert 0.0 <= tp.heat_capacity < 1.08  # the maximum is 1.0752
    if beta <= 1e-12:  # the free continuum: <E> -> 1/(2 beta), c -> 1/2
        assert 2.0 * beta * tp.mean_energy == pytest.approx(1.0, abs=1e-6)
        assert tp.heat_capacity == pytest.approx(0.5, abs=1e-6)
    if beta >= 1e3:  # the bound level alone
        assert tp.mean_energy == -1.0
        assert tp.heat_capacity <= 1e-300


@given(LOG_FIELD, LOG_BETA)
@settings(max_examples=300, deadline=None)
@example(-3.0, -300.0)
@example(-3.0, math.log10(1e-125))  # <E> read inf here
@example(-300.0, math.log10(3e123))  # OverflowError
@example(-300.0, 199.0 - 1e-9)
@example(-2.0, 0.0)
def test_weak_field_composite_form(log_field, log_beta):
    beta, field = 10.0 ** log_beta, 10.0 ** log_field
    if not _inside(beta, field):
        with pytest.raises(DomainError):
            weak_field_composite(beta, field)
        return
    e, c = weak_field_composite(beta, field)
    assert math.isfinite(e) and math.isfinite(c) and c >= 0.0
    if beta <= 1e-12:  # the continuum alone: <E> -> 3/(2 beta), c -> 3/2
        assert 2.0 * beta * e / 3.0 == pytest.approx(1.0, abs=1e-6)
        assert c == pytest.approx(1.5, abs=1e-6)


@given(LOG_FIELD, LOG_BETA, st.sampled_from([Statistics.FERMI_DIRAC, Statistics.BOSE_EINSTEIN]),
       st.sampled_from([1, 10, 10 ** 6]))
@settings(max_examples=300, deadline=None)
@example(-300.0, 3.0, Statistics.FERMI_DIRAC, 10)  # ZeroDivisionError
@example(-300.0, 150.0, Statistics.BOSE_EINSTEIN, 10)  # OverflowError
@example(-3.0, -200.0, Statistics.FERMI_DIRAC, 10)  # mu read -inf
@example(-9.0, math.log10(9e4), Statistics.FERMI_DIRAC, 1)  # a lone fermion, a = e^-9e4
def test_asymptotic_mu_cn_form(log_field, log_beta, statistics, n):
    beta, field = 10.0 ** log_beta, 10.0 ** log_field
    ensemble = EnsembleSpec(statistics, n)
    if not _inside(beta, field):
        with pytest.raises(DomainError):
            asymptotic_mu_cn(beta, field, ensemble)
        return
    mu, c = asymptotic_mu_cn(beta, field, ensemble)
    assert math.isfinite(mu) and math.isfinite(c) and c >= 1.5
    if statistics is Statistics.BOSE_EINSTEIN:
        assert mu <= -1.0  # at or below the bound level
    if beta <= 1e-12:  # the classical continuum: c -> 3/2
        assert c == pytest.approx(1.5, abs=1e-6)


def test_mu_of_the_hot_continuum():
    # where the continuum outweighs the level by past e^300, mu = -ln(A/N)/beta
    # - 1 holds to rounding: F = 1e-3, N = 10, beta = 1e-200 (-inf before)
    mu, _ = asymptotic_mu_cn(1e-200, 1e-3, EnsembleSpec(Statistics.FERMI_DIRAC, 10))
    ln_a = -math.log(2.0 * math.sqrt(math.pi) * 1e-3) - 1.5 * math.log(1e-200)
    assert mu == pytest.approx((math.log(10.0) - ln_a) / 1e-200, rel=1e-14)
    assert mu == pytest.approx(-6.94e202, rel=1e-3)


def test_a_lone_cold_fermion_sits_mid_gap():
    # deep in the cold the one fermion splits its weight between the level at
    # -1 and the continuum at 0: t (1 + t) = 1/a puts mu at -1/2 + O(ln A/beta)
    beta, field = 9e4, 1e-9
    mu, _ = asymptotic_mu_cn(beta, field, EnsembleSpec(Statistics.FERMI_DIRAC, 1))
    ln_a = -math.log(2.0 * math.sqrt(math.pi) * field) - 1.5 * math.log(beta)
    assert mu == pytest.approx(-0.5 - 0.5 * ln_a / beta, rel=1e-12)
