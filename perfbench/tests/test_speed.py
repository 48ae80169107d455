"""Reference-second arithmetic of speed.Meter, with a fake probe."""

import time

import speed


def test_meter_divides_by_the_mean_probe_and_takes_probe_time_out():
    probe_times = iter([0.003, 0.003, 0.003] + [0.002] * 100)
    meter = speed.Meter(probe=lambda: next(probe_times), ref_s=0.001)
    wall, ref, out = meter.time(lambda: time.sleep(0.12) or "done")
    assert out == "done"
    ticks = len(meter.probes) - 2          # the opening median and the closing probe
    assert ticks >= 1                      # the timer fired during the work
    assert 0.12 - 0.002 * ticks <= wall + 1e-9
    # mean over the opening probe (0.003), the ticks and the closing one (0.002)
    mean = (0.003 + 0.002 * (ticks + 1)) / (ticks + 2)
    assert abs(ref - wall * 0.001 / mean) < 1e-12


def test_meter_passes_exceptions_through_and_disarms_the_timer():
    meter = speed.Meter(probe=lambda: 0.001, ref_s=0.001)

    def boom():
        raise ValueError("boom")

    try:
        meter.time(boom)
    except ValueError:
        pass
    else:
        raise AssertionError("the exception was swallowed")
    before = len(meter.probes)
    time.sleep(0.12)                       # no ticks once the work has ended
    assert len(meter.probes) == before
