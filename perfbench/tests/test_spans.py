"""Self-time arithmetic and the tracer's wrapping of robinwall."""

import robinwall
from robinwall import grand_canonical, spectrum

import spans


def test_self_times_on_a_synthetic_tree():
    # 0: [0, 100] root
    #   1: [10, 40]  child of 0
    #     2: [15, 25] child of 1
    #   3: [50, 60]  child of 0
    #   4: [55, 120] child of 0, overlaps 3 and runs past the root's end
    starts = [0, 10, 15, 50, 55]
    ends = [100, 40, 25, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    # root covered by [10,40] and [50,100] (4 clipped, merged with 3): 30 + 50
    assert spans.self_times(starts, ends, parents) == [20, 20, 10, 10, 65]


def test_layer_metrics_on_a_synthetic_tree():
    names = ["grand_canonical.gc_point", "ladder.ladder_sums", "canonical.find_extrema"]
    # find_extrema -> 2 gc_points, each with 3 ladder_sums
    name_ids, starts, ends, parents = [2], [0], [1000], [-1]
    notes = {}
    t = 0
    for _ in range(2):
        gp = len(name_ids)
        name_ids.append(0), starts.append(t + 10), ends.append(t + 400), parents.append(0)
        for k in range(3):
            idx = len(name_ids)
            name_ids.append(1)
            starts.append(t + 20 + 100 * k), ends.append(t + 100 + 100 * k)
            parents.append(gp)
            notes[idx] = ("occ", "dist", "occ")[k]
        t += 450
    m = spans.layer_metrics(names, name_ids, starts, ends, parents, notes)
    assert m["grand_canonical.gc_point.calls"] == 2
    assert m["ladder.ladder_sums.calls"] == 6
    assert m["ladder.ladder_sums.occ.calls"] == 4
    assert m["ladder.ladder_sums.dist.calls"] == 2
    assert m["grand_canonical.ladder_per_gc_point"] == 3.0
    assert m["canonical.evals_per_extremum"] == 2.0
    assert abs(m["grand_canonical.gc_point.self_s"] - 2 * (390 - 240) * 1e-9) < 1e-18
    assert abs(m["ladder.ladder_sums.us_per_call"] - 80e-3) < 1e-12
    assert m["grand_canonical.be_critical.calls"] == 0
    assert m["grand_canonical.ladder_per_be_critical"] == 0.0


def test_tracer_sees_calls_through_imported_names_and_restores_them():
    original = spectrum.build_spectrum
    wall = spectrum.WallSpec(spectrum.WallKind.ROBIN_ATTRACTIVE, 1e-3)
    sp = spectrum.build_spectrum(wall, count=8, n_exact=8)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert robinwall.build_spectrum is not original
        robinwall.build_spectrum(wall, count=8, n_exact=8)
        grand_canonical.gc_point(
            sp, 5.0, grand_canonical.EnsembleSpec(grand_canonical.Statistics.FERMI_DIRAC, 2))
    finally:
        tracer.uninstall()
    assert spectrum.build_spectrum is original and robinwall.build_spectrum is original
    m = spans.layer_metrics(*tracer.spans(), tracer.notes)
    assert m["spectrum.build_spectrum.calls"] == 1
    assert m["spectrum.roots_solved"] == 8
    assert m["spectrum.airy_calls_per_root"] > 10
    assert m["grand_canonical.gc_point.calls"] == 1
    assert m["grand_canonical.ladder_per_gc_point"] >= 3
    assert m["ladder.ladder_sums.occ.calls"] + m["ladder.ladder_sums.dist.calls"] \
        == m["ladder.ladder_sums.calls"]
