"""Published reference values, typed in from the paper's Table 1.

These numbers are the oracle for the ``table1`` workload and for the
Neumann universal-curve check of the ``sweeps`` workload.  They are kept
here, apart from the copy inside robinwall, so that an edit to the
program's own table cannot move the benchmark's verdict.  Nothing in this
file is computed; there is nothing to regenerate.
"""

# (ensemble, N, field) -> (T at the heat-capacity peak, peak c per particle)
TABLE1 = {
    ("canonical", 1, 1e-3): (0.2504, 7.815),
    ("canonical", 1, 1e-4): (0.1750, 13.154),
    ("canonical", 1, 1e-5): (0.1324, 20.538),
    ("canonical", 1, 1e-6): (0.1056, 30.093),
    ("canonical", 1, 1e-7): (0.0873, 41.910),
    ("fd", 1, 1e-3): (0.2180, 6.295),
    ("fd", 2, 1e-3): (0.2605, 3.874),
    ("fd", 5, 1e-3): (0.3350, 2.219),
    ("fd", 10, 1e-3): (0.4080, 1.766),
    ("fd", 1, 1e-4): (0.1594, 10.164),
    ("fd", 2, 1e-4): (0.1807, 6.028),
    ("fd", 5, 1e-4): (0.2163, 3.006),
    ("fd", 10, 1e-4): (0.2483, 2.122),
    ("fd", 1, 1e-5): (0.1240, 15.416),
    ("fd", 2, 1e-5): (0.1364, 9.035),
    ("fd", 5, 1e-5): (0.1566, 4.153),
    ("fd", 10, 1e-5): (0.1731, 2.650),
    ("fd", 1, 1e-6): (0.1005, 22.145),
    ("fd", 2, 1e-6): (0.1086, 12.957),
    ("fd", 5, 1e-6): (0.1212, 5.694),
    ("fd", 10, 1e-6): (0.1314, 3.375),
    ("fd", 1, 1e-7): (0.0840, 30.417),
    ("fd", 2, 1e-7): (0.0895, 17.837),
    ("fd", 5, 1e-7): (0.0984, 7.654),
    ("fd", 10, 1e-7): (0.1051, 4.312),
    ("be", 1, 1e-3): (0.2812, 8.124),
    ("be", 2, 1e-3): (0.3052, 8.199),
    ("be", 5, 1e-3): (0.3573, 8.115),
    ("be", 10, 1e-3): (0.4179, 7.828),
    ("be", 1000, 1e-3): (2.3157, 3.934),
    ("be", 100000, 1e-3): (30.800, 2.361),
    ("be", 1, 1e-4): (0.1907, 14.011),
    ("be", 2, 1e-4): (0.2024, 14.369),
    ("be", 5, 1e-4): (0.2272, 14.600),
    ("be", 10, 1e-4): (0.2545, 14.391),
    ("be", 1000, 1e-4): (0.8915, 6.922),
    ("be", 100000, 1e-4): (7.9544, 2.990),
    ("be", 1, 1e-5): (0.1413, 22.327),
    ("be", 2, 1e-5): (0.1481, 23.216),
    ("be", 5, 1e-5): (0.1619, 24.223),
    ("be", 10, 1e-5): (0.1765, 24.463),
    ("be", 1000, 1e-5): (0.4399, 13.192),
    ("be", 100000, 1e-5): (2.4146, 4.447),
    ("be", 1, 1e-6): (0.1113, 33.240),
    ("be", 2, 1e-6): (0.1155, 34.950),
    ("be", 5, 1e-6): (0.1240, 37.249),
    ("be", 10, 1e-6): (0.1328, 38.400),
    ("be", 1000, 1e-6): (0.2644, 24.505),
    ("be", 100000, 1e-6): (0.9228, 7.786),
    ("be", 1, 1e-7): (0.0912, 46.875),
    ("be", 2, 1e-7): (0.0940, 49.694),
    ("be", 5, 1e-7): (0.0997, 53.847),
    ("be", 10, 1e-7): (0.1056, 56.414),
    ("be", 1000, 1e-7): (0.1815, 42.095),
    ("be", 100000, 1e-7): (0.4513, 14.828),
}

# relative tolerance on both T_peak and c_peak of a Table 1 cell
TABLE1_TOLERANCE = {"canonical": 0.01, "fd": 0.01, "be": 0.015}

# reflecting (Neumann) wall: c(y), y = beta F^(2/3), peaks at c = 1.522 for
# y = 0.175; tolerances 5e-3 absolute on c and 2% relative on y
NEUMANN_PEAK_Y = 0.175
NEUMANN_PEAK_C = 1.522
NEUMANN_TOL_Y = 0.02
NEUMANN_TOL_C = 5e-3

# first zeros of Ai and Ai' (DLMF Table 9.9.1)
AI_ZERO_1 = -2.338107410459767
AIP_ZERO_1 = -1.018792971647471
