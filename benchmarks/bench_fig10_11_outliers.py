"""Figures 10-11 — outlier channel statistics.

Measured over the wide synthetic substrate: per inference fewer than a
fraction of a percent of activation channels carry outliers (Fig. 10),
and a small "hot" channel set covers >80% of all outlier occurrences
(Fig. 11) — the facts behind shadow execution and the hot-channel cache.
"""

from conftest import show_and_archive

from repro.eval.accuracy import fig10_fig11_outlier_stats


def test_fig10_11_regenerate(once):
    table = once(fig10_fig11_outlier_stats)
    show_and_archive(table, "fig10_11.txt")

    for row in table.rows:
        outlier_fraction = float(row[3].rstrip("%"))
        hot_fraction = float(row[5].rstrip("%"))
        mean_channels = row[2]
        # Fig. 10: outlier channels are rare (paper: 5-15 of 2048, <0.3%;
        # the synthetic substrate stays below 1.5%)
        assert outlier_fraction < 1.5, row[0]
        assert mean_channels < 16.0, row[0]
        # Fig. 11: a small hot set covers 80% of outliers (<3% of width)
        assert hot_fraction < 3.0, row[0]
