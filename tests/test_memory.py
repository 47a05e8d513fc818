"""Memory ceilings of the fold, `load`, `total_count`, `normalize` and the density grids.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is what it held at once. Each bound lies between the peak the layer reaches
when it holds one block or one copy of its largest array, and the peak it
reached while it held two: a layer that goes back to holding a second copy
fails here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from mixexact import datasets, lattice, posterior
from mixexact.families import PoissonGamma
from mixexact.posterior import MixturePrior


def _traced_peak(fn, *args):
    """fn(*args) and the bytes it held at its peak beyond those held before."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def fit_data():
    # the fit-poisson-k3 benchmark's size: k=3, E = 59,754, a 1.09 MB dump
    return datasets.poisson_mixture_sample(16, 0.5, 1.0, 6.0, 3)


def test_build_holds_about_eight_words_per_entry(fit_data):
    # 64 bytes per entry here: the k*w key columns, the multiplicities and
    # the successor codes and sort order of the last step; 108 while the fold
    # tiled the multiplicities and kept a sorted copy of the codes
    lat, peak = _traced_peak(lattice.build, fit_data, 3)
    assert lat.distinct_count() == 59_754
    assert peak / lat.distinct_count() < 80


def test_load_holds_a_block_beyond_its_output(fit_data):
    # 7.1 bytes per text byte here: the key columns and multiplicities (3.1),
    # the text's bytes (1) and one block's buffers; 9.7 while each gather
    # copied the whole strided view of the block's words first
    text = lattice.dump(lattice.build(fit_data, 3))
    lat, peak = _traced_peak(lattice.load, text)
    assert lat.distinct_count() == 59_754
    assert peak / len(text) < 8.5


def test_total_count_holds_one_int64_column(fit_data):
    # 8.0 bytes per entry here: one 31-bit half of the multiplicities at a
    # time; 24.2 while it made a Python int of every multiplicity
    lat = lattice.build(fit_data, 3)
    total, peak = _traced_peak(lat.total_count)
    assert total == 3**16
    assert peak / lat.distinct_count() < 12


def test_normalize_sorts_the_multiplicities_before_the_columns(fit_data):
    # 48.0 bytes per entry here: np.unique's sort of the multiplicities ends
    # before the k contribution columns are formed; 65.3 while it overlapped
    # them
    lat = lattice.build(fit_data, 3)
    prior = MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3)
    wp, peak = _traced_peak(posterior.normalize, lat, prior)
    assert len(wp.weights) == 59_754
    assert peak / len(wp.weights) < 56


def test_many_member_density_holds_one_block():
    # distinct powers of two: every allocation has its own S_1, so the
    # lambda_1 marginal has 2**14 members and a block holds 4 grid points.
    # 2.00 MiB here, while the members are built: their digit codes and the
    # (member, exponent) bins of their exact sums, which np.unique numbers.
    # The density then holds 1.88 MiB: the 1 MiB block of both buffers, the
    # members' arrays and, before the block, log Gamma's table of their
    # distinct shapes; a second block takes it to 2.76 MiB
    lat = lattice.build([2**i for i in range(14)], 2)
    prior = MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0),) * 2)
    wp = posterior.normalize(lat, prior)
    grid = np.linspace(1.0, 2.0**14, posterior.DEFAULT_GRID_POINTS)
    density, peak = _traced_peak(posterior.marginal_component_density, wp, 0, grid)
    assert len(np.unique(lat.key_array[:, 1])) == 2**14
    assert np.all(np.isfinite(density.density))
    block = 8 * posterior._DENSITY_BLOCK_ELEMENTS
    assert peak < 2.25 * block
