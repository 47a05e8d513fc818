"""Memory ceilings of the resting lattice, the fold, `load`, `total_count`,
`normalize`, `summarize`, a benchmark-shaped pass and the density grids.

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


def test_resting_lattice_holds_its_codes_and_multiplicities(fit_data):
    # 16 bytes per entry: one int64 code word and one int64 multiplicity; 56
    # while the lattice held its k*w = 6 key columns instead of the word
    lat = lattice.build(fit_data, 3)
    assert lat.codes.shape == (1, 59_754)
    assert (lat.codes.nbytes + lat.mult_array.nbytes) / lat.distinct_count() <= 16


def test_build_holds_about_eight_words_per_entry(fit_data):
    # 55 bytes per entry here: the codes and multiplicities, and the
    # successor codes and sort order of the last step; 64 while the fold
    # decoded its codes into the k*w key columns at its end, 108 while it
    # tiled the multiplicities and kept a sorted copy of the codes
    lat, peak = _traced_peak(lattice.build, fit_data, 3)
    assert lat.distinct_count() == 59_754
    assert peak / lat.distinct_count() < 60


def test_load_holds_a_block_beyond_its_output(fit_data):
    # 2.1 bytes per text byte here: the codes and multiplicities (0.9) and
    # one block's buffers and window of the text; 7.1 while it parsed whole
    # key columns beside a bytes copy of the text
    text = lattice.dump(lattice.build(fit_data, 3))
    lat, peak = _traced_peak(lattice.load, text)
    assert lat.distinct_count() == 59_754
    assert peak / len(text) < 3


def test_total_count_holds_one_int64_column(fit_data):
    # 8.0 bytes per entry here: one 31-bit half of the multiplicities at a
    # time; 24.2 while it made a Python int of every multiplicity
    lat = lattice.build(fit_data, 3)
    total, peak = _traced_peak(lat.total_count)
    assert total == 3**16
    assert peak / lat.distinct_count() < 12


def test_normalize_holds_its_weights_and_one_block(fit_data):
    # 27.1 bytes per entry here: the log weights and their exp, a block of
    # decoded keys and terms, and the table of the multiplicities' logs; 48.0
    # while it formed k whole contribution columns after np.unique's sort of
    # the multiplicities, 65.3 while that sort overlapped them
    lat = lattice.build(fit_data, 3)
    prior = MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3)
    wp, peak = _traced_peak(posterior.normalize, lat, prior)
    assert len(wp.weights) == 59_754
    assert peak / len(wp.weights) < 56


def test_summarize_holds_one_block_and_one_sorted_copy(fit_data):
    # 32.5 bytes per entry here: one block of decoded keys, their products
    # w_e * m_e and the exact sums' temporaries (a fixed 1.9 MB), or
    # mass_concentration's sorted copy and running sum of the weights (16);
    # 57.1 while the means were numpy sums of whole float columns, formed
    # from each slot's whole decoded key columns
    lat = lattice.build(fit_data, 3)
    wp = posterior.normalize(lat, MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3))
    summary, peak = _traced_peak(posterior.summarize, wp)
    assert len(set(summary.expected_weights)) == 1
    assert peak / len(wp.weights) < 40


def test_a_benchmark_pass_holds_its_outputs_and_one_dump(fit_data):
    # the fit-poisson-k3 pass, build, normalize, dump, load and dump again,
    # while a first lattice and its posterior are held. 106 bytes per entry
    # here, at the second dump: the pass's lattice, posterior, text and
    # loaded lattice (66), and the dump's blocks and its joined text; 220 at
    # `load` while lattices held key columns and `load` parsed whole ones
    prior = MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3)
    first = lattice.build(fit_data, 3)
    held = (first, posterior.normalize(first, prior))

    def one_pass():
        lat = lattice.build(fit_data, 3)
        wp = posterior.normalize(lat, prior)
        text = lattice.dump(lat)
        assert lattice.dump(lattice.load(text)) == text
        return wp

    wp, peak = _traced_peak(one_pass)
    assert len(wp.weights) == len(held[1].weights) == 59_754
    assert peak / len(wp.weights) < 120


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
