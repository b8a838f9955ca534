"""The synthetic generator: the bits of its values stay fixed."""

import hashlib
import tracemalloc

import pytest

from gcnn import synth


@pytest.mark.parametrize("spec, digest", [
    (synth.SynthSpec(), "6a81bb668cbd0a854642231c83dd822a423ba5e32ba745e03acdb514bb746c45"),
    (synth.SynthSpec(n_groups=49, per_group=3, length=3650, phi=0.9, seed=21),
     "734a1dc433ebabfdbe03cd46badd6efeed216ce4f5b1ba3245457b64f7434006"),
], ids=["default", "wide"])
def test_values_keep_their_bits(spec, digest):
    data = synth.generate(spec)
    n = spec.n_groups * spec.per_group + 1
    assert data.values.shape == (n, spec.length) and data.values.flags.c_contiguous
    assert hashlib.sha256(data.values.tobytes()).hexdigest() == digest


def test_values_are_drawn_into_one_table():
    spec = synth.SynthSpec(n_groups=49, per_group=3, length=3650, phi=0.9, seed=21)
    tracemalloc.start()
    try:
        data = synth.generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table, and the drivers with their shocks; a list of rows stacked
    # into the table held it twice (12.1 MB here)
    table = data.values.nbytes + data.mask.nbytes + data.times.nbytes
    assert peak < table + 2 * 8 * spec.n_groups * spec.length + 2**17
