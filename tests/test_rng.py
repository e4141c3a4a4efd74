"""Known answers of the random streams: the raw Philox words of one
`rng.substream` key and the first values of each `rng` transform.

numpy promises to keep a bit generator's raw words, not the streams of
its `Generator` methods (NEP 19).  Every engine draw is one
`Generator.random` double per value, turned into its distribution by a
transform in `rng`, so a seed's events depend on those words, on
`random`'s `(word >> 11) 2^-53` and on numpy's `log1p`, `tan` and `sqrt`.
A numpy release that moved any of them fails here by name before it
moves the golden event digests.  The values were taken with numpy 2.4.6.
"""

import numpy as np
import pytest

from trionsim import rng

_KEY = (20260815, "known-answer", 0)


def _stream():
    return rng.substream(*_KEY)


def test_substream_raw_words():
    assert rng.derive_seed(*_KEY) == 2230637370346604702
    assert _stream().bit_generator.random_raw(4).tolist() == [
        0x825f4a71971d618c, 0xa6686c0eecd1af37,
        0x8d90b821c0607338, 0xda60d107f8143728]


def test_random_is_the_top_53_bits_of_one_word():
    words = _stream().bit_generator.random_raw(64)
    assert np.array_equal(_stream().random(64),
                          (words >> np.uint64(11)) * 2.0 ** -53)


_KNOWN = {
    "exponential": (lambda g: rng.exponential(g, 2.0, 4), [
        1.423708227076848, 2.099820570135986, 1.6103463479834603,
        3.835186994826786]),
    "lorentzian": (lambda g: rng.lorentzian(g, 3.0, 4), [
        0.08735959386530302, 1.5289426629730078, 0.5040792803348046,
        6.029493570924745]),
    "gaussian": (lambda g: rng.gaussian(g, 1.5, 5), [
        1.0794735320563884, 2.061232030868256, 1.8971494682601107,
        -1.4276135347189074, -0.6898686815102549]),
    "channels": (lambda g: rng.channels(g, 3, 8), [1, 1, 1, 2, 2, 2, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(_KNOWN))
def test_transform_known_answers(name):
    draw, want = _KNOWN[name]
    assert draw(_stream()).tolist() == want


@pytest.mark.parametrize("name, draw, words", [
    ("exponential", lambda g, n: rng.exponential(g, 1.0, n), lambda n: n),
    ("lorentzian", lambda g, n: rng.lorentzian(g, 1.0, n), lambda n: n),
    ("channels", lambda g, n: rng.channels(g, 2, n), lambda n: n),
    # a pair of values per radius word and angle word
    ("gaussian", lambda g, n: rng.gaussian(g, 1.0, n),
     lambda n: 2 * ((n + 1) // 2)),
])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_each_value_takes_one_word(name, draw, words, n):
    # the stream after the draw sits where that many raw words leave it
    g = _stream()
    draw(g, n)
    after = _stream().bit_generator.random_raw(words(n) + 1)[-1]
    assert g.bit_generator.random_raw(1)[0] == after


@pytest.mark.parametrize("draw", [
    lambda g, n: rng.exponential(g, 0.5, n),
    lambda g, n: rng.lorentzian(g, 0.5, n),
    lambda g, n: rng.channels(g, 5, n),
], ids=["exponential", "lorentzian", "channels"])
def test_blocks_draw_what_one_call_draws(draw):
    whole = draw(_stream(), 1000)
    g = _stream()
    parts = np.concatenate([draw(g, 300), draw(g, 1), draw(g, 699)])
    assert parts.dtype == whole.dtype
    assert parts.tobytes() == whole.tobytes()


def test_transforms_stay_in_range_at_the_end_words():
    # u = 0 and the largest double below 1, through a generator whose
    # `random` returns them
    class Ends:
        def random(self, size):
            return np.resize(np.array([0.0, 1.0 - 2.0 ** -53]), size)

    exp = rng.exponential(Ends(), 1.0, 2)
    assert exp[0] == 0.0 and 36.0 < exp[1] < 37.0
    assert np.all(np.isfinite(rng.lorentzian(Ends(), 1.0, 2)))
    assert np.all(np.isfinite(rng.gaussian(Ends(), 1.0, 4)))
    assert rng.channels(Ends(), 3, 2).tolist() == [0, 2]
