from __future__ import annotations

from equicorr.rng import SplitMix64

MASK = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    # independent plain-int transcription of the documented recurrence
    out, state = [], seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_recurrence():
    for seed in (0, 1, 0x123456789ABCDEF, MASK):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(8)] == reference_stream(seed, 8)


def test_known_seed_zero_words():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_uniform_range_and_determinism():
    a = SplitMix64(7).uniforms(1000, -1.0, 1.0)
    b = SplitMix64(7).uniforms(1000, -1.0, 1.0)
    assert (a == b).all()
    assert (a >= -1.0).all() and (a < 1.0).all()
    assert abs(a.mean()) < 0.1


def test_uniforms_match_scalar_stream():
    for seed in (0, 7, 0x123456789ABCDEF, MASK):
        for shape in ((), 1, 5, (3, 4), (2, 0, 3), (4, 3, 2, 1)):
            vec, scalar = SplitMix64(seed), SplitMix64(seed)
            got = vec.uniforms(shape, -1.0, 1.0)
            size = 1
            for d in (shape if isinstance(shape, tuple) else (shape,)):
                size *= d
            want = [-1.0 + 2.0 * scalar.uniform() for _ in range(size)]
            assert got.shape == (shape if isinstance(shape, tuple) else (shape,))
            assert got.ravel().tolist() == want
            # the generator state advances by exactly one word per float
            assert vec.next_u64() == scalar.next_u64()
