import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ar_signal, speech_like_poles, speech_with_pauses
from emodeid import anonymize
from emodeid.anonymize import (
    MAX_POLE_MAGNITUDE,
    AnonymizationParams,
    _roots_rows,
    _stable_rows,
    _synthesize_rows,
    anonymize_mcadams,
    block_frames,
    warp_pole_angles,
)
from emodeid.dsp import (
    AudioSignal,
    FrameParams,
    frame_signal,
    hann_window,
    lpc_levinson,
    lpc_residual,
    overlap_add,
    poles_to_coeffs,
    poly_roots,
    synthesize,
)
from emodeid.errors import InvalidParamError

RATE = 16000
# The batched anonymizer sums in another order than this per-frame loop. The
# loop itself moves by up to ~5e-10 (relative L2) when its input moves by
# 1e-16..1e-15 relative, because frames at the edge of a pause give
# ill-conditioned LPC fits; 1e-8 leaves room for that and nothing more.
ORACLE_REL_L2 = 1e-8


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_pole_set(rng, max_pairs=10):
    n_pairs = int(rng.integers(1, max_pairs + 1))
    poles = []
    for _ in range(n_pairs):
        z = rng.uniform(0.05, 0.999) * np.exp(1j * rng.uniform(1e-4, np.pi - 1e-4))
        poles.extend([z, np.conj(z)])
    if rng.random() < 0.3:
        poles.append(complex(rng.uniform(-0.999, 0.999)))
    return np.array(poles)


def test_warp_known_pole():
    pole_set = np.array([0.95 * np.exp(0.5j), 0.95 * np.exp(-0.5j)])
    warped = warp_pole_angles(pole_set, 0.8)
    assert np.angle(warped[0]) == pytest.approx(0.5**0.8, abs=1e-12)
    assert abs(warped[0]) == pytest.approx(0.95, abs=1e-12)
    assert warped[1] == np.conj(warped[0])


def test_warp_lambda_one_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pole_set = random_pole_set(rng)
        warped = warp_pole_angles(pole_set, 1.0)
        np.testing.assert_array_equal(warped, pole_set)


def test_warp_leaves_real_poles_alone():
    pole_set = np.array([0.9 + 0j, -0.7 + 0j])
    for lam in (0.5, 0.8, 1.3):
        np.testing.assert_array_equal(
            warp_pole_angles(pole_set, lam), pole_set
        )


def test_warp_magnitude_invariance_and_angle_compression():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pole_set = random_pole_set(rng)
        warped = warp_pole_angles(pole_set, 0.8)
        np.testing.assert_allclose(
            np.abs(warped), np.minimum(np.abs(pole_set), 1 - 1e-6), atol=1e-9
        )
        for old, new in zip(pole_set, warped):
            theta, theta_new = abs(np.angle(old)), abs(np.angle(new))
            if 1e-6 < theta < np.pi - 1e-6:
                assert abs(theta_new - 1.0) <= abs(theta - 1.0) + 1e-12
                assert np.sign(theta - 1.0) == np.sign(theta_new - 1.0) or theta == 1.0
                assert 0.0 < theta_new < np.pi


def test_warp_expands_angles_for_lambda_above_one():
    pole_set = np.array([0.9 * np.exp(0.5j), 0.9 * np.exp(-0.5j),
                         0.9 * np.exp(2.0j), 0.9 * np.exp(-2.0j)])
    warped = warp_pole_angles(pole_set, 1.2)
    for old, new in zip(pole_set, warped):
        theta, theta_new = abs(np.angle(old)), abs(np.angle(new))
        assert abs(theta_new - 1.0) >= abs(theta - 1.0) - 1e-12


def test_warp_output_conjugate_closed():
    rng = np.random.default_rng(2)
    for _ in range(100):
        warped = warp_pole_angles(random_pole_set(rng), 0.8)
        poles = sorted(
            (z for z in warped if z.imag != 0), key=lambda z: (z.real, z.imag)
        )
        for i in range(0, len(poles), 2):
            assert poles[i] == np.conj(poles[i + 1])


def test_identity_lambda_on_speech_like_signal():
    rng = np.random.default_rng(3)
    x = ar_signal(rng, 32000, speech_like_poles())
    out = anonymize_mcadams(AudioSignal(x, 16000), AnonymizationParams(mcadams_lambda=1.0))
    assert rel_l2(out.samples, x) < 1e-4


def test_output_length_rate_and_realness():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, 12345)
    out = anonymize_mcadams(AudioSignal(x, 16000), AnonymizationParams(mcadams_lambda=0.7))
    assert out.samples.size == 12345
    assert out.sample_rate_hz == 16000
    assert out.samples.dtype == np.float64
    assert np.all(np.isfinite(out.samples))
    assert np.max(np.abs(out.samples)) <= 1.0


def test_determinism():
    rng = np.random.default_rng(5)
    x = ar_signal(rng, 16000, speech_like_poles())
    params = AnonymizationParams(mcadams_lambda=0.8)
    a = anonymize_mcadams(AudioSignal(x, 16000), params)
    b = anonymize_mcadams(AudioSignal(x, 16000), params)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_empty_audio_rejected():
    with pytest.raises(InvalidParamError, match="cannot anonymize an empty signal"):
        anonymize_mcadams(AudioSignal(np.zeros(0), 16000), AnonymizationParams())


def test_params_validation():
    with pytest.raises(InvalidParamError):
        AnonymizationParams(mcadams_lambda=0.0)
    with pytest.raises(InvalidParamError):
        AnonymizationParams(mcadams_lambda=2.0)


def dominant_complex_angles(samples, order=8):
    coeffs, _ = lpc_levinson(samples * np.hanning(samples.size), order)
    roots = poly_roots(coeffs)
    complex_roots = roots[np.abs(roots.imag) > 1e-6]
    return np.sort(np.unique(np.round(np.abs(np.angle(complex_roots)), 6)))


def test_formants_move_toward_one_radian():
    # AR resonances at 0.3 and 1.2 rad; with lambda=0.8 they should land
    # near 0.3^0.8 = 0.382 and 1.2^0.8 = 1.157, both closer to 1 radian.
    rng = np.random.default_rng(6)
    x = ar_signal(rng, 48000, speech_like_poles())
    out = anonymize_mcadams(AudioSignal(x, 16000), AnonymizationParams(mcadams_lambda=0.8))
    angles = dominant_complex_angles(out.samples[16000:32000])
    low = angles[np.argmin(np.abs(angles - 0.3**0.8))]
    high = angles[np.argmin(np.abs(angles - 1.2**0.8))]
    assert abs(low - 1.0) < abs(0.3 - 1.0)
    assert abs(high - 1.0) < abs(1.2 - 1.0)
    assert low == pytest.approx(0.3**0.8, abs=0.1)
    assert high == pytest.approx(1.2**0.8, abs=0.1)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.6, 1.4))
def test_any_lambda_preserves_length(seed, lam):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(500, 4000))
    x = rng.uniform(-0.5, 0.5, n)
    out = anonymize_mcadams(
        AudioSignal(x, 16000),
        AnonymizationParams(frame=FrameParams(20.0, 10.0, 12), mcadams_lambda=lam),
    )
    assert out.samples.size == n


def per_frame_anonymize(x, params):
    """Reference McAdams loop, one frame at a time, from the per-frame dsp functions."""
    shift = params.frame.shift_samples(RATE)
    padded = AudioSignal(np.pad(x, (shift, shift)), RATE)
    frames = frame_signal(padded, params.frame) * hann_window(params.frame.win_samples(RATE))
    out = np.empty_like(frames)
    for i, frame in enumerate(frames):
        coeffs, _ = lpc_levinson(frame, params.frame.lpc_order)
        warped = warp_pole_angles(poly_roots(coeffs), params.mcadams_lambda)
        out[i] = synthesize(lpc_residual(frame, coeffs), poles_to_coeffs(warped))
    y = overlap_add(out, params.frame, RATE, padded.samples.size)[shift : shift + x.size]
    peak = np.max(np.abs(y))
    return y * (0.99 / peak) if peak > 1.0 else y


@pytest.mark.parametrize("lam", [0.7, 0.8, 1.0, 1.3])
def test_matches_per_frame_oracle_on_speech_with_pauses(lam):
    x = speech_with_pauses(np.random.default_rng(40), 2 * RATE)
    assert np.sum(x == 0.0) > 0.15 * x.size
    params = AnonymizationParams(mcadams_lambda=lam)
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    assert rel_l2(out.samples, per_frame_anonymize(x, params)) <= ORACLE_REL_L2


def test_matches_per_frame_oracle_on_noise():
    x = np.random.default_rng(41).uniform(-0.5, 0.5, 2 * RATE)
    params = AnonymizationParams()
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    assert rel_l2(out.samples, per_frame_anonymize(x, params)) <= ORACLE_REL_L2


def _assert_oracle_match_across_blocks(order):
    frame = FrameParams(lpc_order=order)
    shift = frame.shift_samples(RATE)
    x = speech_with_pauses(np.random.default_rng(42), (block_frames(order) + 150) * shift)
    params = AnonymizationParams(frame=frame)
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    assert rel_l2(out.samples, per_frame_anonymize(x, params)) <= ORACLE_REL_L2


def test_matches_per_frame_oracle_across_blocks():
    _assert_oracle_match_across_blocks(FrameParams().lpc_order)


# Order 28 gives blocks of 522 frames. Higher orders leave the bound to
# conditioning, not to blocking: the gap is 1.2e-8 at order 32 and 5.9e-8
# at 36 whatever the block size, and from about order 40 on both this code
# and the oracle reject most pole expansions (their imaginary-part check is
# absolute).
def test_matches_per_frame_oracle_across_blocks_at_a_higher_order():
    _assert_oracle_match_across_blocks(28)


def test_blocks_keep_the_companion_stack_size():
    assert block_frames(20) == 1024
    assert block_frames(28) == 522
    assert block_frames(150) * 150 * 150 <= 1024 * 20 * 20
    assert block_frames(1000) == 1


def test_peak_memory_follows_the_signal_and_one_block():
    # The padded signal, its frames (two signal lengths at a half-window
    # shift), and overlap-add's sum and window sum: five signal lengths. On
    # top, each block's temporaries may hold two companion stacks' worth.
    x = speech_with_pauses(np.random.default_rng(1), 120 * RATE)
    audio = AudioSignal(x, RATE)
    tracemalloc.start()
    try:
        anonymize_mcadams(audio, AnonymizationParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * x.nbytes + 2 * anonymize.BLOCK_ENTRIES * 8


def test_all_zero_signal_stays_zero():
    x = np.zeros(5000)
    params = AnonymizationParams()
    out = anonymize_mcadams(AudioSignal(x, RATE), params)
    np.testing.assert_array_equal(out.samples, per_frame_anonymize(x, params))
    np.testing.assert_array_equal(out.samples, x)


def test_batched_synthesis_rejects_one_unstable_row():
    stable = np.poly([0.5, -0.3]).real
    coeffs = np.array([stable, [1.0, -2.5, 1.0], stable])
    residual = np.ones((3, 16))
    rows = _synthesize_rows(residual[[0, 2]], coeffs[[0, 2]])
    np.testing.assert_allclose(rows[0], synthesize(residual[0], stable), rtol=1e-12)
    with pytest.raises(InvalidParamError,
                       match="synthesis filter has poles outside the unit circle"):
        _synthesize_rows(residual, coeffs)


def _stable_by_eigvals(coeffs):
    return np.max(np.abs(_roots_rows(coeffs)), axis=1) < 1.0


def _blocks_synthesized(monkeypatch, x, lam):
    """The filter of every frame ``anonymize_mcadams`` synthesizes, block by block."""
    blocks = []

    def recording(residual, coeffs):
        blocks.append(coeffs)
        return _synthesize_rows(residual, coeffs)

    monkeypatch.setattr(anonymize, "_synthesize_rows", recording)
    anonymize_mcadams(AudioSignal(x, RATE), AnonymizationParams(mcadams_lambda=lam))
    return blocks


def _two_tone(n):
    t = np.arange(n) / RATE
    return 0.3 * np.sin(2 * np.pi * 440.0 * t) + 0.2 * np.sin(2 * np.pi * 2300.0 * t)


@pytest.mark.parametrize("lam", [0.5, 0.8, 1.0, 1.3, 1.9])
def test_step_down_agrees_with_eigvals_on_anonymizer_blocks(monkeypatch, lam):
    rng = np.random.default_rng(43)
    signals = [
        speech_with_pauses(rng, RATE),
        rng.uniform(-0.5, 0.5, RATE),
        _two_tone(RATE),
    ]
    for x in signals:
        for coeffs in _blocks_synthesized(monkeypatch, x, lam):
            np.testing.assert_array_equal(_stable_rows(coeffs), _stable_by_eigvals(coeffs))


def _poles_at_the_cap(rng, real):
    """10 conjugate pairs, plus one real pole at ``real`` times the cap unless
    ``real`` is None, all on |z| = MAX_POLE_MAGNITUDE and at least 0.1 rad
    apart, their conjugates and the real axis included."""
    gaps = 0.1 + rng.dirichlet(np.ones(11)) * (np.pi - 1.1)
    upper = MAX_POLE_MAGNITUDE * np.exp(1j * np.cumsum(gaps)[:10])
    extra = [] if real is None else [real * MAX_POLE_MAGNITUDE]
    return np.concatenate([upper, np.conj(upper), extra])


# Closer angles at the cap are ill-conditioned for both stability checks;
# they are not pinned.
@pytest.mark.parametrize("real", [None, 1.0, -1.0])
def test_step_down_agrees_with_eigvals_at_the_pole_cap(real):
    rng = np.random.default_rng(44)
    coeffs = np.array([np.poly(_poles_at_the_cap(rng, real)).real for _ in range(100)])
    assert _stable_by_eigvals(coeffs).all()
    assert _stable_rows(coeffs).all()


def test_pole_pair_just_outside_the_circle_raises():
    inside = 0.9 * np.exp(1j * np.array([0.4, 1.1, 2.0]))
    outside = (1.0 + 1e-4) * np.exp(1.5j)
    stable = np.poly(np.concatenate([inside, np.conj(inside)])).real
    unstable = np.poly(
        np.concatenate([inside[:2], [outside], np.conj(inside[:2]), [np.conj(outside)]])
    ).real
    coeffs = np.array([stable, unstable, stable])
    np.testing.assert_array_equal(_stable_rows(coeffs), [True, False, True])
    np.testing.assert_array_equal(_stable_by_eigvals(coeffs), [True, False, True])
    with pytest.raises(InvalidParamError,
                       match="synthesis filter has poles outside the unit circle"):
        _synthesize_rows(np.ones((3, 16)), coeffs)


def test_one_eigenvalue_call_per_block(monkeypatch):
    calls = []
    monkeypatch.setattr(anonymize, "_roots_rows", lambda c: calls.append(1) or _roots_rows(c))
    frame = FrameParams(lpc_order=28)
    shift = frame.shift_samples(RATE)
    x = np.random.default_rng(45).uniform(-0.5, 0.5, (2 * block_frames(28) + 10) * shift)
    anonymize_mcadams(AudioSignal(x, RATE), AnonymizationParams(frame=frame))
    assert len(calls) == 3


def _anonymized_on(monkeypatch, cpus, x, params):
    monkeypatch.setattr(anonymize, "usable_cpus", lambda: cpus)
    return anonymize_mcadams(AudioSignal(x, RATE), params).samples


# 7 shares is more than the CPUs of most test hosts, and divides neither the
# 201 frames of a 2 s clip nor the 522-frame blocks at order 28.
@pytest.mark.parametrize("order, lam, shifts", [
    (20, 0.8, 200),
    (20, 1.3, 200),
    (28, 0.8, block_frames(28) + 150),
])
def test_output_bytes_do_not_depend_on_the_share_count(monkeypatch, order, lam, shifts):
    frame = FrameParams(lpc_order=order)
    x = speech_with_pauses(np.random.default_rng(46), shifts * frame.shift_samples(RATE))
    params = AnonymizationParams(frame=frame, mcadams_lambda=lam)
    one = _anonymized_on(monkeypatch, 1, x, params)
    for cpus in (2, 3, 7):
        np.testing.assert_array_equal(_anonymized_on(monkeypatch, cpus, x, params), one)


def test_shares_run_on_distinct_threads(monkeypatch):
    eigvals, calls = np.linalg.eigvals, []

    def recording(stack):
        calls.append((threading.get_ident(), stack.shape[0]))
        return eigvals(stack)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    x = speech_with_pauses(np.random.default_rng(48), 2 * RATE)
    _anonymized_on(monkeypatch, 2, x, AnonymizationParams())
    assert sorted(rows for _, rows in calls) == [100, 101]
    assert len({thread for thread, _ in calls}) == 2
