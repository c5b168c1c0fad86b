"""The binary wire codec: lossless frames, strict decoding, dict fallback."""

import random
import struct

import pytest

from repro.core import PtpBenchmarkConfig, plan_cells, run_ptp_benchmark
from repro.core.pool import ship_result
from repro.core.wire import (WIRE_MAGIC, WIRE_VERSION, WireError,
                             decode_payload, decode_result, encode_result,
                             is_wire_frame)
from repro.errors import ReproError
from repro.faults import FaultOutcome
from repro.noise import UniformNoise


def _base(**overrides):
    defaults = dict(message_bytes=1024, partitions=4,
                    compute_seconds=1e-4, iterations=3)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


def _result(**overrides):
    config = plan_cells(_base(**overrides), [1024], [4])[0]
    return config, run_ptp_benchmark(config)


def _assert_lossless(fresh, back):
    assert back.event_digest == fresh.event_digest
    assert back.source == fresh.source
    assert back.trials == fresh.trials
    assert back.fault_outcome == fresh.fault_outcome
    assert [s.iteration for s in back.samples] == \
        [s.iteration for s in fresh.samples]
    assert [s.timeline for s in back.samples] == \
        [s.timeline for s in fresh.samples]
    assert [s.metrics for s in back.samples] == \
        [s.metrics for s in fresh.samples]


class TestRoundTrip:
    def test_des_result_is_lossless(self):
        config, fresh = _result(noise=UniformNoise(4.0))
        frame = encode_result(fresh)
        assert is_wire_frame(frame)
        assert frame[:4] == WIRE_MAGIC
        _assert_lossless(fresh, decode_result(config, frame))

    def test_sha256_digest_packs_as_raw_bytes(self):
        config, fresh = _result()
        assert fresh.event_digest is not None
        assert len(fresh.event_digest) == 64
        frame = encode_result(fresh)
        # Raw 32 bytes, not 64 hex characters, ride the frame.
        assert bytes.fromhex(fresh.event_digest) in frame
        assert fresh.event_digest.encode("ascii") not in frame
        assert decode_result(config, frame).event_digest == \
            fresh.event_digest

    def test_non_hex_digest_falls_back_to_string(self):
        config, fresh = _result()
        fresh.event_digest = "not-a-sha256"
        back = decode_result(config, encode_result(fresh))
        assert back.event_digest == "not-a-sha256"

    def test_missing_digest_survives(self):
        config, fresh = _result()
        fresh.event_digest = None
        assert decode_result(config, encode_result(fresh)).event_digest \
            is None

    def test_fault_outcome_round_trips(self):
        config, fresh = _result()
        fresh.fault_outcome = FaultOutcome(
            delivered=False, drops=3, retransmits=2, duplicates=1,
            acks=7, abandoned=1, stalls=4, fail_stops=1,
            reason="retry budget exhausted")
        _assert_lossless(fresh, decode_result(config, encode_result(fresh)))

    def test_interned_and_inline_sources(self):
        config, fresh = _result()
        for source in ("des", "analytic", "merged-exotic"):
            fresh.source = source
            back = decode_result(config, encode_result(fresh))
            assert back.source == source

    def test_trials_survive(self):
        config, fresh = _result()
        fresh.trials = 17
        assert decode_result(config, encode_result(fresh)).trials == 17

    def test_timestamps_round_trip_bit_exact(self):
        # binary64 carries every Python float exactly; compare the IEEE
        # bit patterns the bit-for-bit digests depend on.
        def bits(values):
            return [struct.pack("<d", v) for v in values]

        config, fresh = _result(noise=UniformNoise(4.0))
        back = decode_result(config, encode_result(fresh))
        for s, b in zip(fresh.samples, back.samples):
            assert bits(s.timeline.pready_times) == \
                bits(b.timeline.pready_times)
            assert bits(s.timeline.arrival_times) == \
                bits(b.timeline.arrival_times)


class TestStrictDecoding:
    def test_bad_magic_rejected(self):
        config, fresh = _result()
        frame = bytearray(encode_result(fresh))
        frame[:4] = b"NOPE"
        assert not is_wire_frame(bytes(frame))
        with pytest.raises(WireError, match="magic"):
            decode_result(config, bytes(frame))

    def test_version_mismatch_rejected(self):
        config, fresh = _result()
        frame = bytearray(encode_result(fresh))
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_result(config, bytes(frame))

    def test_truncation_rejected_everywhere(self):
        config, fresh = _result()
        frame = encode_result(fresh)
        for cut in (0, 3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireError):
                decode_result(config, frame[:cut])

    def test_trailing_garbage_rejected(self):
        config, fresh = _result()
        with pytest.raises(WireError, match="trailing"):
            decode_result(config, encode_result(fresh) + b"\x00")

    def test_wire_error_is_a_repro_error(self):
        assert issubclass(WireError, ReproError)

    def test_well_formed_but_invalid_timeline_is_a_wire_error(self):
        """A layout-valid frame with an impossible timeline is corrupt.

        Regression: the timeline validator's ConfigurationError
        ("partition arrived ... before its pready") escaped
        decode_result, so a corrupted cache entry crashed the sweep
        instead of reading as a miss.
        """
        config, fresh = _result()
        frame = encode_result(fresh)
        arrival = struct.pack("<d", fresh.samples[0].timeline
                              .arrival_times[0])
        at = frame.index(arrival)
        bad = frame[:at] + struct.pack("<d", -1.0) + frame[at + 8:]
        with pytest.raises(WireError, match="corrupt"):
            decode_result(config, bad)

    def test_random_mutations_raise_only_wire_errors(self):
        config, fresh = _result()
        frame = encode_result(fresh)
        rng = random.Random(7)
        for _ in range(500):
            mutated = bytearray(frame)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode_result(config, bytes(mutated))
            except WireError:
                pass


class TestPayloadDispatch:
    def test_binary_frame_dispatches_to_codec(self):
        config, fresh = _result()
        _assert_lossless(fresh, decode_payload(config, encode_result(fresh)))

    def test_dict_payload_dispatches_to_fallback(self):
        config, fresh = _result(noise=UniformNoise(4.0))
        shipped = ship_result(fresh)
        assert isinstance(shipped, dict)
        assert not is_wire_frame(shipped)
        _assert_lossless(fresh, decode_payload(config, shipped))

    def test_codec_and_fallback_agree(self):
        config, fresh = _result(noise=UniformNoise(4.0))
        via_frame = decode_payload(config, encode_result(fresh))
        via_dict = decode_payload(config, ship_result(fresh))
        assert via_frame.event_digest == via_dict.event_digest
        assert [s.timeline for s in via_frame.samples] == \
            [s.timeline for s in via_dict.samples]
