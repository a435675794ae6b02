"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.ecc import ErrorClass, SecdedCode
from repro.dram.geometry import DramGeometry, small_geometry
from repro.dram.operating import OperatingPoint
from repro.dram.retention import bit_failure_probability_grid
from repro.dram.statistical import StatisticalErrorModel, WorkloadBehavior
from repro.ml.metrics import mean_percentage_error, prediction_ratio
from repro.ml.scaling import StandardScaler
from repro.profiling.entropy import shannon_entropy_bits

from tests.oracles.characterization import probability_of_ue
from tests.oracles.dataset import spearman_correlation
from tests.oracles.ecc import roundtrip_with_errors

CODE = SecdedCode()
MODEL = StatisticalErrorModel()


# --------------------------------------------------------------------------
# SECDED ECC
# --------------------------------------------------------------------------
@given(data=st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=60, deadline=None)
def test_ecc_clean_round_trip_property(data):
    decoded, cls = roundtrip_with_errors(CODE, data, [])
    assert decoded == data
    assert cls is ErrorClass.NO_ERROR


@given(
    data=st.integers(min_value=0, max_value=2 ** 64 - 1),
    position=st.integers(min_value=0, max_value=71),
)
@settings(max_examples=80, deadline=None)
def test_ecc_corrects_any_single_bit_flip(data, position):
    decoded, cls = roundtrip_with_errors(CODE, data, [position])
    assert cls is ErrorClass.CORRECTED
    assert decoded == data


@given(
    data=st.integers(min_value=0, max_value=2 ** 64 - 1),
    positions=st.sets(st.integers(min_value=0, max_value=71), min_size=2, max_size=2),
)
@settings(max_examples=80, deadline=None)
def test_ecc_detects_any_double_bit_flip(data, positions):
    _decoded, cls = roundtrip_with_errors(CODE, data, sorted(positions))
    assert cls is ErrorClass.UNCORRECTABLE


@given(
    words=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                   min_size=1, max_size=8),
    flip_sets=st.lists(
        st.sets(st.integers(min_value=0, max_value=71), min_size=0, max_size=5),
        min_size=8, max_size=8,
    ),
)
@settings(max_examples=60, deadline=None)
def test_batch_codec_matches_scalar_codec_bit_for_bit(words, flip_sets):
    """encode_batch/decode_batch agree with the scalar API on every word.

    Flip counts 0..5 cover every Table I class — none / 1-bit (including
    the overall-parity bit at position 71) / 2-bit / multi-bit — and the
    known-answer cases are additionally pinned against the flip count.
    """
    data = np.array(words, dtype=np.uint64)
    codewords = CODE.encode_batch(data)
    for row, word in enumerate(words):
        assert np.array_equal(codewords[row], CODE.encode(word))
        for position in flip_sets[row]:
            codewords[row, position] ^= 1

    batch = CODE.decode_batch(codewords)
    for row, word in enumerate(words):
        scalar = CODE.decode(codewords[row])
        view = batch.result(row)
        assert view.error_class is scalar.error_class
        assert view.corrected_bit == scalar.corrected_bit
        assert np.array_equal(batch.data_bits[row], scalar.data)
        num_flips = len(flip_sets[row])
        if num_flips == 0:
            assert scalar.error_class is ErrorClass.NO_ERROR
            assert int(batch.data_words[row]) == word
        elif num_flips == 1:
            assert scalar.error_class is ErrorClass.CORRECTED
            assert int(batch.data_words[row]) == word
        elif num_flips == 2:
            assert scalar.error_class is ErrorClass.UNCORRECTABLE


# --------------------------------------------------------------------------
# Geometry
# --------------------------------------------------------------------------
@given(word_index=st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_geometry_word_index_round_trip(word_index):
    geometry = small_geometry()
    index = word_index % geometry.total_words
    assert geometry.word_index(geometry.cell_from_word_index(index)) == index


@given(dimms=st.integers(1, 4), ranks=st.integers(1, 2), banks=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_geometry_counts_are_consistent(dimms, ranks, banks):
    geometry = DramGeometry(num_dimms=dimms, ranks_per_dimm=ranks, banks_per_rank=banks,
                            rows_per_bank=16, columns_per_row=8)
    assert geometry.total_words == dimms * ranks * banks * 16 * 8
    assert len(list(geometry.iter_ranks())) == geometry.num_ranks


# --------------------------------------------------------------------------
# Retention physics / statistical model
# --------------------------------------------------------------------------
@given(
    t1=st.floats(min_value=0.1, max_value=2.0),
    scale=st.floats(min_value=1.05, max_value=2.0),
    temperature=st.floats(min_value=30.0, max_value=70.0),
)
@settings(max_examples=60, deadline=None)
def test_bit_failure_probability_is_monotone_in_refresh_period(t1, scale, temperature):
    p_short = bit_failure_probability_grid(t1, temperature)
    p_long = bit_failure_probability_grid(t1 * scale, temperature)
    assert 0.0 <= p_short <= p_long <= 1.0


@given(
    accesses=st.floats(min_value=1e-5, max_value=0.2),
    reuse=st.floats(min_value=0.01, max_value=100.0),
    entropy=st.floats(min_value=0.0, max_value=32.0),
    trefp=st.sampled_from([0.618, 1.173, 1.727, 2.283]),
    temperature=st.sampled_from([50.0, 60.0, 70.0]),
)
@settings(max_examples=60, deadline=None)
def test_statistical_model_outputs_are_valid_probabilities(accesses, reuse, entropy, trefp,
                                                           temperature):
    behavior = WorkloadBehavior(
        accesses_per_cycle=accesses,
        reuse_time_s=reuse,
        data_entropy_bits=entropy,
        footprint_words=10 ** 9,
    )
    op = OperatingPoint.relaxed(trefp, temperature)
    wer = MODEL.expected_wer(op, behavior)
    pue = probability_of_ue(MODEL, op, behavior)
    assert 0.0 <= wer <= 1.0
    assert 0.0 <= pue <= 1.0
    fraction = MODEL.implicit_refresh_fraction(behavior, op)
    assert 0.0 <= fraction <= 1.0


@given(
    reuse_short=st.floats(min_value=0.01, max_value=1.0),
    factor=st.floats(min_value=1.5, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_more_frequent_reuse_never_increases_wer(reuse_short, factor):
    op = OperatingPoint.relaxed(2.283, 60.0)
    common = dict(accesses_per_cycle=0.01, data_entropy_bits=16.0, footprint_words=10 ** 9)
    frequent = WorkloadBehavior(reuse_time_s=reuse_short, **common)
    rare = WorkloadBehavior(reuse_time_s=reuse_short * factor, **common)
    assert MODEL.expected_wer(op, frequent) <= MODEL.expected_wer(op, rare)


# --------------------------------------------------------------------------
# ML utilities
# --------------------------------------------------------------------------
@given(
    values=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        min_size=3, max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_standard_scaler_output_is_centred(values):
    X = np.asarray(values, dtype=float)
    Z = StandardScaler().fit(X).transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)
    assert np.all(Z.std(axis=0) <= 1.0 + 1e-6)


@given(
    y=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=30)
)
@settings(max_examples=50, deadline=None)
def test_perfect_predictions_have_zero_error(y):
    assert mean_percentage_error(y, y) == pytest.approx(0.0)
    assert prediction_ratio(y, y) == pytest.approx(1.0)


@given(
    x=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=3, max_size=50,
               unique=True),
)
@settings(max_examples=50, deadline=None)
def test_spearman_is_bounded_and_symmetric_under_monotone_map(x):
    values = np.asarray(x, dtype=float)
    target = 3.0 * values + 1.0
    rs = spearman_correlation(values, target)
    assert -1.0 <= rs <= 1.0
    assert rs == pytest.approx(1.0)


@given(counts=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds(counts):
    entropy = shannon_entropy_bits(counts)
    assert 0.0 <= entropy <= np.log2(len(counts)) + 1e-9
