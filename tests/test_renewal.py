import math
import multiprocessing
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_count, life_times
from sharkfin import renewal
from sharkfin.presets import (DISTORTION_A, DISTORTION_B, SHARK_EAST, SHARK_EAST_INVERTED,
                              SHARK_WEST, SHARK_WEST_INVERTED)
from sharkfin.renewal import (_ALIGN_RTOL, ChangePointModel, ConfigurationError,
                              EventSequence, RenewalSpec, WindowConfig,
                              process_map, read_event_file,
                              simulate_compound, simulate_renewal, substream,
                              write_event_file)


# ---------------------------------------------------------------------------
# RenewalSpec


def test_gamma_spec_moments_exact():
    spec = RenewalSpec.gamma(2, 10)
    assert spec.mu == 0.2
    assert spec.sigma2 == 0.02


# the last three give finite shape and rate but moments out of range
@pytest.mark.parametrize("shape,rate", [(0, 1), (1, 0), (-1, 2), (1, math.nan),
                                        (1e300, 1e-10), (1, 1e-200), (1, 1e200)])
def test_gamma_spec_rejects_nonpositive(shape, rate):
    with pytest.raises(ValueError):
        RenewalSpec.gamma(shape, rate)


# finite positive moments whose count-variance rate sigma2/mu**3, which sizes
# every simulation, is not: mu**3 underflows to 0, or overflows
@pytest.mark.parametrize("shape, rate", [(1e-300, 1), (1, 1e-110)])
def test_gamma_spec_rejects_count_variance_rate_out_of_range(shape, rate):
    with pytest.raises(ValueError, match=r"sigma2/mu\*\*3"):
        RenewalSpec.gamma(shape, rate)


@pytest.mark.parametrize("make, items", [
    (lambda: RenewalSpec.gamma(1 / 20, 1 / 20),
     [("family", "gamma"), ("mu", 1.0), ("sigma2", 19.999999999999996),
      ("shape", 0.05), ("rate", 0.05)]),
    (lambda: RenewalSpec.gamma(1.0, 2),
     [("family", "gamma"), ("mu", 0.5), ("sigma2", 0.25), ("shape", 1.0), ("rate", 2)]),
], ids=["gamma", "exponential"])
def test_spec_to_dict_keys_values_and_order(make, items):
    assert list(make().to_dict().items()) == items


@pytest.mark.parametrize("shape,rate", [(1, 1), (0.25, 5), (2, 10)])
def test_gamma_sample_moments(shape, rate):
    # 1e6 draws: mean within 3 standard errors, variance within 5 relative %
    spec = RenewalSpec.gamma(shape, rate)
    draws = spec.draw(substream(314, 1), 1_000_000)
    se = math.sqrt(spec.sigma2 / draws.size)
    assert abs(draws.mean() - spec.mu) < 3 * se
    assert abs(draws.var(ddof=1) / spec.sigma2 - 1.0) < 0.05


# ---------------------------------------------------------------------------
# EventSequence


def test_event_sequence_validation():
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0, 1.0]), 2.0)        # duplicate
    with pytest.raises(ValueError):
        EventSequence(np.array([2.0, 1.5]), 3.0)        # decreasing
    with pytest.raises(ValueError):
        EventSequence(np.array([0.0, 1.0]), 2.0)        # not positive
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0, 5.0]), 2.0)        # beyond horizon


def test_event_sequence_copies_a_writable_array_and_shares_a_read_only_one():
    a = np.array([1.0, 2.0, 3.0])
    seq = EventSequence(a, 5.0)
    assert a.flags.writeable and seq.events is not a
    assert not seq.events.flags.writeable
    a[0] = 0.5
    assert seq.events.tolist() == [1.0, 2.0, 3.0]
    assert EventSequence(seq.events, 5.0).events is seq.events


# ---------------------------------------------------------------------------
# simulation


def test_simulate_empty_horizon():
    seq = simulate_renewal(RenewalSpec.gamma(1, 1), 0.0, seed=1)
    assert len(seq) == 0 and seq.horizon == 0.0


def test_simulate_rate_matches_spec():
    # rate-20 exponential life times: count/1000 within 20 +- 0.5
    seq = simulate_renewal(RenewalSpec.gamma(1, 20), 1000.0, seed=11)
    assert abs(len(seq) / 1000.0 - 20.0) < 0.5


def test_simulate_life_time_mean_lln():
    seq = simulate_renewal(RenewalSpec.gamma(2, 10), 1e5, seed=13)
    assert abs(life_times(seq.events).mean() - 0.2) < 0.005


@pytest.mark.parametrize("spec", [RenewalSpec.gamma(1, 1),
                                  RenewalSpec.gamma(0.25, 5),
                                  RenewalSpec.gamma(1 / 20, 1 / 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulated_sequences_satisfy_invariants(spec, seed):
    seq = simulate_renewal(spec, 2000.0, seed=seed)
    assert seq.events[0] > 0
    assert np.all(np.diff(seq.events) > 0)
    assert seq.events[-1] <= seq.horizon


def test_compound_restriction_boundaries():
    model = ChangePointModel(RenewalSpec.gamma(1, 1), RenewalSpec.gamma(1, 20),
                             c=500.0, T=1000.0)
    seq = simulate_compound(model, seed=110)
    # segment counts near rate * length (5 relative %)
    left = brute_count(seq.events, 0, 500)
    right = brute_count(seq.events, 500, 1000)
    assert abs(left - 500) / 500 < 0.05
    assert abs(right - 10000) / 10000 < 0.05


def test_compound_change_at_horizon_reproduces_first_process():
    phi1 = RenewalSpec.gamma(1, 2)
    model = ChangePointModel(phi1, RenewalSpec.gamma(1, 20), c=300.0, T=300.0, n=2)
    compound = simulate_compound(model, seed=77)
    plain = simulate_renewal(phi1, 600.0, seed=77, stream=(1,))
    assert np.array_equal(compound.events, plain.events)


def test_compound_change_near_horizon_is_valid():
    model = ChangePointModel(RenewalSpec.gamma(1, 1), RenewalSpec.gamma(1, 1),
                             c=1000.0 - 1e-7, T=1000.0)
    seq = simulate_compound(model, seed=3)
    assert seq.horizon == 1000.0


def test_identical_specs_compound_looks_stationary():
    spec = RenewalSpec.gamma(1, 1)
    model = ChangePointModel(spec, spec, c=500.0, T=1000.0)
    counts = []
    for r in range(200):
        seq = simulate_compound(model, seed=55, stream=(r,))
        counts.append([brute_count(seq.events, 0, 500),
                       brute_count(seq.events, 500, 1000)])
    counts = np.array(counts)
    # both halves share rate and variance within Monte Carlo error
    assert abs(counts[:, 0].mean() - counts[:, 1].mean()) < 3 * np.sqrt(500 * 2 / 200)


def test_substream_independence_and_reproducibility():
    a = substream(9, 1).standard_normal(4)
    b = substream(9, 2).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, substream(9, 1).standard_normal(4))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_process_map_keeps_input_order_and_leaves_no_worker(workers):
    with process_map(workers) as pmap:
        assert (pmap is map) == (workers == 1)
        assert list(pmap(pow, range(7), [2] * 7)) == [r * r for r in range(7)]
    assert multiprocessing.active_children() == []
    with pytest.raises(ZeroDivisionError):
        with process_map(workers) as pmap:
            list(pmap(divmod, [1, 2, 3], [1, 0, 1]))
    assert multiprocessing.active_children() == []


def test_tiny_life_times_never_produce_duplicates():
    # shape 1/20 puts ~20% of its mass below float spacing near t ~ 1000
    seq = simulate_renewal(RenewalSpec.gamma(1 / 20, 1 / 20), 3000.0, seed=17)
    assert np.all(np.diff(seq.events) > 0)


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_bad_change_point():
    spec = RenewalSpec.gamma(1, 1)
    with pytest.raises(ValueError):
        ChangePointModel(spec, spec, c=0.0, T=100.0)
    with pytest.raises(ValueError):
        ChangePointModel(spec, spec, c=150.0, T=100.0)
    with pytest.raises(ValueError):
        ChangePointModel(spec, spec, c=50.0, T=100.0, n=0)


# ---------------------------------------------------------------------------
# analysis grids


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(1000.0, (600.0,), 5.0)       # h > T/2
    with pytest.raises(ConfigurationError):
        WindowConfig(1000.0, (149.0,), 5.0)       # h not multiple of step
    with pytest.raises(ConfigurationError, match="shorter than one grid step"):
        WindowConfig(1000.0, (1e-10,), 5.0)       # h rounds to zero steps
    with pytest.raises(ConfigurationError, match="shorter than one grid step"):
        WindowConfig(1000.0, (150.0,), 5.0).grid_indices(1e-10)
    with pytest.raises(ConfigurationError, match="leaves no grid node"):
        WindowConfig(1999.999999, (999.9999995,), 1.0)  # 1000 steps, 1999-step lattice
    with pytest.raises(ValueError):
        WindowConfig(1000.0, (), 5.0)
    with pytest.raises(ValueError):
        WindowConfig(1000.0, (100.0, 100.0), 5.0)
    with pytest.raises(TypeError):
        WindowConfig(1000.0, 150.0, 5.0)          # h_set is a collection, not one h


def test_grid_covers_analysis_region():
    cfg = WindowConfig(1000.0, (150.0,), 5.0)
    grid = cfg.grid(150.0)
    assert grid[0] == 150.0
    assert grid[-1] == 850.0
    assert np.allclose(np.diff(grid), 5.0)
    cfg3 = WindowConfig(1000.0, (150.0,), 3.0)
    grid3 = cfg3.grid(150.0)
    assert grid3[0] == 150.0 and grid3[-1] == 849.0  # 850 is off-lattice


def test_snap_and_alignment():
    cfg = WindowConfig(1000.0, (150.0,), 5.0)
    assert cfg.snap(501.0) == 500.0
    assert cfg.lattice_index(500.0, "change point") == 100
    with pytest.raises(ConfigurationError):
        cfg.lattice_index(501.0, "change point")


steps = st.floats(1e-3, 1e3)
multiples = st.integers(1, 10**6)


@settings(max_examples=200, deadline=None)
@given(step=steps, k=multiples,
       rel=st.floats(-0.9 * _ALIGN_RTOL, 0.9 * _ALIGN_RTOL))
def test_alignment_accepts_multiples_within_relative_tolerance(step, k, rel):
    x = k * step * (1.0 + rel)
    assert WindowConfig(4.0 * x, (x,), step).h_set == (x,)
    assert WindowConfig(4.0 * x, (step,), step).lattice_index(x) == k


@settings(max_examples=200, deadline=None)
@given(step=steps, k=multiples, sign=st.sampled_from([-1.0, 1.0]),
       excess=st.floats(1.1, 1e9))
def test_alignment_refuses_other_values_naming_the_quantity(step, k, sign, excess):
    # offset from k steps: beyond the tolerance, at most half a step
    x = (k + sign * min(0.5, excess * _ALIGN_RTOL * (k + 0.5))) * step
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"window size {x} is not a multiple")):
        WindowConfig(4.0 * x, (x,), step)
    cfg = WindowConfig(4.0 * x + 4.0 * step, (step,), step)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"change point {x} is not a multiple")):
        cfg.lattice_index(x, "change point")


@settings(max_examples=200, deadline=None)
@given(step=st.floats(1e-3, 10.0), k=st.integers(1, 500), extra=st.integers(1, 2000),
       frac=st.floats(-1e-6, 1.0), rel=st.floats(-0.9 * _ALIGN_RTOL, 0.9 * _ALIGN_RTOL))
# T and h just below 1000 and 150 steps, where a separate floor of (T - h)/step
# once put the last window one node past the lattice
@example(step=1.0, k=150, extra=700, frac=-5e-8, rel=-2 / 3 * 1e-9)
def test_window_grid_ends_on_the_last_lattice_node(step, k, extra, frac, rel):
    h = k * step * (1.0 + rel)
    cfg = WindowConfig(step * (2 * k + extra + frac), (h,), step)
    j = cfg.grid_indices(h)
    assert j[0] == k and j[-1] + k == cfg.lattice_size()


# ---------------------------------------------------------------------------
# event file I/O


def test_event_file_roundtrip(tmp_path):
    seq = simulate_renewal(RenewalSpec.gamma(1, 3), 500.0, seed=23)
    path = tmp_path / "events.txt"
    write_event_file(path, seq)
    back = read_event_file(path)
    assert back.horizon == seq.horizon
    assert np.array_equal(back.events, seq.events)


def test_event_file_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# horizon=10\n1.0\n3.0\n2.0\n")
    with pytest.raises(ValueError, match="line 4"):
        read_event_file(path)
    path.write_text("# horizon=10\n1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 3"):
        read_event_file(path)
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match="horizon"):
        read_event_file(path)


@pytest.mark.parametrize("block", [None, 7])
def test_event_file_write_format_and_roundtrip(tmp_path, monkeypatch, block):
    if block:
        monkeypatch.setattr(renewal, "_IO_BLOCK", block)
    seq = simulate_renewal(RenewalSpec.gamma(1 / 20, 1 / 20), 300.0, seed=29)
    path = tmp_path / "events.txt"
    write_event_file(path, seq)
    assert path.read_text() == (f"# horizon={seq.horizon!r}\n"
                                + "".join(f"{float(t)!r}\n" for t in seq.events))
    back = read_event_file(path)
    assert back.horizon == seq.horizon and np.array_equal(back.events, seq.events)
    empty = EventSequence(np.empty(0), np.float64(5.0))
    write_event_file(path, empty)
    assert path.read_text() == "# horizon=5.0\n"
    assert len(read_event_file(path)) == 0


# a bad sixth line between good ones
LINE_6 = "# horizon=10\n1.0\n\n# note\n2.0\n{}\n3.0\nzz\n".format


@pytest.mark.parametrize("text,message", [
    (LINE_6("nan"), "line 6: event time must be finite, got 'nan'"),
    (LINE_6("inf"), "line 6: event time must be finite"),
    (LINE_6("-inf"), "line 6: event time must be finite"),
    (LINE_6("1.5"), "line 6: event time 1.5 does not increase past 2.0"),
    (LINE_6("2.0"), "line 6: event time 2.0 does not increase past 2.0"),
    (LINE_6("x1"), "line 6: not a number: 'x1'"),
    ("# horizon=10\n1.0\n  \n\t# note\n2.0\n1.5\n", "line 6: .*does not increase"),
    ("# horizon=10\n1.0\n2.0\n2.0\n3.0\n", "line 4: .*does not increase past 2.0"),
    ("# horizon=10\n-1.0\n", "line 2: .*does not increase past 0.0"),
    ("# horizon=10\n1.0\n2.0\n11.0\n", "line 4: event time 11.0 exceeds horizon 10.0"),
    ("# horizon=10\n1.0\n2.0 3.0\n", "line 3: not a number"),
    ("# horizon=10\n1 2\n3 4\n", "line 2: not a number"),
    ("# horizon=10\n1.0\nx1\n2.0\n# horizon=nan\n", "line 3: not a number"),
    ("# horizon=10\n1.0\n0.5\n# horizon=nan\n", "line 3: .*does not increase"),
    ("# horizon=10\n1.0\n# horizon=nan\nx1\n", "line 4: not a number"),
    ("# run 3\n1.0\n0.5\n# horizon=x\n", "line 2: missing '# horizon=' header"),
    ("# run 3\n1.0\n# horizon=x\n2.0\n", "line 2: missing '# horizon=' header"),
    ("1.0\n2.0", "line 1: missing '# horizon=' header"),
    ("# run 3\n\n", "missing '# horizon=' header")],
    ids=["nan", "inf", "-inf", "decrease", "equal", "non_number", "decrease_after_blank",
         "repeat", "negative", "past_horizon", "two_numbers", "two_columns", "non_number_first",
         "decrease_first", "header_first", "decrease_before_bad_header", "bad_header",
         "no_header", "comments_only"])
def test_event_file_errors_name_their_line(tmp_path, text, message):
    # the first bad line is named; after the header a '# horizon=' line is a
    # comment, however it reads
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.txt: {message}"):
        read_event_file(path)


def test_event_file_reads_comments_and_blank_lines(tmp_path):
    # one header before the first time; '#' starts a comment anywhere, so a
    # later '# horizon=' line is one
    path = tmp_path / "events.txt"
    path.write_text("# run 3\n\n  # horizon=9.5\n0.5\n \t\n1.25 # note\n# horizon=7\n\n"
                    "  2.0\n# note\n9.5")
    seq = read_event_file(path)
    assert seq.horizon == 9.5 and seq.events.tolist() == [0.5, 1.25, 2.0, 9.5]


def test_event_file_reads_a_trailing_comment(tmp_path):
    # '2.0 # note' is the time 2.0 followed by a comment, not a bad line
    path = tmp_path / "events.txt"
    path.write_text("# horizon=10\n1.0\n2.0 # note\n3.0\n")
    seq = read_event_file(path)
    assert seq.horizon == 10.0 and seq.events.tolist() == [1.0, 2.0, 3.0]


def test_event_file_header_only_reads_without_warning(tmp_path):
    # what `simulate` writes when no event falls in the horizon
    path = tmp_path / "events.txt"
    write_event_file(path, EventSequence(np.empty(0), 0.0))
    assert path.read_text() == "# horizon=0.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = read_event_file(path)
    assert seq.horizon == 0.0 and seq.events.shape == (0,)


@pytest.mark.parametrize("header", ["ab", "nan", "inf", "-1.0"])
def test_event_file_bad_horizon_names_its_line(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(f"# run 3\n# horizon={header}\n1.0\n")
    with pytest.raises(ValueError, match="bad.txt: line 2: bad horizon header"):
        read_event_file(path)
    path.write_text("# horizon=2.0\n1.0\n3.0\n")
    with pytest.raises(ValueError, match="bad.txt: .*exceeds horizon"):
        read_event_file(path)


@pytest.mark.parametrize("final", [True, False], ids=["final_end", "no_final_end"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_event_file_reads_every_line_end(tmp_path, end, final):
    # text mode reads every line end, so loadtxt and the scan that names a
    # bad line count the same lines
    lines = ["# run 3", "# horizon=9.5", "0.5", "", "1.25", "# note", "2.0", "9.5"]
    path = tmp_path / "events.txt"
    path.write_bytes((end.join(lines) + (end if final else "")).encode())
    seq = read_event_file(path)
    assert seq.horizon == 9.5 and seq.events.tolist() == [0.5, 1.25, 2.0, 9.5]
    lines[6] = "x"
    path.write_bytes((end.join(lines) + (end if final else "")).encode())
    with pytest.raises(ValueError, match="events.txt: line 7: not a number"):
        read_event_file(path)


# strictly increasing positive times over the whole float range, subnormal
# and huge magnitudes included
increasing_times = st.lists(st.floats(min_value=5e-324, max_value=1.7e308),
                            min_size=1, max_size=50, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(times=increasing_times)
def test_event_file_roundtrip_is_bit_identical(tmp_path_factory, times):
    seq = EventSequence(np.array(times), times[-1])
    path = tmp_path_factory.mktemp("events") / "events.txt"
    write_event_file(path, seq)
    back = read_event_file(path)
    assert back.horizon == seq.horizon
    assert back.events.tobytes() == seq.events.tobytes()


@settings(max_examples=200, deadline=None)
@given(times=increasing_times, data=st.data(),
       bad=st.sampled_from([("x", "not a number"), ("nan", "event time must be finite"),
                            (None, "event time .* does not increase past")]))
def test_event_file_error_names_the_corrupted_line(tmp_path_factory, times, data, bad):
    i = data.draw(st.integers(0, len(times) - 1), label="event")
    text, message = bad
    lines = [f"# horizon={times[-1]!r}", *map(repr, times)]
    # None: the time before, 0.0 for the first event, which no time may repeat
    lines[i + 1] = repr(times[i - 1] if i else 0.0) if text is None else text
    path = tmp_path_factory.mktemp("events") / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.txt: line {i + 2}: {message}"):
        read_event_file(path)


def traced_peak(fn, *args):
    """(result, peak bytes traced while fn runs)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def exponential_sequence(n):
    events = np.cumsum(substream(n, 31).exponential(1.0, n))
    return EventSequence(events, float(events[-1]) + 1.0)


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_event_file_write_holds_one_block(tmp_path, n):
    # the same bound at two sizes: the writer's buffers do not grow with n
    _, peak = traced_peak(write_event_file, tmp_path / "events.txt", exponential_sequence(n))
    assert peak <= 2**20


def test_event_file_read_holds_one_event_buffer(tmp_path):
    # one array of events, which loadtxt grows by reallocation, plus 0.3 MiB
    # of line buffers; a list of Python floats or a copy of the array would
    # hold the events twice
    seq = exponential_sequence(3 * 10**5)
    path = tmp_path / "events.txt"
    write_event_file(path, seq)
    back, peak = traced_peak(read_event_file, path)
    assert peak <= seq.events.nbytes + 3 * 2**20
    assert peak <= 1.75 * seq.events.nbytes  # the sequence shares loadtxt's array
    assert back.horizon == seq.horizon and np.array_equal(back.events, seq.events)


@pytest.mark.parametrize("model", [SHARK_WEST, SHARK_EAST, SHARK_WEST_INVERTED,
                                   SHARK_EAST_INVERTED, DISTORTION_A, DISTORTION_B],
                         ids=["west", "east", "west_inverted", "east_inverted",
                              "distortion_a", "distortion_b"])
def test_compound_simulation_builds_one_event_buffer(model):
    # the larger segment is drawn into the buffer of the whole sequence, so
    # the peak is that buffer plus the smaller segment, whose share is at
    # most 1/3 here (distortion_b); two buffers and a joined copy held 2.0x
    simulate_compound(model, seed=0)  # first-call allocations stay out of the peak
    seq, peak = traced_peak(simulate_compound, model.with_scale(64), 11)
    assert peak <= 1.4 * seq.events.nbytes


def read_fifo(path, text):
    """read_event_file on a new FIFO at path, which a thread feeds with text."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except BrokenPipeError:  # the reader closed first
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_event_file(path)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_event_file_reads_from_a_pipe(tmp_path):
    seq = read_fifo(tmp_path / "events.fifo", "# horizon=2\n1.0\n1.5 # note\n")
    assert seq.horizon == 2.0 and seq.events.tolist() == [1.0, 1.5]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_event_file_error_from_a_pipe_names_the_pipe(tmp_path):
    # a pipe is buffered whole, so it is read again to find the line
    with pytest.raises(ValueError, match="events.fifo: line 3: event time 0.5 "
                                         "does not increase past 1.0"):
        read_fifo(tmp_path / "events.fifo", "# horizon=2\n1.0\n0.5\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_event_file_error_from_a_pipe_names_the_file_line(tmp_path):
    # the file line, counting the comment and the blank line, not loadtxt's data row
    with pytest.raises(ValueError, match="events.fifo: line 5: not a number: 'x'"):
        read_fifo(tmp_path / "events.fifo", "# horizon=5\n1.0\n# note\n\nx\n")


def test_event_order_check_allocates_a_byte_per_event():
    events = np.cumsum(substream(0, 31).exponential(1.0, 10**6))
    events.flags.writeable = False  # shared, as read_event_file's buffer is, not copied
    _, peak = traced_peak(EventSequence, events, float(events[-1]))
    assert peak <= 0.25 * events.nbytes
    tied = events.copy()
    tied[500_000] = tied[499_999]
    with pytest.raises(ValueError, match=re.escape(
            f"duplicate or decreasing time {tied[500_000]} at index 500000")):
        EventSequence(tied, float(tied[-1]))
