import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtbudget import data
from mtbudget.data import (DatasetStream, binarize_by_percentile,
                           generate_synthetic, parse_dataset, rescale_features,
                           shift_term, write_dataset)
from mtbudget.errors import EmptyStream, ParseError, TaskOutOfRange
from mtbudget.graph import TaskGraph
from mtbudget.harness import run_stream
from mtbudget.kernels import KernelSpec, MultitaskInstance, SparseVector, make_queries
from mtbudget.learners import LearnerConfig
from support import interaction_of, parse_by_line, queries_in


class TestParse:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "d.mtsvm"
        p.write_text("# header comment\n"
                     "1 1 1:0.5 3:2.0\n"
                     "2 -1 2:1.0\n"
                     "1 -1\n")
        stream = parse_dataset(p)
        assert stream.k == 2 and stream.d == 3
        assert list(stream.labels) == [1, -1, -1]
        assert stream.instances[0].task == 1
        assert stream.instances[0].x.to_dense(3) == pytest.approx([0.5, 0, 2.0])
        assert len(stream.instances[2].x.indices) == 0  # empty vector allowed

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stream, _ = generate_synthetic(3, 5, 40, 0.5, 0.1, seed=1)
        p = tmp_path / "rt.mtsvm"
        write_dataset(stream, p)
        back = parse_dataset(p, k=3)
        assert back.k == 3 and len(back.labels) == 40
        assert list(back.labels) == list(stream.labels)
        for a, b in zip(stream.instances, back.instances):
            assert a.task == b.task
            assert b.x.to_dense(5) == pytest.approx(a.x.to_dense(5), abs=1e-12)

    def test_task_zero_rejected(self, tmp_path):
        p = tmp_path / "bad.mtsvm"
        p.write_text("0 1 1:1.0\n")
        with pytest.raises(TaskOutOfRange):
            parse_dataset(p)

    def test_task_beyond_k_rejected(self, tmp_path):
        p = tmp_path / "bad.mtsvm"
        p.write_text("5 1 1:1.0\n")
        with pytest.raises(TaskOutOfRange):
            parse_dataset(p, k=3)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.mtsvm"
        p.write_text("1 1 1:1.0\n1 1 x:1.0\n")  # bad feature token
        with pytest.raises(ParseError) as err:
            parse_dataset(p)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line", ["1 nan 1:1.0", "1 -inf 1:1.0",
                                      "1 1 1:nan", "1 1 1:1.0 2:inf"])
    def test_non_finite_values_rejected(self, tmp_path, line):
        p = tmp_path / "bad.mtsvm"
        p.write_text("1 1 1:1.0\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            parse_dataset(p)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line, error", [
        ("1 1 99999999999999999999:1.0", ParseError),
        ("99999999999999999999 1 1:1.0", TaskOutOfRange)])
    def test_ids_beyond_64_bits_name_the_line(self, tmp_path, line, error):
        # the line-by-line parser raised a bare OverflowError for the id
        p = tmp_path / "bad.mtsvm"
        p.write_text("1 1 1:1.0\n" + line + "\n")
        with pytest.raises(error, match="line 2: "):
            parse_dataset(p)

    def test_real_labels_allowed_until_binarized(self, tmp_path):
        p = tmp_path / "r.mtsvm"
        p.write_text("1 3.7 1:1.0\n1 -0.5 2:1.0\n")
        stream = parse_dataset(p)
        assert not stream.binary
        assert binarize_by_percentile(stream).binary

    def test_empty_file_rejected_at_binarization(self, tmp_path):
        p = tmp_path / "e.mtsvm"
        p.write_text("# nothing\n")
        stream = parse_dataset(p)
        assert len(stream) == 0
        with pytest.raises(EmptyStream):
            binarize_by_percentile(stream)


# Tokens a row is drawn from: mostly well formed, some of each kind of
# fault the parser must name.
BAD_FEATURES = ["3 4:5:6", "1:", ":5", "1.5:2", "0:1", "-1:2", "1:nan",
                "2:inf", "4:-inf", "x:1", "2:1:"]
VALUES = ["0.5", "-2", "1", "0", "1e-3", "7.25", "-0", "+3.5E2", "0.1"]


@st.composite
def mtsvm_line(draw):
    kind = draw(st.sampled_from(["row"] * 8 + ["comment", "blank", "bare"]))
    if kind == "comment":
        return draw(st.sampled_from(["# header", "#", "  # indented 1 1 1:x"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    task = draw(st.sampled_from(["1", "2", "3", "1", "2", "4", "0", "9", "x", "1.0"]))
    if kind == "bare":
        return task
    label = draw(st.sampled_from(["1", "-1", "+1", "0.25", "-3.5e2", "1", "-1",
                                  "nan", "inf", "-inf", "x"]))
    ids = draw(st.lists(st.integers(1, 12), max_size=5, unique=True))
    feats = ["%d:%s" % (i, draw(st.sampled_from(VALUES))) for i in ids]
    if feats and draw(st.integers(0, 9)) == 0:        # a duplicate id
        feats.append(feats[0].split(":")[0] + ":2")
    if draw(st.integers(0, 9)) == 0:
        feats.insert(draw(st.integers(0, len(feats))),
                     draw(st.sampled_from(BAD_FEATURES)))
    sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
    line = sep.join([task, label] + feats)
    if draw(st.integers(0, 5)) == 0:
        line += " # trailing 9 9 x:y"
    return line


def outcome(parse, path, k):
    """A parse's arrays, or the type and line number of its error."""
    try:
        s = parse(path, k)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            return type(exc), exc.line_no
        return type(exc), int(re.match(r"line (\d+):", str(exc)).group(1))
    return (s.indptr.tolist(), s.ids.tolist(), s.values.tobytes(),
            s.tasks.tolist(), s.labels.tobytes(), s.values.dtype, s.labels.dtype,
            s.k, s.d)


class TestParseMatchesLineByLine:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(mtsvm_line(), max_size=12),
           newline=st.sampled_from(["\n", "\r\n"]),
           k=st.one_of(st.none(), st.integers(1, 5)),
           block=st.sampled_from([1, 40, 1 << 30]))
    def test_random_files(self, tmp_path, lines, newline, k, block):
        path = tmp_path / "r.mtsvm"
        path.write_bytes("".join(line + newline for line in lines).encode())
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            got = outcome(parse_dataset, path, k)
        assert got == outcome(parse_by_line, path, k)

    @pytest.mark.parametrize("block", [1, 1 << 30])
    def test_unsorted_rows_across_blocks(self, tmp_path, block):
        path = tmp_path / "u.mtsvm"
        path.write_text("2 1 5:1 2:2 9:3\n1 -1\n1 1 3:4 1:5\n"
                        "3 0.5 7:1\n2 -1 4:1 3:2 2:3 1:4\n")
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            got = outcome(parse_dataset, path, None)
        assert got == outcome(parse_by_line, path, None)
        assert got[1] == [2, 5, 9, 1, 3, 7, 1, 2, 3, 4]


class TestStreamArrays:
    @pytest.mark.parametrize("indptr, ids, tasks", [
        ([0, 2], [1], [1]),          # indptr past the ids
        ([0, 1], [1], [1, 1]),       # a task too many
        ([0], [], []),               # no row for the label
    ])
    def test_inconsistent_arrays_rejected(self, indptr, ids, tasks):
        with pytest.raises(ValueError, match="inconsistent stream arrays"):
            DatasetStream((indptr, ids, np.ones(len(ids)), tasks), np.ones(1), 1, 1)

    @pytest.mark.parametrize("tasks, ids, error, message", [
        # each used to fail only mid-run: an IndexError, or for task 0 a
        # silent read of the last task's row of M before bincount failed
        ([1, 3], [1, 2], TaskOutOfRange, "example 2 has task 3, outside 1..2"),
        ([0, 1], [1, 2], TaskOutOfRange, "example 1 has task 0, outside 1..2"),
        ([1, 2], [1, 5], ValueError, "example 2 has feature id 5, outside 1..3"),
    ])
    def test_tasks_and_ids_out_of_range_rejected(self, tasks, ids, error, message):
        with pytest.raises(error, match=message):
            DatasetStream(([0, 1, 2], ids, np.ones(2), tasks), np.ones(2), 2, 3)

    def test_stream_and_query_arrays_reject_writes(self, tmp_path):
        path = tmp_path / "s.mtsvm"
        path.write_text("1 0.5 1:2 3:1\n2 -1 2:4\n1 3 1:1 2:1 3:1\n")
        stream = parse_dataset(path)
        derived = binarize_by_percentile(rescale_features(stream))
        for s in (stream, derived):
            for arr in (s.indptr, s.ids, s.values, s.tasks, s.labels):
                with pytest.raises(ValueError):
                    arr[0] = 0
        for d in (3, 300):       # dense, then sparse queries
            wide = DatasetStream((stream.indptr, stream.ids, stream.values,
                                  stream.tasks), stream.labels, stream.k, d)
            for q in queries_in(make_queries(wide, KernelSpec("linear", normalize=True))):
                assert (q.idx is None) == (d == 3)
                with pytest.raises(ValueError):
                    q.x[0] = 0.0
                if q.idx is not None:
                    with pytest.raises(ValueError):
                        q.idx[0] = 0


class TestPreparedInputCannotGoStale:
    """A stream keeps the input its runs prepared, so no array it was built
    from may change afterwards: one the caller can still write is copied."""

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_writes_into_the_callers_arrays_change_no_run(self, read_only_view):
        rng = np.random.default_rng(3)
        n, d = 150, 6
        arrays = [np.arange(n + 1) * d, np.tile(np.arange(1, d + 1), n),
                  rng.normal(size=n * d), np.arange(n) % 3 + 1,
                  rng.choice([-1.0, 1.0], n)]
        given = [a.view() for a in arrays]
        for a in given:
            a.flags.writeable = not read_only_view
        *rows, labels = given
        stream = DatasetStream(tuple(rows), labels, 3, d)
        config = LearnerConfig("mtbprj", TaskGraph.complete(3), budget=10,
                               kernel=KernelSpec("linear", normalize=True))
        first = run_stream(stream, config)
        arrays[1][:] = 1        # every feature id 1: within the ids' range
        arrays[2][:] = rng.normal(size=n * d)
        arrays[3][:] = 1
        arrays[4][:] = -arrays[4]
        second = run_stream(stream, config)
        assert second.trajectory == first.trajectory
        assert np.array_equal(second.per_task, first.per_task)
        assert (second.mistakes, second.final_active) == (first.mistakes,
                                                          first.final_active)

    def test_derived_streams_share_the_arrays_they_take(self, tmp_path):
        """The package's builders hand a stream read-only arrays, which it
        takes as they are."""
        path = tmp_path / "s.mtsvm"
        path.write_text("1 0.5 1:2 3:1\n2 -1 2:4\n1 3 1:1 2:1 3:1\n")
        stream = parse_dataset(path)
        rescaled = rescale_features(stream)
        derived = binarize_by_percentile(rescaled)
        assert rescaled.tasks is stream.tasks and rescaled.labels is stream.labels
        for name in ("indptr", "ids", "values", "tasks"):
            assert getattr(derived, name) is getattr(rescaled, name)
        synthetic, _ = generate_synthetic(2, 3, 10, 0.5, 0.0)
        again = DatasetStream((synthetic.indptr, synthetic.ids, synthetic.values,
                               synthetic.tasks), synthetic.labels, 2, 3)
        assert all(getattr(again, name) is getattr(synthetic, name)
                   for name in ("indptr", "ids", "values", "tasks", "labels"))


def stream_of(vectors, labels, k=1, d=None):
    insts = [MultitaskInstance(v, 1) for v in vectors]
    dim = d if d is not None else max((int(v.indices[-1]) for v in vectors
                                       if len(v.indices)), default=1)
    return DatasetStream(insts, np.array(labels, dtype=float), k, dim)


class TestBinarize:
    def test_percentile_threshold(self):
        # 75th percentile of {1,2,3,4} is 3.25: only 4 exceeds it
        s = stream_of([SparseVector.from_pairs([(1, 1.0)])] * 4,
                      [1.0, 2.0, 3.0, 4.0])
        out = binarize_by_percentile(s, 75.0)
        assert list(out.labels) == [-1, -1, -1, 1]

    def test_tie_at_threshold_goes_negative(self):
        s = stream_of([SparseVector.from_pairs([(1, 1.0)])] * 4,
                      [1.0, 1.0, 1.0, 2.0])
        out = binarize_by_percentile(s, 50.0)
        assert list(out.labels) == [-1, -1, -1, 1]

    def test_all_equal_all_negative(self):
        s = stream_of([SparseVector.from_pairs([(1, 1.0)])] * 10, [7.0] * 10)
        out = binarize_by_percentile(s, 50.0)
        assert list(out.labels) == [-1] * 10
        assert out.binary


class TestRescale:
    def test_observed_range_maps_to_unit(self):
        s = stream_of([SparseVector.from_pairs([(1, 2.0), (2, 10.0)]),
                       SparseVector.from_pairs([(1, 4.0)])], [1.0, -1.0])
        out = rescale_features(s)
        d1 = out.instances[0].x.to_dense(2)
        d2 = out.instances[1].x.to_dense(2)
        assert d1[0] == pytest.approx(0.0)
        assert d2[0] == pytest.approx(1.0)
        assert d1[1] == pytest.approx(0.0)  # single observed value -> 0

    def test_binary_features_untouched(self):
        s = stream_of([SparseVector.from_pairs([(1, 1.0)]),
                       SparseVector.from_pairs([(2, 1.0)])], [1.0, -1.0])
        out = rescale_features(s)
        assert out.instances[0].x.to_dense(2) == pytest.approx([1.0, 0.0])
        assert out.instances[1].x.to_dense(2) == pytest.approx([0.0, 1.0])

    def test_implicit_zeros_not_observed(self):
        # Feature 1 observed only as {3, 5}; stored zeros elsewhere are
        # implicit and must not drag the minimum to 0.
        s = stream_of([SparseVector.from_pairs([(1, 3.0)]),
                       SparseVector.from_pairs([(1, 5.0)]),
                       SparseVector.from_pairs([(2, 1.0), (3, 2.0)])],
                      [1.0, -1.0, 1.0])
        out = rescale_features(s)
        assert out.instances[0].x.to_dense(3)[0] == pytest.approx(0.0)
        assert out.instances[1].x.to_dense(3)[0] == pytest.approx(1.0)

    def test_explicit_zero_and_negative_values(self):
        # Feature 1 observed as {-2, 0, 2}: the stored 0.0 is observed and
        # lands mid-range. Feature 2 holds only 0/1 and stays; feature 3 has
        # one value. Values that map to 0 are dropped, emptying row 1.
        s = stream_of([SparseVector.from_pairs([(1, -2.0), (2, 0.0)]),
                       SparseVector.from_pairs([(1, 0.0), (2, 1.0), (3, -1.0)]),
                       SparseVector.from_pairs([(1, 2.0)])], [1.0, -1.0, 1.0])
        out = rescale_features(s)
        got = [(list(inst.x.indices), list(inst.x.values)) for inst in out.instances]
        assert got == [([], []), ([1, 2], [0.5, 1.0]), ([1], [1.0])]
        assert [inst.task for inst in out.instances] == [1, 1, 1]
        assert rescale_features(stream_of([], [])).instances == []

    def test_matches_per_value_loop(self):
        rng = np.random.default_rng(3)
        choices = np.array([0.0, 1.0, -1.5, 2.0, 0.25])
        vectors = []
        for _ in range(80):
            size = int(rng.integers(0, 9))
            ids = np.sort(rng.choice(30, size=size, replace=False)) + 1
            # features 1-10 see only 0/1, the others any mix of values
            vals = np.where(ids <= 10, rng.integers(0, 2, ids.size),
                            rng.choice(choices, ids.size) * rng.integers(1, 4, ids.size))
            vectors.append(SparseVector(ids, vals.astype(float)))
        s = stream_of(vectors, [1.0] * 80, d=30)
        for got, want in zip(rescale_features(s).instances, rescale_loop(s)):
            assert got.x.indices.dtype == want.indices.dtype
            assert np.array_equal(got.x.indices, want.indices)
            assert got.x.values.tobytes() == want.values.tobytes()


def rescale_loop(stream):
    """Per-value reference of `rescale_features`: each row's rescaled
    SparseVector."""
    lo, hi, binary_only = {}, {}, {}
    for inst in stream.instances:
        for i, val in zip(inst.x.indices.tolist(), inst.x.values.tolist()):
            lo[i] = min(lo.get(i, val), val)
            hi[i] = max(hi.get(i, val), val)
            binary_only[i] = binary_only.get(i, True) and val in (0.0, 1.0)
    rows = []
    for inst in stream.instances:
        pairs = []
        for i, val in zip(inst.x.indices.tolist(), inst.x.values.tolist()):
            if binary_only[i]:
                new = val
            elif hi[i] == lo[i]:
                new = 0.0
            else:
                new = (val - lo[i]) / (hi[i] - lo[i])
            if new != 0.0:
                pairs.append((i, new))
        rows.append(SparseVector.from_pairs(pairs))
    return rows


class TestSynthetic:
    def test_shapes_and_labels(self):
        stream, refs = generate_synthetic(4, 7, 120, 0.6, 0.0, seed=0)
        assert stream.k == 4 and stream.d == 7 and len(stream.labels) == 120
        assert set(stream.labels) <= {-1, 1}
        assert refs.weights.shape == (4, 7)
        assert np.linalg.norm(refs.weights, axis=1) == pytest.approx(np.ones(4))

    @pytest.mark.parametrize("k, d, n, name", [(0, 5, 10, "k"), (-1, 5, 10, "k"),
                                               (2, 0, 10, "d"), (2, 5, -1, "n")])
    def test_bad_sizes_name_the_argument(self, k, d, n, name):
        with pytest.raises(ValueError, match="^%s must be at least" % name):
            generate_synthetic(k, d, n, 0.5, 0.0)

    def test_round_robin_tasks(self):
        stream, _ = generate_synthetic(3, 5, 9, 0.5, 0.0, seed=0)
        assert [i.task for i in stream.instances] == [1, 2, 3] * 3

    def test_relatedness_one_identical_tasks(self):
        _, refs = generate_synthetic(5, 6, 10, 1.0, 0.0, seed=2)
        for row in refs.weights[1:]:
            assert row == pytest.approx(refs.weights[0], abs=1e-12)

    def test_relatedness_zero_distinct_tasks(self):
        _, refs = generate_synthetic(5, 40, 10, 0.0, 0.0, seed=3)
        G = refs.weights @ refs.weights.T
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 0.9  # independent directions, not clones

    def test_noise_free_labels_consistent(self):
        stream, refs = generate_synthetic(3, 8, 300, 0.7, 0.0, seed=4)
        for inst, y in zip(stream.instances, stream.labels):
            margin = y * float(refs.weights[inst.task - 1] @ inst.x.to_dense(8))
            assert margin > 0

    def test_min_margin_enforced(self):
        stream, refs = generate_synthetic(3, 8, 300, 0.7, 0.0, seed=5,
                                          min_margin=0.2)
        for inst, y in zip(stream.instances, stream.labels):
            x = inst.x.to_dense(8)
            margin = y * float(refs.weights[inst.task - 1] @ x)
            assert margin >= 0.2 - 1e-12

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf"),
                                        1.5])
    def test_bad_min_margin_is_named(self, margin):
        """A margin no unit instance can reach once failed as a margin
        rejection sampling that did not terminate."""
        with pytest.raises(ValueError, match="^margin must be finite and at most 1, "
                           "got %r$" % margin):
            generate_synthetic(2, 3, 5, 0.5, 0.0, min_margin=margin)

    def test_negative_min_margin_rejects_nothing(self):
        a, _ = generate_synthetic(2, 3, 20, 0.5, 0.0, seed=7, min_margin=-0.5)
        b, _ = generate_synthetic(2, 3, 20, 0.5, 0.0, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_noise_flip_rate(self):
        stream, refs = generate_synthetic(2, 8, 4000, 0.8, 0.25, seed=6)
        flips = 0
        for inst, y in zip(stream.instances, stream.labels):
            clean = np.sign(refs.weights[inst.task - 1] @ inst.x.to_dense(8))
            flips += int(y != clean)
        assert 0.20 < flips / 4000 < 0.30

    def test_seed_determinism(self):
        a, _ = generate_synthetic(3, 6, 50, 0.5, 0.1, seed=7)
        b, _ = generate_synthetic(3, 6, 50, 0.5, 0.1, seed=7)
        assert list(a.labels) == list(b.labels)
        for u, v in zip(a.instances, b.instances):
            assert u.x.to_dense(6) == pytest.approx(v.x.to_dense(6), abs=0)

    def test_shift_schedule_records_and_rotates(self):
        _, refs = generate_synthetic(3, 6, 100, 0.8, 0.0, seed=8,
                                     shift_schedule=[(50, 0.5)])
        assert len(refs.shifts) == 1
        w0, w1 = refs.weights, refs.shifts[0][1]
        assert refs.shifts[0][0] == 50
        assert np.linalg.norm(w1 - w0) > 1e-3
        assert np.linalg.norm(w1, axis=1) == pytest.approx(np.ones(3))

    @pytest.mark.parametrize("entry", [(9, 0.5), (0, 0.5), (-1, 0.5),
                                       (2, float("nan")), (2, float("inf"))])
    def test_bad_shift_entry_is_named(self, entry):
        """A step outside 1..n once applied no shift, and a NaN angle once
        failed as a margin rejection sampling that did not terminate."""
        with pytest.raises(ValueError, match="^shift %s:%s needs a step in 1..5 "
                           "and a finite angle$" % entry):
            generate_synthetic(2, 3, 5, 0.5, 0.0, shift_schedule=[(1, 0.1), entry])


class TestShiftTerm:
    def test_stationary_is_zero(self):
        _, refs = generate_synthetic(3, 6, 100, 0.8, 0.0, seed=9)
        total, traces = shift_term(refs, TaskGraph.complete(3))
        assert total == 0.0 and len(traces) == 1

    def test_edgeless_matches_row_norms(self):
        _, refs = generate_synthetic(3, 6, 100, 0.8, 0.0, seed=10,
                                     shift_schedule=[(50, 0.7)])
        total, traces = shift_term(refs, TaskGraph.edgeless(3))
        delta = refs.shifts[0][1] - refs.weights
        expect = math.sqrt(float(np.sum(delta * delta)))
        assert total == pytest.approx(expect, abs=1e-9)

    def test_quadratic_form_matches_interaction_matrix(self):
        g = TaskGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        _, refs = generate_synthetic(4, 6, 100, 0.6, 0.0, seed=11,
                                     shift_schedule=[(30, 0.4), (60, 0.9)])
        A = interaction_of(g)
        total, traces = shift_term(refs, g)
        seq = refs.sequence()
        expect = 0.0
        for prev, cur in zip(seq, seq[1:]):
            delta = cur - prev
            expect += math.sqrt(float(np.trace(delta.T @ A @ delta)))
        assert total == pytest.approx(expect, abs=1e-9)
        assert len(traces) == len(seq)
