"""Unit tests of the benchmark's own arithmetic (no program run needed).

Run with ``python3 -m pytest e2ebench/tests``.
"""

import pathlib
import sys
import types

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from common import (Op, correct_for_host, executed_cells,  # noqa: E402
                    quartiles, strip_footer, tail_percentile,
                    whole_pass_throughput)
from spans import Span, Tracer, union_length  # noqa: E402


# -- tail percentiles --------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    # 999 samples leave only 9 beyond p99: fall back to p95.
    assert tail_percentile(list(range(999)))[0] == 95.0


def test_tail_value_is_nearest_rank():
    values = list(range(1, 1001))
    p, value = tail_percentile(values)
    assert (p, value) == (99.0, 990)


def test_no_tail_percentile_for_few_samples():
    assert tail_percentile(list(range(20))) is None
    assert tail_percentile(list(range(40)))[0] == 75.0


def test_tail_ignores_input_order():
    values = list(range(2000))
    assert tail_percentile(values[::-1]) == tail_percentile(values)


# -- whole-pass throughput and host correction ------------------------------

def test_throughput_is_work_over_median_pass():
    assert whole_pass_throughput(282, [1.0, 2.0, 4.0]) == pytest.approx(141)


def test_correction_scales_to_reference_probe():
    # A host twice as slow as the reference halves the corrected time.
    assert correct_for_host(2.0, probe_ms=2.0, reference_ms=1.0) == 1.0
    with pytest.raises(ValueError):
        correct_for_host(1.0, probe_ms=0.0)


def test_op_corrects_each_segment_by_its_own_probe():
    op = Op()
    op.add(1.0, 0.85)   # at reference speed
    op.add(1.0, 1.70)   # host twice as slow for this segment
    assert op.wall_s == 2.0
    assert op.corrected_s == pytest.approx(1.5)


def test_quartiles_match_statistics_module():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


# -- span self time ----------------------------------------------------------

def _span(name, start, end, parent=None, span_id=1):
    span = Span(name, start, parent, None, span_id, 0)
    span.end = end
    return span


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_covered_part_only():
    tracer = Tracer()
    root = _span("root", 0.0, 10.0, span_id=1)
    a = _span("a", 1.0, 4.0, parent=1, span_id=2)
    b = _span("b", 3.0, 6.0, parent=1, span_id=3)
    late = _span("late", 9.0, 12.0, parent=1, span_id=4)  # clipped at 10
    tracer.spans = [root, a, b, late]
    breakdown = tracer.op_breakdown(root, tracer.children())
    assert breakdown["root"] == pytest.approx(10 - 5 - 1)
    assert breakdown["a"] == pytest.approx(3.0)
    assert breakdown["late"] == pytest.approx(1.0)


def test_breakdown_of_nested_tree_sums_to_wall():
    tracer = Tracer()
    root = _span("op", 0.0, 10.0, span_id=1)
    cmd = _span("cli.main", 0.5, 9.5, parent=1, span_id=2)
    get = _span("cache.get", 1.0, 2.0, parent=2, span_id=3)
    dec = _span("wire.decode", 1.2, 1.7, parent=3, span_id=4)
    batch = _span("parallel.run_cells", 3.0, 8.0, span_id=5)
    batch.extra["links"] = [2]   # ran on another thread for this op
    tracer.spans = [root, cmd, get, dec, batch]
    breakdown = tracer.op_breakdown(root, tracer.children())
    assert sum(breakdown.values()) == pytest.approx(root.duration)
    assert breakdown["wire.decode"] == pytest.approx(0.5)
    assert breakdown["cache.get"] == pytest.approx(0.5)
    assert breakdown["parallel.run_cells"] == pytest.approx(5.0)
    assert breakdown["cli.main"] == pytest.approx(9.0 - 1.0 - 5.0)


def test_wrap_records_only_while_enabled_and_restores():
    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work
    tracer = Tracer()
    tracer.wrap(module, "work", "layer.work",
                measure=lambda span, args, result: span.extra.update(
                    out=result))
    assert module.work(2) == 4 and not tracer.spans
    tracer.enabled = True
    with tracer.span("op") as root:
        assert module.work(3) == 6
    (inner, outer) = tracer.spans
    assert (inner.name, inner.parent, inner.extra["out"]) == \
        ("layer.work", root.id, 6)
    assert outer is root
    tracer.restore()
    assert module.work is original


# -- output parsing ----------------------------------------------------------

def test_footer_is_stripped_and_executed_cells_summed():
    text = ("table one\n\ntable two\n\nsweep engine: 60 cells, 12 executed "
            "(12 trials), 48 cache hits (jobs=2); cache at /x now holds 9 "
            "entries\n")
    assert strip_footer(text) == "table one\n\ntable two"
    assert executed_cells(text + "\n" + text) == 24
