"""Tests of the benchmark itself: its input generators, its self-time
arithmetic, its failure accounting and its tracer.

    python3 -m pytest -q perfbench
"""

import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

import run
import tracing
import workloads
from workloads import Op, cycle_lemma_path, is_allowable, pair_count, pairs_count_op


@pytest.fixture(scope="module")
def lib():
    return run.import_tabkit()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cycle_lemma_hits_every_path_exactly_2n_plus_1_times(lib, n):
    hits = Counter()
    for ups, labels in product(combinations(range(2 * n + 1), n),
                               permutations(range(1, n + 1))):
        word = ["U" if i in ups else "D" for i in range(2 * n + 1)]
        hits[cycle_lemma_path(word, labels)] += 1
    assert len(hits) == workloads.two_column_count(n)
    assert set(hits.values()) == {2 * n + 1}
    for steps in hits:
        assert lib.dyck.LabeledDyckPath(steps).canonical


def test_self_time_subtracts_child_spans():
    names = ["op", "a", "b", "c"]
    spans = [  # name id, parent, start, end
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 0, 5.0, 9.0),
        (3, 2, 6.0, 7.0),
        (3, 2, 7.5, 8.0),
    ]
    name, parent, start, end = zip(*spans)
    stats, edges = tracing.span_stats(names, name, parent, start, end)
    assert stats == {"op": (1, 3.0), "a": (1, 3.0), "b": (1, 2.5), "c": (2, 1.5)}
    assert edges == {("op", "a"): 1, ("op", "b"): 1, ("b", "c"): 2}


def test_wrong_expected_count_is_a_failed_op(lib):
    def overflow(lib):
        raise RecursionError("maximum recursion depth exceeded")

    ops = [
        pairs_count_op(4, pair_count(4)),
        pairs_count_op(4, pair_count(4) + 1),  # deliberately wrong
        Op("overflow", None, overflow, timed=True),
    ]
    r = run.run_passes(lib, ops, lambda r: r.passes == 2)
    assert (r.attempted, r.objects) == (6, [24**2, 0, 0])
    assert [op.label for op, _ in r.failures] == ["allowable_pairs(4)", "overflow"] * 2
    assert "yielded 125, want 126" in r.failures[0][1]
    assert r.best()[1:] == [float("inf")] * 2
    assert len(r.failures) / r.attempted > 0


def test_pattern_oracle_counts_allowable_pairs():
    for n in range(1, 5):
        perms = list(permutations(range(1, n + 1)))
        assert sum(is_allowable(a, b) for a in perms for b in perms) == pair_count(n)


def test_sampled_pairs_have_the_requested_inversions():
    rng = random.Random(3)

    def inversions(p):
        return sum(p[i] > p[j] for i, j in combinations(range(7), 2))

    for k in range(22):
        for m in range(22 - k):
            a, b = workloads.sample_pair(7, k, m, rng)
            assert is_allowable(a, b)
            assert (inversions(a), inversions(b)) == (k, k + m)


def test_tracer_wraps_every_binding_and_restores_them(lib):
    original = lib.tableaux.positions
    assert lib.hecke.positions is original
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        assert lib.hecke.positions is lib.tableaux.positions is not original
        root = tracer.open_op()
        t = next(lib.tableaux.enumerate_spct((2, 2)))
        lib.hecke.pi(t, 1)
        assert sum(1 for _ in lib.tableaux.enumerate_spct((2, 2))) == 4
        tracer.leave(root)
    finally:
        tracer.uninstall()
    assert lib.hecke.positions is lib.tableaux.positions is original
    m = tracing.layer_metrics(tracer, passes=1)
    assert m["hecke.pi.calls"] == 1
    assert m["tableaux.enumerate_spct.objects"] == 5
    assert m["tableaux.positions.calls"] >= 1
    assert set(tracer.op) == {1}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_per_mille(1000) == 990
    assert run.tail_per_mille(200) == 950
    assert run.tail_per_mille(7) is None
    samples = [float(x) for x in range(1, 201)]
    assert run.percentile(samples, 950) == 190.0
    assert run.percentile(samples, None) == 200.0


def test_reference_clock_divides_by_the_kernel_runs_around_each_op(monkeypatch):
    kernel_s = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(run.ReferenceClock, "time_kernel", staticmethod(lambda: next(kernel_s)))
    monkeypatch.setattr(run, "REF_EVERY_S", 0.05)
    r = run.RunResult(times=[[0.03], [0.03]], ref_ms=[[], []])
    clock = run.ReferenceClock()
    clock.record(r, 0)  # 0.03 s of ops: not yet due
    assert r.ref_ms == [[], []]
    clock.record(r, 1)  # 0.06 s: converted by kernels of 2 and 4 ms
    per_ms = 0.003 / run.reference.REF_MS
    assert r.ref_ms == [[(per_ms, 0.03 / per_ms)], [(per_ms, 0.03 / per_ms)]]
    r.times[0].append(0.01)
    clock.record(r, 0)
    clock.flush(r)  # converted by kernels of 4 and 6 ms
    assert r.ref_ms[0][1] == (0.005 / run.reference.REF_MS, 0.01 / (0.005 / run.reference.REF_MS))


def test_op_time_is_the_median_of_its_calmest_half():
    r = run.RunResult(ref_ms=[
        [(2.0, 9.0), (1.0, 4.0), (1.1, 6.0), (3.0, 1.0)],  # calm half: 4 and 6
        [(1.0, 5.0)],
        [(1.0, 5.0), (1.0, float("inf"))],
    ])
    assert r.typical_ref_ms() == [5.0, 5.0, float("inf")]
