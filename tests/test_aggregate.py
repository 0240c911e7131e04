"""Property-based and unit tests for the aggregation kernels.

Key invariants:

* array aggregation == hash aggregation on the same inputs;
* partitioned aggregation + merge == single-shot aggregation (the
  correctness of the Section 5 multicore merge);
* both agree with a plain Python dict-of-lists oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregate import (
    array_aggregate,
    finalize,
    hash_aggregate,
)
from repro.errors import ExecutionError
from repro.plan.binder import AggSpec
from repro.plan.expressions import BoundColumn

SPECS = (
    AggSpec("COUNT", None, "n"),
    AggSpec("SUM", BoundColumn("t", "m"), "s"),
    AggSpec("AVG", BoundColumn("t", "m"), "a"),
    AggSpec("MIN", BoundColumn("t", "m"), "lo"),
    AggSpec("MAX", BoundColumn("t", "m"), "hi"),
)


def oracle(codes, values):
    groups = {}
    for code, value in zip(codes, values):
        groups.setdefault(int(code), []).append(float(value))
    out = {}
    for code, vals in sorted(groups.items()):
        out[code] = {
            "n": len(vals), "s": sum(vals), "a": sum(vals) / len(vals),
            "lo": min(vals), "hi": max(vals),
        }
    return out


def run(kind, codes, values, ngroups):
    measures = {"s": values, "a": values, "lo": values, "hi": values}
    if kind == "array":
        state = array_aggregate(SPECS, measures, codes, ngroups)
    else:
        state = hash_aggregate(SPECS, measures, codes)
    ids, out = finalize(state)
    return {
        int(g): {name: out[name][i] for name in ("n", "s", "a", "lo", "hi")}
        for i, g in enumerate(ids)
    }


class TestKernels:
    def test_simple_sums(self):
        codes = np.array([0, 1, 0, 1, 2])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for kind in ("array", "hash"):
            got = run(kind, codes, values, 3)
            assert got[0]["s"] == 4.0 and got[1]["s"] == 6.0
            assert got[2]["n"] == 1

    def test_empty_groups_dropped(self):
        codes = np.array([5])
        values = np.array([1.0])
        got = run("array", codes, values, 10)
        assert list(got) == [5]

    def test_int_sums_stay_int(self):
        state = array_aggregate(
            (AggSpec("SUM", BoundColumn("t", "m"), "s"),),
            {"s": np.array([1, 2, 3], dtype=np.int64)},
            np.array([0, 0, 0]), 1)
        _, out = finalize(state)
        assert out["s"].dtype == np.int64 and out["s"][0] == 6

    def test_unsupported_func_rejected(self):
        with pytest.raises(ExecutionError):
            array_aggregate(
                (AggSpec("MEDIAN", BoundColumn("t", "m"), "x"),),
                {"x": np.array([1.0])}, np.array([0]), 1)

    def test_merge_type_mismatch_rejected(self):
        dense = array_aggregate(SPECS[:1], {}, np.array([0]), 1)
        sparse = hash_aggregate(SPECS[:1], {}, np.array([0]))
        with pytest.raises(ExecutionError):
            dense.merge(sparse)


DATA_STRATEGY = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),
              st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
    min_size=1, max_size=300)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=DATA_STRATEGY)
    def test_array_matches_oracle(self, data):
        codes = np.array([c for c, _ in data], dtype=np.int64)
        values = np.array([v for _, v in data])
        expected = oracle(codes, values)
        got = run("array", codes, values, 13)
        assert set(got) == set(expected)
        for g in expected:
            assert got[g]["n"] == expected[g]["n"]
            assert got[g]["s"] == pytest.approx(expected[g]["s"], rel=1e-9,
                                                abs=1e-6)
            assert got[g]["lo"] == expected[g]["lo"]
            assert got[g]["hi"] == expected[g]["hi"]

    @settings(max_examples=60, deadline=None)
    @given(data=DATA_STRATEGY)
    def test_hash_matches_array(self, data):
        codes = np.array([c for c, _ in data], dtype=np.int64)
        values = np.array([v for _, v in data])
        a = run("array", codes, values, 13)
        h = run("hash", codes, values, 13)
        assert set(a) == set(h)
        for g in a:
            for field in ("n", "s", "lo", "hi"):
                assert a[g][field] == pytest.approx(h[g][field], rel=1e-9,
                                                    abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(data=DATA_STRATEGY)
    def test_partition_merge_equals_single_shot(self, data):
        codes = np.array([c for c, _ in data], dtype=np.int64)
        values = np.array([v for _, v in data])
        measures = {"s": values, "a": values, "lo": values, "hi": values}
        whole = array_aggregate(SPECS, measures, codes, 13)
        cut = len(codes) // 2
        left = array_aggregate(
            SPECS, {k: v[:cut] for k, v in measures.items()},
            codes[:cut], 13)
        right = array_aggregate(
            SPECS, {k: v[cut:] for k, v in measures.items()},
            codes[cut:], 13)
        merged = left.merge(right)
        ids_w, out_w = finalize(whole)
        ids_m, out_m = finalize(merged)
        assert np.array_equal(ids_w, ids_m)
        for name in out_w:
            assert np.allclose(out_w[name].astype(float),
                               out_m[name].astype(float))

    @settings(max_examples=60, deadline=None)
    @given(data=DATA_STRATEGY)
    def test_sparse_partition_merge(self, data):
        codes = np.array([c for c, _ in data], dtype=np.int64)
        values = np.array([v for _, v in data])
        measures = {"s": values, "a": values, "lo": values, "hi": values}
        whole = hash_aggregate(SPECS, measures, codes)
        cut = max(1, len(codes) // 3)
        left = hash_aggregate(
            SPECS, {k: v[:cut] for k, v in measures.items()}, codes[:cut])
        right = hash_aggregate(
            SPECS, {k: v[cut:] for k, v in measures.items()}, codes[cut:])
        merged = left.merge(right) if len(codes) > cut else left
        ids_w, out_w = finalize(whole)
        ids_m, out_m = finalize(merged)
        assert np.array_equal(ids_w, ids_m)
        for name in out_w:
            assert np.allclose(out_w[name].astype(float),
                               out_m[name].astype(float))


#: Group codes of the hash layout: a wide one forces its sort-based path.
WIDE_CODES = np.array([0, 1, 5, 10 ** 7], dtype=np.int64)
INT_DATA = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=-2 ** 57, max_value=2 ** 57)),
    min_size=1, max_size=40)


class TestIntegerExactness:
    """Integer SUM/MIN/MAX are exact above 2**53, where a float64
    accumulator rounds.  Checked against Python ints: the engine-level
    oracles share these kernels, so a differential cannot see it."""

    SPECS = tuple(spec for spec in SPECS if spec.func != "AVG")

    def states(self, kind, codes, values):
        """The single-shot state and a two-way split merged back."""
        def aggregate(part):
            measures = {spec.name: values[part] for spec in self.SPECS}
            if kind == "array":
                return array_aggregate(self.SPECS, measures, codes[part], 4)
            return hash_aggregate(self.SPECS, measures,
                                  WIDE_CODES[codes[part]])

        cut = len(codes) // 2
        return (aggregate(slice(None)),
                aggregate(slice(None, cut)).merge(aggregate(slice(cut, None))))

    @settings(max_examples=40, deadline=None)
    @given(data=INT_DATA)
    def test_layouts_and_merges_match_python_ints(self, data):
        codes = np.array([c for c, _ in data], dtype=np.int64)
        values = np.array([v for _, v in data], dtype=np.int64)
        groups = {}
        for code, value in data:
            groups.setdefault(code, []).append(value)
        for kind in ("array", "hash"):
            expected = {
                int(code if kind == "array" else WIDE_CODES[code]):
                (len(vals), sum(vals), min(vals), max(vals))
                for code, vals in groups.items()}
            for state in self.states(kind, codes, values):
                ids, out = finalize(state)
                got = {int(g): tuple(int(out[name][i])
                                     for name in ("n", "s", "lo", "hi"))
                       for i, g in enumerate(ids)}
                assert got == expected, kind

    def test_sql_sum_and_max_are_exact(self):
        from repro.baselines import FusedEngine
        from repro.core import Database
        from repro.engine import AStoreEngine

        big = 2 ** 53
        db = Database("big")
        db.create_table("t", {"g": [1, 1, 1],
                              "v": np.array([big + 1, 1, 1], dtype=np.int64)})
        engine = AStoreEngine(db)
        assert (engine.query("SELECT sum(v) AS s, max(v) AS m FROM t").rows()
                == [(big + 3, big + 1)])
        grouped = "SELECT g, sum(v) AS s, max(v) AS m FROM t GROUP BY g"
        assert engine.query(grouped).rows() == [(1, big + 3, big + 1)]
        assert FusedEngine(db).query(grouped).rows() == [(1, big + 3, big + 1)]
