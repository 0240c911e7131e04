"""Differential testing: randomized star schemas and queries, all engines
must agree.

Hypothesis generates a random star schema (dimension sizes, value
domains), random fact data, and a random SPJGA query (filters, group
keys, aggregates); the query runs on every A-Store variant and on the
baseline engines, and all answers must be identical.  This exercises the
whole stack — binder, optimizer, predicate vectors, group-vector fusion,
array/hash aggregation, hash-join baselines — far beyond the fixed SSB
workload.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FusedEngine, MaterializingEngine
from repro.core import Database
from repro.engine import AStoreEngine, EngineOptions

REGIONS = ["north", "south", "east", "west"]
TIERS = ["gold", "silver", "bronze"]


@st.composite
def star_case(draw):
    """A random (schema, data, query) triple."""
    n_dim_a = draw(st.integers(min_value=1, max_value=12))
    n_dim_b = draw(st.integers(min_value=1, max_value=6))
    n_fact = draw(st.integers(min_value=0, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)

    dim_a = {
        "a_key": np.arange(100, 100 + n_dim_a),
        "a_region": [REGIONS[i % len(REGIONS)] for i in range(n_dim_a)],
        "a_rank": rng.integers(0, 5, n_dim_a),
    }
    dim_b = {
        "b_key": np.arange(500, 500 + n_dim_b),
        "b_tier": [TIERS[i % len(TIERS)] for i in range(n_dim_b)],
    }
    fact = {
        "f_a": rng.integers(100, 100 + n_dim_a, n_fact),
        "f_b": rng.integers(500, 500 + n_dim_b, n_fact),
        "f_value": rng.integers(-50, 200, n_fact),
        "f_qty": rng.integers(1, 10, n_fact),
    }

    # random query pieces
    filters = []
    if draw(st.booleans()):
        filters.append(f"f_value >= {draw(st.integers(-60, 210))}")
    if draw(st.booleans()):
        filters.append(
            f"a_region = '{draw(st.sampled_from(REGIONS))}'")
    if draw(st.booleans()):
        lo = draw(st.integers(0, 4))
        filters.append(f"a_rank BETWEEN {lo} AND {lo + 1}")
    if draw(st.booleans()):
        filters.append(f"b_tier IN ('gold', '{draw(st.sampled_from(TIERS))}')")
    group_keys = draw(st.sets(
        st.sampled_from(["a_region", "b_tier", "f_qty"]),
        min_size=0, max_size=3))
    aggregates = ["count(*) AS n", "sum(f_value) AS s",
                  "min(f_value) AS lo", "max(f_value) AS hi"]

    select = ", ".join(sorted(group_keys) + aggregates)
    sql = f"SELECT {select} FROM fact, dim_a, dim_b"
    if filters:
        sql += " WHERE " + " AND ".join(filters)
    if group_keys:
        keys = ", ".join(sorted(group_keys))
        sql += f" GROUP BY {keys} ORDER BY {keys}"
    return dim_a, dim_b, fact, sql


def build_db(dim_a, dim_b, fact, airify):
    db = Database("random_star")
    db.create_table("dim_a", dim_a, dict_threshold=1.0)
    db.create_table("dim_b", dim_b, dict_threshold=1.0)
    db.create_table("fact", fact)
    db.add_reference("fact", "f_a", "dim_a", "a_key")
    db.add_reference("fact", "f_b", "dim_b", "b_key")
    if airify:
        db.airify()
    return db


def rows_equal(a, b) -> bool:
    """Tuple-row equality where NaN == NaN (empty MIN/MAX results)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            both_nan = (isinstance(va, float) and isinstance(vb, float)
                        and va != va and vb != vb)
            if not both_nan and va != vb:
                return False
    return True


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(case=star_case())
    def test_variants_and_baselines_agree(self, case):
        dim_a, dim_b, fact, sql = case
        air = build_db(dim_a, dim_b, fact, airify=True)
        raw = build_db(dim_a, dim_b, fact, airify=False)

        reference = AStoreEngine(air).query(sql).rows()
        for variant in ("AIRScan_R", "AIRScan_C", "AIRScan_C_P"):
            got = AStoreEngine.variant(air, variant).query(sql).rows()
            assert rows_equal(got, reference), f"{variant} diverged on: {sql}"
        parallel = AStoreEngine(air, EngineOptions(workers=3, parallel_backend="thread")).query(sql)
        assert rows_equal(parallel.rows(), reference)

        for engine in (FusedEngine(raw), MaterializingEngine(raw)):
            got = engine.query(sql).rows()
            assert rows_equal(got, reference), f"{engine.name} diverged on: {sql}"

    @settings(max_examples=25, deadline=None)
    @given(case=star_case())
    def test_oracle_agreement_scalar(self, case):
        """When no GROUP BY was drawn, check against a Python oracle."""
        dim_a, dim_b, fact, sql = case
        if "GROUP BY" in sql:
            return
        air = build_db(dim_a, dim_b, fact, airify=True)
        result = AStoreEngine(air).query(sql).to_dicts()[0]

        # re-evaluate the filters row by row in plain Python
        a_index = {int(k): i for i, k in enumerate(dim_a["a_key"])}
        b_index = {int(k): i for i, k in enumerate(dim_b["b_key"])}
        survivors = []
        for i in range(len(fact["f_value"])):
            ai = a_index[int(fact["f_a"][i])]
            bi = b_index[int(fact["f_b"][i])]
            row = {
                "f_value": int(fact["f_value"][i]),
                "a_region": dim_a["a_region"][ai],
                "a_rank": int(dim_a["a_rank"][ai]),
                "b_tier": dim_b["b_tier"][bi],
            }
            if _passes(sql, row):
                survivors.append(row["f_value"])
        assert result["n"] == len(survivors)
        expected_sum = sum(survivors)
        assert result["s"] == expected_sum


def _passes(sql, row) -> bool:
    import re

    if "WHERE" not in sql:
        return True
    clause = sql.split("WHERE", 1)[1]
    # protect 'BETWEEN x AND y' from the conjunct split
    clause = re.sub(r"BETWEEN (\S+) AND (\S+)", r"BETWEEN \1..\2", clause)
    for part in clause.split(" AND "):
        part = part.strip()
        if part.startswith("f_value >="):
            if not row["f_value"] >= int(part.split(">=")[1]):
                return False
        elif part.startswith("a_region ="):
            if row["a_region"] != part.split("'")[1]:
                return False
        elif part.startswith("a_rank BETWEEN"):
            bounds = part.replace("a_rank BETWEEN", "").strip()
            lo, hi = (int(x) for x in bounds.split(".."))
            if not lo <= row["a_rank"] <= hi:
                return False
        elif part.startswith("b_tier IN"):
            allowed = [s for s in part.split("'")[1::2]]
            if row["b_tier"] not in allowed:
                return False
    return True
