"""Column buffers: every private fixed-width storage buffer comes from
``empty_buffer``, and one of at least ``MAPPED_BUFFER_BYTES`` (256 KiB)
is a private anonymous mapping of its own.

So a buffer that a write or a compaction replaces is unmapped with its
last view, growth capacity nobody wrote to is never resident, readers
holding a view of a replaced buffer keep reading it, read-only image
views are still copied on first write, and the bookkeeping vectors grow
geometrically like the columns.  The mapping tests read ``/proc/self``.
"""

import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.core import DataType, FixedColumn, Table
from repro.core.column import MAPPED_BUFFER_BYTES, empty_buffer
from repro.datagen import generate_ssb

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/pagemap"),
                                reason="reads /proc/self/maps and pagemap")

#: a huge page
HUGE_PAGE = 2 << 20

#: an int64 column of 4 MiB: mapped
ROWS = 2 * HUGE_PAGE // 8
assert ROWS * 8 >= MAPPED_BUFFER_BYTES


def extent(array):
    """The ``[start, end)`` addresses of *array*'s bytes."""
    start = array.__array_interface__["data"][0]
    return start, start + array.nbytes


def mapped(start, end):
    """Whether any mapping overlaps ``[start, end)``."""
    with open("/proc/self/maps") as maps:
        for line in maps:
            lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
            if lo < end and start < hi:
                return True
    return False


def resident(array):
    """Bytes of the pages under *array* that are resident, from the
    present bit (63) of each page's ``/proc/self/pagemap`` entry."""
    page = os.sysconf("SC_PAGE_SIZE")
    start, end = extent(array)
    first, last = start // page, -(-end // page)
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(first * 8)
        entries = struct.unpack(f"{last - first}Q",
                                pagemap.read((last - first) * 8))
    return page * sum(entry >> 63 for entry in entries)


class TestEmptyBuffer:
    def test_small_buffers_are_numpy_arrays(self):
        # 0.0 s
        assert empty_buffer(16, np.int64).flags.owndata
        assert not empty_buffer(ROWS, np.int64).flags.owndata

    def test_traced_call_raises_traced_memory_by_its_size(self):
        # 0.0 s: the mapping is registered with tracemalloc, so the
        # generation and compaction bounds measured with it stay live
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            buffer = empty_buffer(ROWS, np.int64)
            grown = tracemalloc.get_traced_memory()[0] - before
            nbytes = buffer.nbytes
            del buffer
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert nbytes <= grown < nbytes + (64 << 10), (grown, nbytes)
        assert left < 64 << 10, left

    @needs_proc
    def test_replaced_buffer_is_unmapped_with_its_last_view(self):
        # 0.0 s: an append past the capacity moves the column into a new
        # buffer; the old mapping stays while a reader holds a view of
        # it and leaves /proc/self/maps when that view goes
        column = FixedColumn("x", DataType.INT64, data=np.arange(ROWS))
        view = column.values()
        old = extent(view)
        column.append([ROWS])
        assert not np.shares_memory(view, column.values())
        assert mapped(*old)
        del view
        assert not mapped(*old)

    @needs_proc
    def test_capacity_nobody_wrote_to_is_not_resident(self):
        # 0.0 s: a 16 MiB column grows to 24 MiB of capacity; only what
        # the copy and the append wrote is resident (a huge page of
        # slack at most, where every mapping takes huge pages)
        rows = 8 * HUGE_PAGE // 8
        column = FixedColumn("x", DataType.INT64, data=np.ones(rows))
        column.append(np.ones(1000))
        capacity = column.capacity * 8
        held = resident(column._data)
        assert capacity >= 1.5 * rows * 8
        assert held <= (rows + 1000) * 8 + HUGE_PAGE, (
            held, capacity)


class TestCopyOnFirstWrite:
    @needs_proc
    def test_read_only_view_is_copied_on_first_write(self):
        # 0.0 s: an image view is read-only; the first write copies it
        # into a mapping of its own and the image keeps its values
        image = np.arange(ROWS, dtype=np.int64)
        image.flags.writeable = False
        column = FixedColumn.wrap("x", DataType.INT64, image)
        column.put([0], [-1])
        assert image[0] == 0 and column.get(0) == -1
        data = column.values()
        assert data.flags.writeable and not np.shares_memory(data, image)
        assert resident(data) >= data.nbytes
        assert np.array_equal(data[1:], image[1:])


class TestCompactionWritesFreshBuffers:
    def test_view_taken_before_compact_reads_old_values(self):
        # 0.15 s: compaction gathers every column into a fresh buffer, so
        # a reader's view of the old layout (a query running over
        # zero-copy views while ``serve`` compacts) stays valid
        db = generate_ssb(sf=0.05, seed=3)
        fact = db.table("lineorder")
        fact.delete(np.arange(0, fact.num_rows, 3))
        view = fact["lo_revenue"].values()
        before = view.copy()
        db.compact("lineorder")
        assert np.array_equal(view, before)
        after = fact["lo_revenue"].values()
        assert len(after) == fact.num_live < len(before)
        assert not np.shares_memory(view, after)


class TestBookkeepingGrowth:
    NAMES = ("_deleted", "_insert_version", "_delete_version")

    def test_appends_reallocate_each_vector_at_most_once(self):
        # 0.0 s: the deletion bits and both MVCC version vectors keep
        # growth capacity, so twenty appends at the tail write O(batch)
        table = Table.from_arrays("t", {"x": np.arange(10_000)}, mvcc=True)

        def buffer(name):
            vector = getattr(table, name)
            return vector if vector.base is None else vector.base

        seen = {name: [buffer(name)] for name in self.NAMES}
        for version in range(1, 21):
            table.insert({"x": np.arange(100)}, version=version)
            for name in self.NAMES:
                if not any(buffer(name) is b for b in seen[name]):
                    seen[name].append(buffer(name))
        reallocations = {name: len(b) - 1 for name, b in seen.items()}
        assert max(reallocations.values()) <= 1, reallocations
        assert table.num_rows == 12_000 and table.live_mask().all()
        assert (table._insert_version[10_000:] > 0).all()
        assert not table.live_mask(snapshot=0)[10_000:].any()
        assert table.live_mask(snapshot=20).all()


CHURN = textwrap.dedent("""
    import numpy as np
    from repro.datagen import generate_ssb

    # mixed_rw's write pattern, at 300 rows a write
    PATTERN = ("append", "update", "delete", "update", "append", "customer",
               "append", "update", "append", "update", "append", "delete")

    def status(key):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024

    db = generate_ssb(sf=0.1, seed=5)
    fact, customer = db.table("lineorder"), db.table("customer")
    data = sum(c.values().nbytes for c in fact.columns.values())
    base = status("VmRSS")
    rng = np.random.default_rng(5)
    for _ in range(3):
        for op in PATTERN:
            if op == "customer":
                pos = rng.choice(customer.num_rows, 10, replace=False)
                customer.update(pos, {"c_region": ["ASIA"] * 10})
                continue
            pos = rng.choice(np.flatnonzero(fact.live_mask()), 300,
                             replace=False)
            if op == "append":
                fact.insert(fact.gather(pos))
            elif op == "update":
                fact.update(pos, {"lo_revenue": rng.integers(1, 100, 300)})
            else:
                fact.delete(pos)
        db.compact("lineorder")
    print((status("VmHWM") - base) / data)
""")


@needs_proc
def test_write_churn_peak_stays_near_the_data():
    # ~1.0 s, a fresh interpreter so VmHWM is this run's: three epochs of
    # writes and a compaction at sf=0.1 (31 MB of narrow fact columns)
    # peak at 0.43x the fact data over the post-generation RSS on a
    # 2-core x86 host; with storage recycled through the malloc heap
    # they read ~1.0x
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")] if p))
    out = subprocess.run([sys.executable, "-c", CHURN], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    growth = float(out.stdout.split()[-1])
    assert growth <= 0.6, growth
