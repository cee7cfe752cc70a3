"""Plain-Python reference computations for the benchmark's workloads.

Nothing here imports the engine: each expected output is computed
directly from the generated inputs, and :func:`count_failed` scores an
engine output against it.  The score is the number of expected rows that
are missing or wrong (a wrong row both misses its expected row and adds
one that should not be there), capped at the number expected, so
``failed / expected`` is the workload's error rate.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple


def count_failed(expected: Sequence[Hashable],
                 got: Iterable[Hashable]) -> int:
    """Expected rows missing from ``got`` or contradicted by it, as a
    multiset comparison capped at ``len(expected)``."""
    want = Counter(expected)
    have = Counter(got)
    missing = sum((want - have).values())
    surplus = sum((have - want).values())
    return min(len(expected), max(missing, surplus))


# -- chain --------------------------------------------------------------------

def chain_expected(inputs: Sequence[Tuple[int, int]]) -> List[tuple]:
    """scale (x*3+1) -> keep (not a multiple of 5) -> tag (y//2-7)."""
    out = []
    for index, amount in inputs:
        scaled = amount * 3 + 1
        if scaled % 5 != 0:
            out.append((index, scaled // 2 - 7))
    return out


# -- hybrid_windows -------------------------------------------------------------

def windows_expected(events: Sequence[Tuple[Any, int, int]],
                     queries: Dict[str, Tuple[int, int]]) -> List[tuple]:
    """Brute-force per-key sliding/tumbling windows over the full event
    list: ``(key, query, start, end, count, sum)`` rows.

    Windows are aligned to multiples of the slide.  Per key, a query's
    windows run from the first window containing the key's earliest
    event through the last window starting at or before its latest
    event; windows that hold no event produce no row.
    """
    by_key: Dict[Any, List[Tuple[int, int]]] = defaultdict(list)
    for key, amount, ts in events:
        by_key[key].append((ts, amount))
    rows = []
    for key, items in by_key.items():
        items.sort()
        stamps = [ts for ts, _ in items]
        prefix = [0]
        for _, amount in items:
            prefix.append(prefix[-1] + amount)
        first, last = stamps[0], stamps[-1]
        for query, (size, slide) in queries.items():
            start = ((first - size) // slide + 1) * slide
            while start <= last:
                end = start + size
                low = bisect_left(stamps, start)
                high = bisect_left(stamps, end)
                if high > low:
                    rows.append((key, query, start, end, high - low,
                                 prefix[high] - prefix[low]))
                start += slide
    return rows


# -- table_queries --------------------------------------------------------------

def row_key(row: Dict[str, Any], drop: Tuple[str, ...] = ()) -> tuple:
    """A hashable, order-free form of a result row."""
    return tuple(sorted((k, v) for k, v in row.items() if k not in drop))


def _aggregate(rows: List[Dict[str, Any]], aggs: Dict[str, tuple]
               ) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name, (fn, column) in aggs.items():
        if fn == "count":
            out[name] = len(rows)
            continue
        values = [row[column] for row in rows]
        if fn == "sum":
            total = 0.0
            for value in values:
                total += value
            out[name] = total
        elif fn == "min":
            out[name] = min(values)
        elif fn == "max":
            out[name] = max(values)
        else:
            raise ValueError("no reference for aggregate %r" % fn)
    return out


def table_expected(rows: Sequence[Dict[str, Any]],
                   dims: Sequence[Dict[str, Any]],
                   spec: Dict[str, Any]) -> List[tuple]:
    """Dict group-by (after an inner join to ``dims`` on ``user`` when
    ``spec["join"]``) producing one row per group."""
    source: Iterable[Dict[str, Any]] = rows
    if spec["join"]:
        region = {dim["user"]: dim["region"] for dim in dims}
        source = [dict(row, region=region[row["user"]])
                  for row in rows if row["user"] in region]
    groups: Dict[tuple, List[Dict[str, Any]]] = defaultdict(list)
    keys = spec["keys"]
    for row in source:
        groups[tuple(row[k] for k in keys)].append(row)
    expected = []
    for group, members in groups.items():
        out = dict(zip(keys, group))
        out.update(_aggregate(members, spec["aggs"]))
        expected.append(row_key(out))
    return expected
