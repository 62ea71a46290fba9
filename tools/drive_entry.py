"""Drive ``__ray_entry__.py`` the way the grading driver does, and
compare every query with its DuckDB oracle.

    python drive_entry.py REPO SF_DIR [--cpus 8] [--json out.json]
    python drive_entry.py --compare a.json b.json

The first form starts a local Ray session of ``--cpus`` CPUs, only then
puts ``REPO`` on ``sys.path`` and imports its ``__ray_entry__`` (the
driver's order, so run it from outside the repo to catch import and
pickling faults), runs ``entry()`` once as a smoke check, and then each
``queries()`` entry over ``SF_DIR``. A query passes when its frame
equals ``oracle_sql()``'s DuckDB result over views of
``SF_DIR/*.parquet`` in row count, columns and stringified values,
with columns sorted by name and rows sorted (order-insensitive, as the
driver compares). It prints one line per query (seconds, ``ok`` or
the fault), then ``TOTAL_S`` (the summed query seconds) and
``FAILURES: n``, and exits 1 on any failure. ``--json`` keeps the
per-query seconds for ``--compare``.

The second form prints the two runs' totals and how many queries were
faster and slower in the second, with the largest changes.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time


def _plain(v):
    """A cell as plain Python values, so a list prints the same from
    Arrow, numpy and DuckDB."""
    import numpy as np

    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, np.generic):
        return v.item()
    return v


def _normalize(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = [_plain(v) for v in df[c]]
    df = df.astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _frame(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _mismatch(got, want) -> str | None:
    if len(got) != len(want):
        return f"rows {len(got)} != {len(want)}"
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)} != {list(want.columns)}"
    if not got.equals(want):
        bad = [c for c in got.columns if not got[c].equals(want[c])]
        return f"values differ in {bad}"
    return None


def drive(repo: str, sf_dir: str, cpus: int) -> dict:
    import duckdb
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, repo)  # after ray.init, as the driver does
    import __ray_entry__ as em

    if em.entry().count() <= 0:
        raise SystemExit("entry() returned no rows")
    con = duckdb.connect()
    for path in sorted(glob.glob(os.path.join(sf_dir, "*.parquet"))):
        name = os.path.splitext(os.path.basename(path))[0]
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
    oracles = em.oracle_sql()
    out = {}
    for name, fn in em.queries().items():
        t0 = time.perf_counter()
        try:
            got = _frame(fn(sf_dir))
            seconds = time.perf_counter() - t0
            error = None
            if name in oracles:
                error = _mismatch(_normalize(got), _normalize(con.sql(oracles[name]).df()))
        except Exception as e:  # a failing query is a result, not a crash
            seconds = time.perf_counter() - t0
            error = f"{type(e).__name__}: {e}".splitlines()[0][:200]
        out[name] = {"s": round(seconds, 4), "error": error}
        print(f"{name:40s} {seconds:8.3f}  {error or 'ok'}", flush=True)
    ray.shutdown()
    return out


def _queries(path: str) -> dict:
    with open(path) as f:
        return json.load(f)["queries"]


def compare(a_path: str, b_path: str) -> None:
    a, b = _queries(a_path), _queries(b_path)
    both = sorted(set(a) & set(b))
    delta = {q: b[q]["s"] - a[q]["s"] for q in both}
    print(f"TOTAL_S {a_path}: {sum(a[q]['s'] for q in both):.1f}")
    print(f"TOTAL_S {b_path}: {sum(b[q]['s'] for q in both):.1f}")
    print(f"faster: {sum(d < 0 for d in delta.values())}  "
          f"slower: {sum(d > 0 for d in delta.values())}  of {len(both)}")
    ranked = sorted(both, key=delta.get)
    for q in ranked[:5] + ranked[-5:]:
        print(f"  {q:40s} {a[q]['s']:8.3f} -> {b[q]['s']:8.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("repo", nargs="?")
    ap.add_argument("sf_dir", nargs="?")
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--json", help="write per-query seconds and faults here")
    ap.add_argument("--compare", nargs=2, metavar=("A_JSON", "B_JSON"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (args.repo and args.sf_dir):
        ap.error("REPO and SF_DIR are required without --compare")
    queries = drive(os.path.abspath(args.repo), os.path.abspath(args.sf_dir), args.cpus)
    total = sum(q["s"] for q in queries.values())
    failures = sum(q["error"] is not None for q in queries.values())
    print(f"TOTAL_S {total:.1f}")
    print(f"FAILURES: {failures}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"repo": args.repo, "sf_dir": args.sf_dir, "cpus": args.cpus,
                       "total_s": round(total, 3), "failures": failures,
                       "queries": queries}, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
